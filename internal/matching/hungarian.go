// Package matching provides the exact combinatorial solvers both binders
// are built on: maximum-weight bipartite matching (the core of HLPower's
// iterative binding, Alg. 1 line 14, and of Huang et al.'s register
// binding [11]) and min-cost max-flow (the network-flow simultaneous
// binding of the LOPASS baseline [2]).
package matching

import (
	"math"
)

// Edge is a weighted edge between left vertex U and right vertex V.
type Edge struct {
	U, V int
	W    float64
}

// MaxWeight computes a maximum-total-weight matching of a bipartite
// graph with nU left and nV right vertices. Vertices may stay unmatched
// (this is not an assignment problem: only edges with positive
// contribution are taken). It returns matchU (for each left vertex the
// matched right vertex or -1) and the total weight.
//
// Weights must be finite; non-positive-weight edges are never selected.
// Runs the Hungarian algorithm over the nU real rows of an nU×n cost
// matrix, n = max(nU, nV): O(nU²·n) instead of the O(n³) of padding the
// problem to n×n, with the same matching (see solveAssignment).
//
// Each call allocates fresh working matrices; iterative callers (the
// binding engine solves one matching per merge round) should hold a
// Solver and reuse its buffers across solves.
func MaxWeight(nU, nV int, edges []Edge) (matchU []int, total float64) {
	return NewSolver().MaxWeight(nU, nV, edges)
}

// Solver runs maximum-weight bipartite matchings with reusable working
// storage: the rows×n cost matrix (plus the one all-zero row every
// dummy row reads), the real-edge mask, and the Hungarian
// potential/augmentation arrays are grown once to the largest problem
// seen and recycled across solves. A Solver is not safe for concurrent
// use; results are identical to the package-level MaxWeight for every
// solve.
type Solver struct {
	rows     int       // real rows of the current problem (nU)
	n        int       // current square dimension, max(nU, nV)
	cost     []float64 // (rows+1)*n row-major: negative weight for minimization; last row all zero
	real     []bool    // (rows+1)*n row-major: true where a real edge exists
	u, v     []float64 // Hungarian potentials (1-based, n+1)
	p, way   []int     // column assignment and augmenting-path links
	minv     []float64
	used     []bool
	assigned []int       // scratch for the real row -> column result
	sp       sparseState // SSP scratch (MaxWeightSparse)
}

// NewSolver returns an empty solver; buffers grow on first use.
func NewSolver() *Solver {
	return &Solver{}
}

// Scratch shrinking: the working arrays historically grew to the
// largest problem ever seen and were never released, so one oversized
// solve pinned its memory for the rest of a long-lived process (hlpowerd
// holds engine solvers for hours). grow now reallocates at the needed
// size whenever held capacity exceeds shrinkFactor× the need and the
// excess is big enough to matter.
const (
	shrinkFactor   = 4
	shrinkFloorSq  = 1 << 16 // ~64k float64 matrix cells (512 KiB)
	shrinkFloorVec = 1 << 12 // potential/augmentation vectors
)

// grow sizes (and clears) the working storage for a problem of rows
// real rows over n columns, n ≥ rows: a (rows+1)×n cost matrix whose
// last row is the all-zero dummy row, and n+1 potentials. Oversized
// scratch past the shrink threshold is released.
func (s *Solver) grow(rows, n int) {
	s.rows, s.n = rows, n
	cells := (rows + 1) * n
	if cap(s.cost) > shrinkFloorSq && cap(s.cost) > shrinkFactor*cells {
		s.cost = nil
		s.real = nil
	}
	if cap(s.u) > shrinkFloorVec && cap(s.u) > shrinkFactor*(n+1) {
		s.u, s.v, s.p, s.way, s.minv, s.used, s.assigned = nil, nil, nil, nil, nil, nil, nil
	}
	if cap(s.cost) < cells {
		s.cost = make([]float64, cells)
		s.real = make([]bool, cells)
	}
	s.cost = s.cost[:cells]
	s.real = s.real[:cells]
	clear(s.cost)
	clear(s.real)
	if cap(s.u) < n+1 {
		s.u = make([]float64, n+1)
		s.v = make([]float64, n+1)
		s.p = make([]int, n+1)
		s.way = make([]int, n+1)
		s.minv = make([]float64, n+1)
		s.used = make([]bool, n+1)
		s.assigned = make([]int, n)
	}
	s.u = s.u[:n+1]
	s.v = s.v[:n+1]
	s.p = s.p[:n+1]
	s.way = s.way[:n+1]
	s.minv = s.minv[:n+1]
	s.used = s.used[:n+1]
	s.assigned = s.assigned[:rows]
	for j := 0; j <= n; j++ {
		s.u[j], s.v[j] = 0, 0
		s.p[j], s.way[j] = 0, 0
	}
}

// MaxWeight solves one matching with the solver's buffers. The returned
// matchU slice is freshly allocated (safe to retain); everything else is
// recycled on the next call.
func (s *Solver) MaxWeight(nU, nV int, edges []Edge) (matchU []int, total float64) {
	matchU = make([]int, nU)
	for i := range matchU {
		matchU[i] = -1
	}
	if nU == 0 || nV == 0 || len(edges) == 0 {
		return matchU, 0
	}
	n := max(nU, nV)
	s.grow(nU, n)
	// cost[i*n+j]: negative weight for minimization; 0 for dummy pairs so
	// "unmatched" is free.
	for _, e := range edges {
		if e.U < 0 || e.U >= nU || e.V < 0 || e.V >= nV {
			panic("matching: edge endpoint out of range")
		}
		if e.W > 0 && -e.W < s.cost[e.U*n+e.V] {
			s.cost[e.U*n+e.V] = -e.W
			s.real[e.U*n+e.V] = true
		}
	}

	s.solveAssignment()
	for i := 0; i < nU; i++ {
		j := s.assigned[i]
		if j >= 0 && j < nV && s.real[i*n+j] {
			matchU[i] = j
			total += -s.cost[i*n+j]
		}
	}
	return matchU, total
}

// solveAssignment solves the min-cost assignment of the n×n matrix made
// of the rows real cost rows and n-rows all-zero dummy rows, with the
// standard potentials-based Hungarian algorithm, leaving each real
// row's assigned column in s.assigned.
//
// The dummy rows come last and usually need no work at all. Once every
// real row is placed, dummyRowsIdle checks that each column potential
// is ≤ 0 and each real-row reduced cost is ≥ 0. A free column has never
// entered a search tree, so its potential is exactly 0. A dummy row's
// search then finds delta exactly 0 at every step and leaves every
// potential as it is. Improvements must be strict, so every free column
// keeps the way = 0 it gets at the search's first step: the search
// augments straight onto a free column, and no real row changes column.
// Skipping the dummy rows therefore gives the padded solve's matching
// bit for bit, in O(rows²·n) instead of O(n³). When float rounding
// breaks the check, the dummy rows run, each reading the all-zero row
// the cost matrix ends with.
func (s *Solver) solveAssignment() {
	rows, n := s.rows, s.n
	const inf = math.MaxFloat64
	a, u, v, p, way := s.cost, s.u, s.v, s.p, s.way
	minv, used := s.minv, s.used
	for i := 1; i <= n; i++ {
		if i == rows+1 && s.dummyRowsIdle() {
			break
		}
		p[0] = i
		j0 := 0
		for j := 0; j <= n; j++ {
			minv[j] = inf
			used[j] = false
		}
		for {
			used[j0] = true
			i0 := p[j0]
			delta := inf
			j1 := -1
			row := a[min(i0-1, rows)*n:]
			for j := 1; j <= n; j++ {
				if used[j] {
					continue
				}
				cur := row[j-1] - u[i0] - v[j]
				if cur < minv[j] {
					minv[j] = cur
					way[j] = j0
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			for j := 0; j <= n; j++ {
				if used[j] {
					u[p[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
			if p[j0] == 0 {
				break
			}
		}
		for j0 != 0 {
			j1 := way[j0]
			p[j0] = p[j1]
			j0 = j1
		}
	}
	for i := range s.assigned {
		s.assigned[i] = 0
	}
	for j := 1; j <= n; j++ {
		if r := p[j]; r > 0 && r <= rows {
			s.assigned[r-1] = j - 1
		}
	}
}

// dummyRowsIdle reports whether the dummy rows can be skipped: every
// column potential is ≤ 0 and every real-row reduced cost is ≥ 0, each
// computed with the search loop's own float expression. NaN fails both
// tests, so any doubt runs the dummy rows.
func (s *Solver) dummyRowsIdle() bool {
	n, u, v := s.n, s.u, s.v
	for j := 1; j <= n; j++ {
		if !(v[j] <= 0) {
			return false
		}
	}
	for i := 1; i <= s.rows; i++ {
		row := s.cost[(i-1)*n:]
		for j := 1; j <= n; j++ {
			if !(row[j-1]-u[i]-v[j] >= 0) {
				return false
			}
		}
	}
	return true
}
