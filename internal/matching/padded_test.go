package matching

import (
	"math"
	"math/rand"
	"testing"
)

// paddedSolver is the Hungarian solve as it stood before the dummy rows
// were skipped, kept verbatim as the differential oracle: it pads every
// nU×nV problem to n×n, n = max(nU, nV), and runs all n rows.
type paddedSolver struct {
	n        int       // current padded dimension
	cost     []float64 // n*n row-major: negative weight for minimization
	real     []bool    // n*n row-major: true where a real edge exists
	u, v     []float64 // Hungarian potentials (1-based, n+1)
	p, way   []int     // column assignment and augmenting-path links
	minv     []float64
	used     []bool
	assigned []int // scratch for the row -> column result
}

// grow sizes (and clears) the working storage for an n x n problem,
// releasing oversized scratch past the shrink threshold.
func (s *paddedSolver) grow(n int) {
	s.n = n
	if cap(s.cost) > shrinkFloorSq && cap(s.cost) > shrinkFactor*n*n {
		s.cost = nil
		s.real = nil
	}
	if cap(s.u) > shrinkFloorVec && cap(s.u) > shrinkFactor*(n+1) {
		s.u, s.v, s.p, s.way, s.minv, s.used, s.assigned = nil, nil, nil, nil, nil, nil, nil
	}
	if cap(s.cost) < n*n {
		s.cost = make([]float64, n*n)
		s.real = make([]bool, n*n)
	}
	s.cost = s.cost[:n*n]
	s.real = s.real[:n*n]
	for i := range s.cost {
		s.cost[i] = 0
		s.real[i] = false
	}
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
	s.assigned = s.assigned[:n]
	for j := 0; j <= n; j++ {
		s.u[j], s.v[j] = 0, 0
		s.p[j], s.way[j] = 0, 0
	}
}

// MaxWeight solves one matching with the solver's buffers.
func (s *paddedSolver) MaxWeight(nU, nV int, edges []Edge) (matchU []int, total float64) {
	matchU = make([]int, nU)
	for i := range matchU {
		matchU[i] = -1
	}
	if nU == 0 || nV == 0 || len(edges) == 0 {
		return matchU, 0
	}
	n := nU
	if nV > n {
		n = nV
	}
	s.grow(n)
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

// solveAssignment solves the square min-cost assignment problem with the
// standard potentials-based Hungarian algorithm (O(n^3)), leaving each
// row's assigned column in s.assigned.
func (s *paddedSolver) solveAssignment() {
	n := s.n
	const inf = math.MaxFloat64
	a, u, v, p, way := s.cost, s.u, s.v, s.p, s.way
	for i := 1; i <= n; i++ {
		p[0] = i
		j0 := 0
		minv, used := s.minv, s.used
		for j := 0; j <= n; j++ {
			minv[j] = inf
			used[j] = false
		}
		for {
			used[j0] = true
			i0 := p[j0]
			delta := inf
			j1 := -1
			row := a[(i0-1)*n:]
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
		if p[j] > 0 {
			s.assigned[p[j]-1] = j - 1
		}
	}
}

// tieWeights is the pool tie-heavy instances draw from: Eq. 4-shaped
// values α/SA + (1-α)/((muxDiff+1)·β) over a handful of SA values, mux
// differences and the flow's betas — the few distinct, non-dyadic
// weights a binding round's memoized shapes produce — plus zero and a
// negative weight, which MaxWeight must never select.
var tieWeights = func() []float64 {
	ws := []float64{0, -1}
	for _, sa := range []float64{0.37, 1.1, 2.9, 7.3} {
		for d := 0; d < 3; d++ {
			for _, beta := range []float64{300, 10000} {
				ws = append(ws, 0.5*(1/sa)+0.5*(1/(float64(d+1)*beta)))
			}
		}
	}
	return ws
}()

// tieHeavyInstance draws one random instance whose weights come from a
// few tieWeights values, with duplicate (U,V) pairs mixed in.
func tieHeavyInstance(rng *rand.Rand, nU, nV int) []Edge {
	pool := make([]float64, 1+rng.Intn(4))
	for i := range pool {
		pool[i] = tieWeights[rng.Intn(len(tieWeights))]
	}
	density := 0.2 + 0.8*rng.Float64()
	var edges []Edge
	for u := 0; u < nU; u++ {
		for v := 0; v < nV; v++ {
			if rng.Float64() < density {
				edges = append(edges, Edge{u, v, pool[rng.Intn(len(pool))]})
				if rng.Intn(16) == 0 {
					edges = append(edges, Edge{u, v, pool[rng.Intn(len(pool))]})
				}
			}
		}
	}
	return edges
}

// ranDummyRows reports whether the solver's last solve ran its dummy
// rows: only then does a dummy row (index > rows) hold a column.
func ranDummyRows(s *Solver) bool {
	for _, r := range s.p[1:] {
		if r > s.rows {
			return true
		}
	}
	return false
}

// diffPadded solves one instance with s and with the padded reference
// and fails unless matchU and the total agree bit for bit.
func diffPadded(t *testing.T, label string, s *Solver, ref *paddedSolver, nU, nV int, edges []Edge) {
	t.Helper()
	gotM, gotT := s.MaxWeight(nU, nV, edges)
	wantM, wantT := ref.MaxWeight(nU, nV, edges)
	if math.Float64bits(gotT) != math.Float64bits(wantT) {
		t.Fatalf("%s (nU=%d nV=%d): total %v, padded %v", label, nU, nV, gotT, wantT)
	}
	for i := range wantM {
		if gotM[i] != wantM[i] {
			t.Fatalf("%s (nU=%d nV=%d): matchU[%d] = %d, padded %d\nedges: %v", label, nU, nV, i, gotM[i], wantM[i], edges)
		}
	}
}

// TestMaxWeightMatchesPadded is the differential contract of the
// dummy-row skip: on random tie-heavy instances, half with fewer left
// than right vertices (where dummy rows exist) and half without, every
// solve must equal the padded reference bit for bit — both the instances
// whose dummy rows were skipped and those that fell back to running
// them, and both must occur.
func TestMaxWeightMatchesPadded(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	s, ref := NewSolver(), &paddedSolver{}
	skipped, ranDummy, square := 0, 0, 0
	for trial := 0; trial < 20000; trial++ {
		nU, nV := 1+rng.Intn(12), 1+rng.Intn(12)
		if trial%2 == 0 {
			nV = nU + 1 + rng.Intn(24)
		} else if nU < nV {
			nU, nV = nV, nU
		}
		edges := tieHeavyInstance(rng, nU, nV)
		diffPadded(t, "trial", s, ref, nU, nV, edges)
		switch {
		case nU >= nV || len(edges) == 0:
			square++
		case ranDummyRows(s):
			ranDummy++
		default:
			skipped++
		}
	}
	t.Logf("dummy rows skipped on %d instances, run on %d; %d had none", skipped, ranDummy, square)
	if skipped == 0 || ranDummy == 0 || square == 0 {
		t.Fatalf("coverage: skipped %d, ran dummy rows %d, no dummy rows %d; each must be > 0", skipped, ranDummy, square)
	}
}

// FuzzMaxWeight decodes the fuzz input into a tie-heavy instance and
// diffs the solve against the padded reference: byte 0 picks nU, byte 1
// nV (each 1..32), and every following byte triple is one edge (U, V,
// index into tieWeights).
func FuzzMaxWeight(f *testing.F) {
	f.Add([]byte{3, 9, 0, 0, 2, 0, 1, 2, 1, 1, 2, 2, 8, 4})
	f.Add([]byte{8, 2, 0, 0, 5, 1, 0, 5, 2, 1, 6, 7, 1, 1})
	f.Add([]byte{5, 5, 0, 0, 3, 1, 1, 3, 2, 2, 3, 3, 3, 3, 4, 4, 3})
	f.Add([]byte{2, 30, 0, 0, 9, 0, 1, 9, 1, 0, 9, 1, 1, 9, 0, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		nU, nV := 1+int(data[0])%32, 1+int(data[1])%32
		var edges []Edge
		for b := data[2:]; len(b) >= 3; b = b[3:] {
			edges = append(edges, Edge{int(b[0]) % nU, int(b[1]) % nV, tieWeights[int(b[2])%len(tieWeights)]})
		}
		diffPadded(t, "fuzz", NewSolver(), &paddedSolver{}, nU, nV, edges)
	})
}
