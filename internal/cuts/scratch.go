package cuts

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/bitvec"
	"repro/internal/logic"
)

// Scratch holds the transient state of per-node cut enumeration — the
// candidate list and its leaf signatures, the fanin cuts' signatures,
// the leaf-union buffer — and the tables it has composed, so a mapping
// pass over a large network reuses one allocation set per worker
// instead of allocating at every gate.
//
// A Scratch is not safe for concurrent use; give each worker its own.
type Scratch struct {
	out    []Cut
	sigs   []uint64   // sigs[i] is the leaf signature of out[i]
	fsigs  [][]uint64 // fsigs[i][j] is the signature of fanin i's cut j
	chosen []Cut
	union  [bitvec.WordVars]int
	// funcs interns composed tables by content. It lives as long as the
	// Scratch, one Map call, so it needs no bound.
	funcs map[funcKey]*bitvec.TruthTable
}

// funcKey is the content of a canonical table of at most
// bitvec.WordVars variables: its variable count and its one word.
type funcKey struct {
	word uint64
	n    int
}

// NewScratch returns an empty enumeration scratch.
func NewScratch() *Scratch {
	return &Scratch{funcs: make(map[funcKey]*bitvec.TruthTable)}
}

// signature sets bit leaf&63 for each leaf. One leaf sets one bit, so
// the popcount of a leaf set's signature never exceeds its size, and
// the signature of a union is the OR of its parts' signatures.
func signature(leaves []int) uint64 {
	var sig uint64
	for _, l := range leaves {
		sig |= 1 << (uint(l) & 63)
	}
	return sig
}

// EnumerateNode produces all K-feasible cuts of the gate by cartesian
// merging of its fanins' kept cut sets, deduplicated by leaf set with
// the first occurrence in cartesian order kept, and the trivial cut
// appended. The caller ranks and prunes the result. The returned slice
// and its backing array are valid only until the next call on this
// scratch; each Cut's Leaves are freshly allocated and safe to retain,
// and its Func is shared and read-only (see Cut).
//
// Functions are composed in one word, so k and the gate's fanin count
// may not exceed bitvec.WordVars. mapper.Map guarantees both: K is in
// [2, 6] and at least the widest gate. A call past the limit is a
// caller bug and panics.
func (s *Scratch) EnumerateNode(nd *logic.Node, faninSets [][]Cut, k int) []Cut {
	nf := len(nd.Fanins)
	if k > bitvec.WordVars || nf > bitvec.WordVars {
		panic(fmt.Sprintf("cuts: K=%d over a %d-input gate exceeds the %d-leaf limit of one-word composition",
			k, nf, bitvec.WordVars))
	}
	s.out, s.sigs = s.out[:0], s.sigs[:0]
	if cap(s.chosen) < nf {
		s.chosen = make([]Cut, nf)
		s.fsigs = make([][]uint64, nf)
	}
	s.chosen, s.fsigs = s.chosen[:nf], s.fsigs[:nf]
	for i, set := range faninSets {
		fs := s.fsigs[i][:0]
		for _, c := range set {
			fs = append(fs, signature(c.Leaves))
		}
		s.fsigs[i] = fs
	}
	if nf > 0 {
		s.combine(nd.Func, faninSets, 0, 0, k)
	}
	self := [1]int{nd.ID}
	if sig := signature(self[:]); !s.has(self[:], sig) {
		s.add(Trivial(nd.ID), sig)
	}
	return s.out
}

// combine chooses a cut of fanin i and of each later fanin, given the
// signature sig of the leaves chosen before i, and merges every full
// choice. It skips a cut that lifts the signature's popcount above k:
// the popcount is a lower bound on the union's size, and later fanins
// only add leaves, so no completion of that prefix fits either.
func (s *Scratch) combine(fn *bitvec.TruthTable, sets [][]Cut, i int, sig uint64, k int) {
	if i == len(sets) {
		s.merge(fn, sig, k)
		return
	}
	for j, c := range sets[i] {
		sg := sig | s.fsigs[i][j]
		if bits.OnesCount64(sg) > k {
			continue
		}
		s.chosen[i] = c
		s.combine(fn, sets, i+1, sg, k)
	}
}

// merge unions the chosen cuts' leaves, whose signature is sig, rejects
// a union of more than k leaves, and appends the cut of each union's
// first occurrence only. Composing first occurrences only is exact: a
// leaf set reached here separates the root from the sources, so the
// root's function over it is unique — two combinations with the same
// union always compose to the same function.
//
// Composition is one word wide. Fanin cut i's table, evaluated by
// Shannon expansion at the projection words of its leaves' positions in
// the union, is its function over the union's variables; the gate's
// table evaluated at those words is the cut's function. The bits at and
// above minterm 2^n are cleared so the table is canonical.
func (s *Scratch) merge(fn *bitvec.TruthTable, sig uint64, k int) {
	u, ok := s.unionLeaves(k)
	if !ok || s.has(u, sig) {
		return
	}
	var x [bitvec.WordVars]uint64
	for i, c := range s.chosen {
		var proj [bitvec.WordVars]uint64
		for j, l := range c.Leaves {
			p := 0
			for u[p] != l {
				p++
			}
			proj[j] = bitvec.VarWord(p)
		}
		x[i] = bitvec.Shannon(c.Func.Words()[0], &proj, len(c.Leaves))
	}
	n := len(u)
	w := bitvec.Shannon(fn.Words()[0], &x, len(s.chosen)) & bitvec.WordMask(n)
	s.add(Cut{Leaves: slices.Clone(u), Func: s.intern(n, w)}, sig)
}

// unionLeaves inserts the chosen cuts' leaves into the sorted buffer
// s.union and returns it, or reports false at the (k+1)-th distinct
// leaf.
func (s *Scratch) unionLeaves(k int) ([]int, bool) {
	u := s.union[:0]
	for _, c := range s.chosen {
		for _, l := range c.Leaves {
			i := len(u)
			for i > 0 && u[i-1] > l {
				i--
			}
			if i > 0 && u[i-1] == l {
				continue
			}
			if len(u) == k {
				return nil, false
			}
			u = append(u, 0)
			copy(u[i+1:], u[i:])
			u[i] = l
		}
	}
	return u, true
}

// has reports whether the candidates already hold the leaf set, whose
// signature is sig. Signatures reject almost every other candidate
// before its leaves are compared.
func (s *Scratch) has(leaves []int, sig uint64) bool {
	for i, sg := range s.sigs {
		if sg == sig && slices.Equal(s.out[i].Leaves, leaves) {
			return true
		}
	}
	return false
}

func (s *Scratch) add(c Cut, sig uint64) {
	s.out = append(s.out, c)
	s.sigs = append(s.sigs, sig)
}

// intern returns the scratch's one table of n variables with the
// canonical word w, making it on first use.
func (s *Scratch) intern(n int, w uint64) *bitvec.TruthTable {
	key := funcKey{word: w, n: n}
	if t, ok := s.funcs[key]; ok {
		return t
	}
	t, err := bitvec.FromWords(n, []uint64{w})
	if err != nil {
		panic(err) // w is masked to n variables
	}
	s.funcs[key] = t
	return t
}
