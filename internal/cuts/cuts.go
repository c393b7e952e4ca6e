// Package cuts implements K-feasible cut enumeration for technology
// mapping, after Cong, Wu and Ding's cut ranking and pruning [8 in the
// paper]. A cut of node n is a set of "leaf" nodes that separates n from
// the sources; implementing n as one K-input LUT requires a cut with at
// most K leaves. The package provides per-node cut enumeration with
// on-the-fly function composition (so every cut carries its local
// function over its leaves, which the glitch-aware SA evaluator
// consumes) and pruning to the smallest cuts; the mapper drives both
// node by node.
package cuts

import (
	"sort"

	"repro/internal/bitvec"
)

// Cut is a K-feasible cut: sorted leaf node IDs and the function of the
// cut's root expressed over those leaves (variable i = Leaves[i]). Func
// may be shared with other cuts — trivial cuts share one identity
// table, and a Scratch interns the tables it composes — so it is
// read-only; clone it before changing it.
type Cut struct {
	Leaves []int
	Func   *bitvec.TruthTable
}

// identity is the one-variable identity table of every trivial cut.
var identity = bitvec.Var(1, 0)

// Trivial returns the trivial cut {n}: the node itself as its only leaf.
func Trivial(n int) Cut {
	return Cut{Leaves: []int{n}, Func: identity}
}

// Merge combines one chosen cut per fanin of a gate into a cut of the
// gate, or reports ok = false if the union of leaves exceeds maxLeaves.
// fn is the gate's local function over its fanins. It composes minterm
// by minterm at any width; it is the reference Scratch.EnumerateNode is
// tested against.
func Merge(fn *bitvec.TruthTable, faninCuts []Cut, maxLeaves int) (Cut, bool) {
	// Union the leaves.
	var leaves []int
	seen := make(map[int]bool)
	for _, c := range faninCuts {
		for _, l := range c.Leaves {
			if !seen[l] {
				seen[l] = true
				leaves = append(leaves, l)
			}
		}
	}
	if len(leaves) > maxLeaves {
		return Cut{}, false
	}
	sort.Ints(leaves)
	pos := make(map[int]int, len(leaves))
	for i, l := range leaves {
		pos[l] = i
	}
	// Compose: substitute each fanin's cut function (expanded to the
	// union leaf space) into the gate function.
	n := len(leaves)
	sub := make([]*bitvec.TruthTable, len(faninCuts))
	for i, c := range faninCuts {
		mapping := make([]int, len(c.Leaves))
		for j, l := range c.Leaves {
			mapping[j] = pos[l]
		}
		sub[i] = c.Func.Expand(n, mapping)
	}
	out := bitvec.FromFunc(n, func(assign uint) bool {
		var inner uint
		for i := range sub {
			if sub[i].Get(assign) {
				inner |= 1 << uint(i)
			}
		}
		return fn.Get(inner)
	})
	return Cut{Leaves: leaves, Func: out}, true
}

// Prune orders cuts by ascending leaf count, ties in their given order,
// and keeps the first `keep`, always retaining the trivial cut (the
// single leaf equal to the node itself).
func Prune(node int, all []Cut, keep int) []Cut {
	// Stable binary-insertion sort: candidate lists are small (tens of
	// cuts) and this runs once per gate, where sort.SliceStable's
	// closure plumbing and reflection-based swapper allocate enough to
	// show up in mapping profiles. Insertion sort is stable, so the
	// resulting order — and every downstream cover decision — is
	// identical.
	for i := 1; i < len(all); i++ {
		c := all[i]
		lo, hi := 0, i
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if len(c.Leaves) < len(all[mid].Leaves) {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		copy(all[lo+1:i+1], all[lo:i])
		all[lo] = c
	}
	if len(all) <= keep {
		return all
	}
	kept := all[:keep:keep]
	hasTrivial := false
	for _, c := range kept {
		if len(c.Leaves) == 1 && c.Leaves[0] == node {
			hasTrivial = true
			break
		}
	}
	if !hasTrivial {
		for _, c := range all[keep:] {
			if len(c.Leaves) == 1 && c.Leaves[0] == node {
				kept = append(kept, c)
				break
			}
		}
	}
	return kept
}
