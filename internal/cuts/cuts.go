// Package cuts implements K-feasible cut enumeration for technology
// mapping, after Cong, Wu and Ding's cut ranking and pruning [8 in the
// paper]. A cut of node n is a set of "leaf" nodes that separates n from
// the sources; implementing n as one K-input LUT requires a cut with at
// most K leaves. The package provides cut merging with on-the-fly
// function composition (so every cut carries its local function over its
// leaves, which the glitch-aware SA evaluator consumes) and leaves
// ranking policy to the mapper.
package cuts

import (
	"sort"

	"repro/internal/bitvec"
	"repro/internal/logic"
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

// Enumerate computes pruned cut sets for every node of the network.
// k bounds cut size (LUT inputs, at most bitvec.WordVars); keep bounds
// the number of cuts retained per node; rank orders cuts before pruning
// (smaller is kept). The trivial cut is always retained so a cover
// exists. A nil rank keeps cuts ordered by leaf count.
func Enumerate(net *logic.Network, k, keep int, rank func(node int, a, b Cut) bool) [][]Cut {
	if rank == nil {
		rank = func(_ int, a, b Cut) bool { return len(a.Leaves) < len(b.Leaves) }
	}
	sets := make([][]Cut, net.NumNodes())
	s := NewScratch()
	var faninSets [][]Cut
	for _, id := range net.TopoOrder() {
		nd := net.Node(id)
		if nd.Kind != logic.KindGate {
			sets[id] = []Cut{Trivial(id)}
			continue
		}
		faninSets = faninSets[:0]
		for _, f := range nd.Fanins {
			faninSets = append(faninSets, sets[f])
		}
		all := s.EnumerateNode(nd, faninSets, k)
		kept := Prune(id, all, keep, rank)
		cp := make([]Cut, len(kept))
		copy(cp, kept)
		sets[id] = cp
	}
	return sets
}

// Prune sorts cuts with rank and keeps the best `keep`, always retaining
// the trivial cut (the single leaf equal to the node itself).
func Prune(node int, all []Cut, keep int, rank func(node int, a, b Cut) bool) []Cut {
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
			if rank(node, c, all[mid]) {
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
