package cuts

import (
	"fmt"
	"math/bits"
	"strings"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/logic"
	"repro/internal/netgen"
)

// refCounts tallies the cases of the scratch path that only some
// networks reach: combinations whose leaf union an earlier combination
// already produced, and kept leaf sets whose signature popcount is
// below their size (two leaves share a signature bit).
type refCounts struct {
	dups, collisions int
}

// refEnumerateNode is the original compose-then-dedup enumeration over
// Merge, kept as the oracle for the scratch path.
func refEnumerateNode(nd *logic.Node, faninSets [][]Cut, k int, rc *refCounts) []Cut {
	var out []Cut
	dedup := make(map[string]bool)
	add := func(c Cut) {
		key := fmt.Sprint(c.Leaves)
		if dedup[key] {
			rc.dups++
			return
		}
		dedup[key] = true
		if bits.OnesCount64(signature(c.Leaves)) < len(c.Leaves) {
			rc.collisions++
		}
		out = append(out, c)
	}
	chosen := make([]Cut, len(nd.Fanins))
	var rec func(i int)
	rec = func(i int) {
		if i == len(nd.Fanins) {
			if c, ok := Merge(nd.Func, chosen, k); ok {
				add(c)
			}
			return
		}
		for _, c := range faninSets[i] {
			chosen[i] = c
			rec(i + 1)
		}
	}
	if len(nd.Fanins) > 0 {
		rec(0)
	}
	add(Trivial(nd.ID))
	return out
}

// TestScratchMatchesReferenceEnumeration requires the scratch path's
// candidates — leaves, order and composed tables — to equal the
// reference's at every node. The CLA adder and the 8-bit multiplier at
// K=6 reach the paths the smaller nets do not: duplicate leaf unions,
// and leaf sets whose signature popcount understates their size, which
// the signature filter cannot reject and the union's k-leaf check must.
func TestScratchMatchesReferenceEnumeration(t *testing.T) {
	var rc refCounts
	for _, net := range []*logic.Network{
		netgen.AdderNetwork(6),
		netgen.MultiplierNetwork(5),
		netgen.AdderArchNetwork(netgen.AdderCLA, 16),
		netgen.MultiplierNetwork(8),
	} {
		for _, k := range []int{3, 4, 5, 6} {
			s := NewScratch()
			refSets := make([][]Cut, net.NumNodes())
			for _, id := range net.TopoOrder() {
				nd := net.Node(id)
				if nd.Kind != logic.KindGate {
					refSets[id] = []Cut{Trivial(id)}
					continue
				}
				faninSets := make([][]Cut, len(nd.Fanins))
				for i, f := range nd.Fanins {
					faninSets[i] = refSets[f]
				}
				want := refEnumerateNode(nd, faninSets, k, &rc)
				got := s.EnumerateNode(nd, faninSets, k)
				if len(got) != len(want) {
					t.Fatalf("%s k=%d node %d: %d cuts, want %d", net.Name, k, id, len(got), len(want))
				}
				for i := range got {
					if fmt.Sprint(got[i].Leaves) != fmt.Sprint(want[i].Leaves) {
						t.Fatalf("%s k=%d node %d cut %d: leaves %v, want %v", net.Name, k, id, i, got[i].Leaves, want[i].Leaves)
					}
					if !got[i].Func.Equal(want[i].Func) {
						t.Fatalf("%s k=%d node %d cut %d (%v): func %s, want %s",
							net.Name, k, id, i, got[i].Leaves, got[i].Func, want[i].Func)
					}
				}
				// Seed the next node's fanin sets with the reference (pruned)
				// result so both paths see identical inputs throughout.
				refSets[id] = Prune(id, want, 6)
			}
		}
	}
	if rc.dups == 0 || rc.collisions == 0 {
		t.Fatalf("the networks reach %d duplicate unions and %d signature collisions; both paths need at least one", rc.dups, rc.collisions)
	}
	t.Logf("%d duplicate unions, %d signature collisions", rc.dups, rc.collisions)
}

// TestEnumerateNodeRejectsWideComposition pins the one-word limit: K
// or a gate wider than six leaves is a caller bug, reported by a panic
// that names the limit.
func TestEnumerateNodeRejectsWideComposition(t *testing.T) {
	net := logic.NewNetwork("wide")
	var ins []int
	for i := 0; i < 7; i++ {
		ins = append(ins, net.AddInput(""))
	}
	and7 := net.Node(net.AddGate("and7", bitvec.FromFunc(7, func(m uint) bool { return m == 127 }), ins...))
	and2 := net.Node(net.AddGate("and2", logic.TTAnd2(), ins[0], ins[1]))
	for _, tc := range []struct {
		nd *logic.Node
		k  int
	}{{and7, 7}, {and7, 6}, {and2, 7}} {
		sets := make([][]Cut, len(tc.nd.Fanins))
		for i, f := range tc.nd.Fanins {
			sets[i] = []Cut{Trivial(f)}
		}
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "6-leaf limit") {
					t.Errorf("%d-input gate at K=%d: recovered %v, want a panic naming the 6-leaf limit", len(tc.nd.Fanins), tc.k, r)
				}
			}()
			NewScratch().EnumerateNode(tc.nd, sets, tc.k)
		}()
	}
}
