package cuts

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/logic"
	"repro/internal/netgen"
)

func TestTrivialCut(t *testing.T) {
	c := Trivial(42)
	if len(c.Leaves) != 1 || c.Leaves[0] != 42 {
		t.Fatalf("trivial cut leaves = %v", c.Leaves)
	}
	if !c.Func.Get(1) || c.Func.Get(0) {
		t.Fatal("trivial cut function must be identity")
	}
}

func TestMergeComposesFunctions(t *testing.T) {
	// y = (a AND b) XOR c; cut of the XOR through the AND gives the
	// 3-leaf function (a AND b) XOR c.
	net := logic.NewNetwork("m")
	a := net.AddInput("a")
	b := net.AddInput("b")
	c := net.AddInput("c")
	andG := net.AddGate("and", logic.TTAnd2(), a, b)
	_ = andG

	andCut, ok := Merge(logic.TTAnd2(), []Cut{Trivial(a), Trivial(b)}, 4)
	if !ok {
		t.Fatal("merge failed")
	}
	xorCut, ok := Merge(logic.TTXor2(), []Cut{andCut, Trivial(c)}, 4)
	if !ok {
		t.Fatal("merge failed")
	}
	if len(xorCut.Leaves) != 3 {
		t.Fatalf("leaves = %v, want 3 leaves", xorCut.Leaves)
	}
	want := bitvec.FromFunc(3, func(m uint) bool {
		av := m&1 != 0 // leaves sorted: a, b, c by node id
		bv := m&2 != 0
		cv := m&4 != 0
		return (av && bv) != cv
	})
	if !xorCut.Func.Equal(want) {
		t.Fatalf("composed function %s, want %s", xorCut.Func, want)
	}
}

func TestMergeRespectsLeafLimit(t *testing.T) {
	net := logic.NewNetwork("m")
	ins := make([]Cut, 5)
	for i := range ins {
		ins[i] = Trivial(net.AddInput(""))
	}
	wide := bitvec.Const(5, true)
	if _, ok := Merge(wide, ins, 4); ok {
		t.Fatal("merge of 5 distinct leaves must fail with K=4")
	}
	if _, ok := Merge(wide, ins, 5); !ok {
		t.Fatal("merge of 5 leaves must succeed with K=5")
	}
}

func TestMergeSharedLeavesDeduplicate(t *testing.T) {
	// Reconvergence: both fanins rooted at the same leaf — union is 1 leaf.
	net := logic.NewNetwork("m")
	a := net.AddInput("a")
	c, ok := Merge(logic.TTXor2(), []Cut{Trivial(a), Trivial(a)}, 2)
	if !ok {
		t.Fatal("merge failed")
	}
	if len(c.Leaves) != 1 {
		t.Fatalf("shared leaf not deduplicated: %v", c.Leaves)
	}
	// x XOR x == 0.
	if v, isConst := c.Func.IsConst(); !isConst || v {
		t.Fatalf("x xor x should be constant 0, got %s", c.Func)
	}
}

// EnumerateNet computes every node's pruned cut set the way the
// mapper's forward pass does, node by node in ascending ID: a source
// keeps its trivial cut, and a gate enumerates from its fanins' kept
// sets and keeps the `keep` smallest. It is exported for the external
// test package.
func EnumerateNet(net *logic.Network, k, keep int) [][]Cut {
	sets := make([][]Cut, net.NumNodes())
	s := NewScratch()
	var faninSets [][]Cut
	for id := range sets {
		nd := net.Node(id)
		if nd.Kind != logic.KindGate {
			sets[id] = []Cut{Trivial(id)}
			continue
		}
		faninSets = faninSets[:0]
		for _, f := range nd.Fanins {
			faninSets = append(faninSets, sets[f])
		}
		sets[id] = slices.Clone(Prune(id, s.EnumerateNode(nd, faninSets, k), keep))
	}
	return sets
}

func TestEnumerateFullAdder(t *testing.T) {
	net := logic.NewNetwork("fa")
	a := net.AddInput("a")
	b := net.AddInput("b")
	cin := net.AddInput("cin")
	sum := net.AddGate("sum", logic.TTXor3(), a, b, cin)
	net.MarkOutput("s", sum)

	sets := EnumerateNet(net, 4, 8)
	// The sum gate must own a 3-leaf cut over the PIs plus its trivial cut.
	found3 := false
	for _, c := range sets[sum] {
		if len(c.Leaves) == 3 {
			found3 = true
			if !c.Func.Equal(logic.TTXor3()) {
				t.Fatalf("3-leaf cut function %s, want xor3", c.Func)
			}
		}
	}
	if !found3 {
		t.Fatal("missing PI-level cut of the sum gate")
	}
}

func TestEnumerateCutFunctionsMatchNetwork(t *testing.T) {
	// Every enumerated cut's function, evaluated on the leaves' simulated
	// values, must equal the node's simulated value.
	net := netgen.AdderNetwork(4)
	sets := EnumerateNet(net, 4, 6)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		in := make([]bool, len(net.Inputs))
		for i := range in {
			in[i] = rng.Intn(2) == 0
		}
		val := net.Eval(in, nil)
		for id, cs := range sets {
			for _, c := range cs {
				var assign uint
				for i, l := range c.Leaves {
					if val[l] {
						assign |= 1 << uint(i)
					}
				}
				if c.Func.Get(assign) != val[id] {
					t.Fatalf("node %d cut %v: function disagrees with simulation", id, c.Leaves)
				}
			}
		}
	}
}

func TestEnumerateKeepsTrivialUnderPruning(t *testing.T) {
	net := netgen.MultiplierNetwork(4)
	sets := EnumerateNet(net, 4, 2)
	for id, cs := range sets {
		hasTrivial := false
		for _, c := range cs {
			if len(c.Leaves) == 1 && c.Leaves[0] == id {
				hasTrivial = true
			}
			if len(c.Leaves) > 4 {
				t.Fatalf("node %d: cut wider than K: %v", id, c.Leaves)
			}
		}
		if !hasTrivial {
			t.Fatalf("node %d lost its trivial cut", id)
		}
	}
}

// TestPruneKeepLimit checks the kept sets' size bound and their order:
// ascending leaf count, apart from a trivial cut re-added last.
func TestPruneKeepLimit(t *testing.T) {
	net := netgen.MultiplierNetwork(5)
	for _, keep := range []int{1, 3, 8} {
		sets := EnumerateNet(net, 4, keep)
		for id, cs := range sets {
			if len(cs) > keep+1 { // +1 for a re-added trivial cut
				t.Fatalf("node %d: kept %d cuts with keep=%d", id, len(cs), keep)
			}
			for i := 1; i < min(len(cs), keep); i++ {
				if len(cs[i].Leaves) < len(cs[i-1].Leaves) {
					t.Fatalf("node %d keep=%d: %v kept after %v", id, keep, cs[i].Leaves, cs[i-1].Leaves)
				}
			}
		}
	}
}

func BenchmarkEnumerateMult8(b *testing.B) {
	net := netgen.MultiplierNetwork(8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = EnumerateNet(net, 4, 6)
	}
}
