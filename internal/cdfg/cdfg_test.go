package cdfg

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/netgen"
)

// figure1Graph reproduces the 8-operation CDFG of the paper's Figure 1:
// cstep1: ops 1(+), 2(+), 3(x); cstep2: 4(+), 5(x); cstep3: 6(+), 7(x), 8(+).
func figure1Graph() (*Graph, *Schedule) {
	g := NewGraph("fig1")
	in := make([]int, 6)
	for i := range in {
		in[i] = g.AddInput("")
	}
	op1 := g.AddOp(KindAdd, "1", in[0], in[1])
	op2 := g.AddOp(KindAdd, "2", in[1], in[2])
	op3 := g.AddOp(KindMult, "3", in[3], in[4])
	op4 := g.AddOp(KindAdd, "4", op1, op2)
	op5 := g.AddOp(KindMult, "5", op3, in[5])
	op6 := g.AddOp(KindAdd, "6", op4, op5)
	op7 := g.AddOp(KindMult, "7", op5, op4)
	op8 := g.AddOp(KindAdd, "8", op4, op3)
	g.MarkOutput(op6)
	g.MarkOutput(op7)
	g.MarkOutput(op8)
	s := &Schedule{Step: make([]int, len(g.Nodes)), Len: 3}
	s.Step[op1], s.Step[op2], s.Step[op3] = 1, 1, 1
	s.Step[op4], s.Step[op5] = 2, 2
	s.Step[op6], s.Step[op7], s.Step[op8] = 3, 3, 3
	return g, s
}

func TestGraphConstructionAndStats(t *testing.T) {
	g, _ := figure1Graph()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	st := g.Stats()
	if st.PIs != 6 || st.POs != 3 || st.Adds != 5 || st.Mults != 3 {
		t.Fatalf("unexpected stats: %+v", st)
	}
	if st.Edges != 8*2+3 {
		t.Fatalf("edges = %d, want %d", st.Edges, 19)
	}
}

func TestValidateCatchesDeadOp(t *testing.T) {
	g := NewGraph("dead")
	a := g.AddInput("a")
	b := g.AddInput("b")
	g.AddOp(KindAdd, "dead", a, b)
	if err := g.Validate(); err == nil {
		t.Fatal("expected dead-op detection")
	}
}

func TestASAPRespectsPrecedence(t *testing.T) {
	g, _ := figure1Graph()
	s := ASAP(g, Library{})
	if s.Len != 3 {
		t.Fatalf("ASAP length = %d, want 3", s.Len)
	}
	if err := ValidateSchedule(g, s, ResourceConstraint{}); err != nil {
		t.Fatal(err)
	}
}

func TestALAPPushesLate(t *testing.T) {
	g, _ := figure1Graph()
	s, err := ALAP(g, Library{}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateSchedule(g, s, ResourceConstraint{}); err != nil {
		t.Fatal(err)
	}
	if s.Len != 5 {
		t.Fatalf("ALAP length = %d", s.Len)
	}
	// Outputs must sit at the last step.
	for _, o := range g.Outputs {
		if s.Step[o] != 5 {
			t.Fatalf("output op %d at step %d, want 5", o, s.Step[o])
		}
	}
	if _, err := ALAP(g, Library{}, 2); err == nil {
		t.Fatal("ALAP below critical path must fail")
	}
}

func TestListScheduleMeetsConstraint(t *testing.T) {
	g, _ := figure1Graph()
	rc := ResourceConstraint{Add: 1, Mult: 1}
	s, err := ListSchedule(g, rc)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateSchedule(g, s, rc); err != nil {
		t.Fatal(err)
	}
	// 5 adds with 1 adder needs at least 5 steps.
	if s.Len < 5 {
		t.Fatalf("schedule length %d too short for 5 adds on 1 adder", s.Len)
	}
}

func TestListScheduleUnboundedMatchesASAPLength(t *testing.T) {
	g, _ := figure1Graph()
	s, err := ListSchedule(g, ResourceConstraint{Add: 100, Mult: 100})
	if err != nil {
		t.Fatal(err)
	}
	if s.Len != ASAP(g, Library{}).Len {
		t.Fatalf("unbounded list schedule length %d != ASAP %d", s.Len, ASAP(g, Library{}).Len)
	}
}

func TestListScheduleRejectsZeroResource(t *testing.T) {
	g, _ := figure1Graph()
	if _, err := ListSchedule(g, ResourceConstraint{Add: 1, Mult: 0}); err == nil {
		t.Fatal("zero mult units should be rejected for a graph with mults")
	}
}

func TestMinResources(t *testing.T) {
	g, s := figure1Graph()
	rc := MinResources(g, s)
	// cstep1 has 2 adds + 1 mult; cstep3 has 2 adds + 1 mult.
	if rc.Add != 2 || rc.Mult != 1 {
		t.Fatalf("min resources = %+v, want {2 1}", rc)
	}
}

func TestRandomListSchedulesAreValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 5+rng.Intn(40))
		rc := ResourceConstraint{Add: 1 + rng.Intn(3), Mult: 1 + rng.Intn(3)}
		s, err := ListSchedule(g, rc)
		if err != nil {
			return false
		}
		return ValidateSchedule(g, s, rc) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// randomGraph builds a random valid DAG with the given number of ops.
func randomGraph(rng *rand.Rand, ops int) *Graph {
	g := NewGraph("rand")
	nPI := 2 + rng.Intn(6)
	for i := 0; i < nPI; i++ {
		g.AddInput("")
	}
	for i := 0; i < ops; i++ {
		kind := KindAdd
		switch rng.Intn(3) {
		case 1:
			kind = KindMult
		case 2:
			kind = KindSub
		}
		a := rng.Intn(len(g.Nodes))
		b := rng.Intn(len(g.Nodes))
		g.AddOp(kind, "", a, b)
	}
	// Mark every sink as output so validation passes.
	consumers := g.Consumers()
	for _, n := range g.Nodes {
		if n.Kind.IsOp() && len(consumers[n.ID]) == 0 {
			g.MarkOutput(n.ID)
		}
	}
	return g
}

func TestLifetimes(t *testing.T) {
	g, s := figure1Graph()
	lt := Lifetimes(g, s)
	// op4 (step 2) is read by ops 6, 7, 8 (step 3): lifetime (2,3].
	op4 := g.Ops()[3]
	if lt[op4].Birth != 2 || lt[op4].Death != 3 {
		t.Fatalf("op4 lifetime = %+v, want {2 3}", lt[op4])
	}
	// op3 (step 1) read by op5 (step 2) and op8 (step 3): (1,3].
	op3 := g.Ops()[2]
	if lt[op3].Birth != 1 || lt[op3].Death != 3 {
		t.Fatalf("op3 lifetime = %+v, want {1 3}", lt[op3])
	}
	// Outputs live to the end.
	for _, o := range g.Outputs {
		if lt[o].Death != s.Len {
			t.Fatalf("output %d death = %d, want %d", o, lt[o].Death, s.Len)
		}
	}
}

func TestLifetimeOverlap(t *testing.T) {
	a := Lifetime{Birth: 1, Death: 3}
	b := Lifetime{Birth: 3, Death: 5}
	if a.Overlaps(b) {
		t.Fatal("(1,3] and (3,5] must not overlap")
	}
	c := Lifetime{Birth: 2, Death: 4}
	if !a.Overlaps(c) {
		t.Fatal("(1,3] and (2,4] must overlap")
	}
	if !c.Overlaps(a) {
		t.Fatal("overlap must be symmetric")
	}
	// Zero-length lifetime overlaps nothing.
	z := Lifetime{Birth: 2, Death: 2}
	if z.Overlaps(a) || a.Overlaps(z) {
		t.Fatal("empty lifetime should not overlap")
	}
}

func TestFUClass(t *testing.T) {
	if KindAdd.FUClass() != netgen.FUAdd || KindSub.FUClass() != netgen.FUAdd {
		t.Fatal("add/sub must map to the adder class")
	}
	if KindMult.FUClass() != netgen.FUMult {
		t.Fatal("mult must map to the multiplier class")
	}
}

func TestDOTExport(t *testing.T) {
	g, s := figure1Graph()
	dot := g.DOT(s)
	for _, want := range []string{"digraph", "cstep 1", "cstep 3", "->", "diamond"} {
		if !strings.Contains(dot, want) {
			t.Fatalf("DOT output missing %q:\n%s", want, dot)
		}
	}
}

func TestAddOpPanicsOnBadArgs(t *testing.T) {
	g := NewGraph("bad")
	a := g.AddInput("a")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g.AddOp(KindAdd, "x", a, 99)
}
