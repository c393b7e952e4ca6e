package lopass

import (
	"testing"

	"repro/internal/binding"
	"repro/internal/cdfg"
	"repro/internal/netgen"
	"repro/internal/regbind"
	"repro/internal/workload"
)

func figure1() (*cdfg.Graph, *cdfg.Schedule) {
	g := cdfg.NewGraph("fig1")
	in := make([]int, 6)
	for i := range in {
		in[i] = g.AddInput("")
	}
	op1 := g.AddOp(cdfg.KindAdd, "1", in[0], in[1])
	op2 := g.AddOp(cdfg.KindAdd, "2", in[1], in[2])
	op3 := g.AddOp(cdfg.KindMult, "3", in[3], in[4])
	op4 := g.AddOp(cdfg.KindAdd, "4", op1, op2)
	op5 := g.AddOp(cdfg.KindMult, "5", op3, in[5])
	op6 := g.AddOp(cdfg.KindAdd, "6", op4, op5)
	op7 := g.AddOp(cdfg.KindMult, "7", op5, op4)
	op8 := g.AddOp(cdfg.KindAdd, "8", op4, op3)
	g.MarkOutput(op6)
	g.MarkOutput(op7)
	g.MarkOutput(op8)
	s := &cdfg.Schedule{Step: make([]int, len(g.Nodes)), Len: 3}
	s.Step[op1], s.Step[op2], s.Step[op3] = 1, 1, 1
	s.Step[op4], s.Step[op5] = 2, 2
	s.Step[op6], s.Step[op7], s.Step[op8] = 3, 3, 3
	return g, s
}

func TestBindFigure1(t *testing.T) {
	g, s := figure1()
	rb, err := regbind.Bind(g, s)
	if err != nil {
		t.Fatal(err)
	}
	rc := cdfg.ResourceConstraint{Add: 2, Mult: 1}
	res, rep, err := Bind(g, s, rb, rc, Options{PortSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(g, s, rc); err != nil {
		t.Fatal(err)
	}
	counts := res.Counts()
	if counts[netgen.FUAdd] > 2 || counts[netgen.FUMult] > 1 {
		t.Fatalf("allocation %v violates constraint", counts)
	}
	if rep.FlowCost < 0 {
		t.Fatalf("negative real cost %v", rep.FlowCost)
	}
}

func TestBindInfeasibleConstraint(t *testing.T) {
	g, s := figure1()
	rb, err := regbind.Bind(g, s)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Bind(g, s, rb, cdfg.ResourceConstraint{Add: 1, Mult: 1}, Options{}); err == nil {
		t.Fatal("two same-step adds cannot fit one adder")
	}
}

func TestBindAllBenchmarks(t *testing.T) {
	for _, p := range workload.Benchmarks {
		g := workload.Generate(p)
		s, err := cdfg.ListSchedule(g, p.RC)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		rb, err := regbind.Bind(g, s)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		res, _, err := Bind(g, s, rb, p.RC, Options{PortSeed: 1})
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if err := res.Validate(g, s, p.RC); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
	}
}

func TestSharedPortAssignmentHonored(t *testing.T) {
	g, s := figure1()
	rb, err := regbind.Bind(g, s)
	if err != nil {
		t.Fatal(err)
	}
	swap := binding.RandomPortAssignment(g, 7)
	res, _, err := Bind(g, s, rb, cdfg.ResourceConstraint{Add: 2, Mult: 1}, Options{Swap: swap})
	if err != nil {
		t.Fatal(err)
	}
	for i := range swap {
		if res.SwapPorts[i] != swap[i] {
			t.Fatal("port assignment not honored")
		}
	}
}

func TestDeterministic(t *testing.T) {
	g, s := figure1()
	rb, err := regbind.Bind(g, s)
	if err != nil {
		t.Fatal(err)
	}
	rc := cdfg.ResourceConstraint{Add: 2, Mult: 1}
	r1, _, err := Bind(g, s, rb, rc, Options{PortSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	r2, _, err := Bind(g, s, rb, rc, Options{PortSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.FUOf {
		if r1.FUOf[i] != r2.FUOf[i] {
			t.Fatal("nondeterministic binding")
		}
	}
}

func TestChainCostCountsNewSources(t *testing.T) {
	g := cdfg.NewGraph("cc")
	a := g.AddInput("a")
	b := g.AddInput("b")
	c := g.AddInput("c")
	op1 := g.AddOp(cdfg.KindAdd, "op1", a, b)
	op2 := g.AddOp(cdfg.KindAdd, "op2", a, b)
	op3 := g.AddOp(cdfg.KindAdd, "op3", op1, c)
	g.MarkOutput(op2)
	g.MarkOutput(op3)
	s, err := cdfg.ListSchedule(g, cdfg.ResourceConstraint{Add: 1, Mult: 1})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := regbind.Bind(g, s)
	if err != nil {
		t.Fatal(err)
	}
	_ = rb
	res := binding.NewResult(g) // no swaps
	// op1 and op2 read the same values: chaining them is free.
	if c := chainCost(g, res, op1, op2); c != 0 {
		t.Fatalf("identical sources should cost 0, got %v", c)
	}
	// op1 -> op3 changes both sources.
	if c := chainCost(g, res, op1, op3); c == 0 {
		t.Fatal("new sources should cost > 0")
	}
}

// TestBindRejectsShortSchedule checks that a schedule with fewer
// entries than the graph has nodes is reported as an error.
func TestBindRejectsShortSchedule(t *testing.T) {
	g, s := figure1()
	rb, err := regbind.Bind(g, s)
	if err != nil {
		t.Fatal(err)
	}
	short := &cdfg.Schedule{Step: s.Step[:2], Len: s.Len}
	if _, _, err := Bind(g, short, rb, cdfg.ResourceConstraint{Add: 2, Mult: 1}, Options{}); err == nil {
		t.Fatal("schedule shorter than the graph accepted")
	}
}
