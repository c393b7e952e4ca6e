package core

import (
	"testing"

	"repro/internal/binding"
	"repro/internal/cdfg"
	"repro/internal/netgen"
	"repro/internal/regbind"
	"repro/internal/satable"
	"repro/internal/workload"
)

// sharedTable keeps SA-table computations across tests (entries are
// deterministic, so sharing is safe and fast).
var sharedTable = satable.New(4, satable.EstimatorGlitch)

// figure1 builds the paper's Figure 1 CDFG and schedule.
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

func bindFigure1(t *testing.T, rc cdfg.ResourceConstraint, alpha float64) (*binding.Result, *Report) {
	t.Helper()
	g, s := figure1()
	rb, err := regbind.Bind(g, s)
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions(sharedTable)
	opt.Alpha = alpha
	res, rep, err := Bind(g, s, rb, rc, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(g, s, rc); err != nil {
		t.Fatal(err)
	}
	return res, rep
}

// TestFigure1Example reproduces the paper's worked example: the minimum
// allocation of the Figure 1 CDFG is 2 adders and 1 multiplier, reached
// through iterative bipartite matching.
func TestFigure1Example(t *testing.T) {
	rc := cdfg.ResourceConstraint{Add: 2, Mult: 1}
	res, rep := bindFigure1(t, rc, 0.5)
	counts := res.Counts()
	if counts[netgen.FUAdd] != 2 || counts[netgen.FUMult] != 1 {
		t.Fatalf("allocation = %v, want 2 adders + 1 multiplier", counts)
	}
	if rep.Iterations < 1 {
		t.Fatal("expected at least one matching iteration")
	}
	// All three multiplications share the single multiplier.
	for _, fu := range res.FUs {
		if fu.Kind == netgen.FUMult && len(fu.Ops) != 3 {
			t.Fatalf("multiplier carries %d ops, want 3", len(fu.Ops))
		}
	}
}

// TestTheorem1MinimumConstraint verifies the Theorem 1 guarantee on the
// benchmarks: binding always reaches the per-step-density lower bound.
func TestTheorem1MinimumConstraint(t *testing.T) {
	for _, name := range []string{"pr", "wang"} {
		p, _ := workload.ByName(name)
		g := workload.Generate(p)
		s, err := cdfg.ListSchedule(g, p.RC)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := regbind.Bind(g, s)
		if err != nil {
			t.Fatal(err)
		}
		min := cdfg.MinResources(g, s)
		res, _, err := Bind(g, s, rb, min, DefaultOptions(sharedTable))
		if err != nil {
			t.Fatalf("%s: minimum constraint not met: %v", name, err)
		}
		counts := res.Counts()
		if counts[netgen.FUAdd] > min.Add || counts[netgen.FUMult] > min.Mult {
			t.Fatalf("%s: allocation %v exceeds minimum %+v", name, counts, min)
		}
	}
}

func TestLooserConstraintStopsEarly(t *testing.T) {
	rc := cdfg.ResourceConstraint{Add: 3, Mult: 2}
	res, _ := bindFigure1(t, rc, 0.5)
	counts := res.Counts()
	// Merging stops exactly at the constraint, not below it.
	if counts[netgen.FUAdd] != 3 || counts[netgen.FUMult] != 2 {
		t.Fatalf("allocation = %v, want exactly {add:3 mult:2}", counts)
	}
}

func TestUnreachableConstraintFails(t *testing.T) {
	g, s := figure1()
	rb, err := regbind.Bind(g, s)
	if err != nil {
		t.Fatal(err)
	}
	// Step 1 has two adds: one adder is impossible.
	_, _, err = Bind(g, s, rb, cdfg.ResourceConstraint{Add: 1, Mult: 1}, DefaultOptions(sharedTable))
	if err == nil {
		t.Fatal("impossible constraint should fail")
	}
}

func TestAlphaExtremesProduceValidBindings(t *testing.T) {
	for _, alpha := range []float64{0, 0.25, 0.5, 0.75, 1} {
		res, _ := bindFigure1(t, cdfg.ResourceConstraint{Add: 2, Mult: 1}, alpha)
		if len(res.FUs) != 3 {
			t.Fatalf("alpha=%v: %d FUs, want 3", alpha, len(res.FUs))
		}
	}
}

func TestInvalidOptionsRejected(t *testing.T) {
	g, s := figure1()
	rb, err := regbind.Bind(g, s)
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions(sharedTable)
	opt.Alpha = 1.5
	if _, _, err := Bind(g, s, rb, cdfg.ResourceConstraint{Add: 2, Mult: 1}, opt); err == nil {
		t.Fatal("alpha out of range accepted")
	}
	opt = DefaultOptions(nil)
	if _, _, err := Bind(g, s, rb, cdfg.ResourceConstraint{Add: 2, Mult: 1}, opt); err == nil {
		t.Fatal("nil table accepted")
	}
}

func TestDeterministicBinding(t *testing.T) {
	r1, _ := bindFigure1(t, cdfg.ResourceConstraint{Add: 2, Mult: 1}, 0.5)
	r2, _ := bindFigure1(t, cdfg.ResourceConstraint{Add: 2, Mult: 1}, 0.5)
	if len(r1.FUs) != len(r2.FUs) {
		t.Fatal("nondeterministic FU count")
	}
	for i := range r1.FUOf {
		if r1.FUOf[i] != r2.FUOf[i] {
			t.Fatal("nondeterministic binding")
		}
	}
}

// TestMuxBalancingEffect: with alpha=0.5 the muxDiff statistics should
// not exceed those at alpha=1 on a benchmark-sized graph (Table 4's
// ordering), and the SA table must be exercised.
func TestMuxBalancingEffect(t *testing.T) {
	p, _ := workload.ByName("pr")
	g := workload.Generate(p)
	s, err := cdfg.ListSchedule(g, p.RC)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := regbind.Bind(g, s)
	if err != nil {
		t.Fatal(err)
	}
	swap := binding.RandomPortAssignment(g, 1)

	run := func(alpha float64) binding.MuxStats {
		opt := DefaultOptions(sharedTable)
		opt.Alpha = alpha
		opt.Swap = swap
		res, _, err := Bind(g, s, rb, p.RC, opt)
		if err != nil {
			t.Fatal(err)
		}
		return binding.ComputeMuxStats(g, rb, res)
	}
	bal := run(0.5)
	noBal := run(1.0)
	if bal.DiffMean > noBal.DiffMean+1e-9 {
		t.Fatalf("alpha=0.5 muxDiff mean %v should not exceed alpha=1's %v", bal.DiffMean, noBal.DiffMean)
	}
	// Same FU count in both (paper: same number of muxes allocated).
	if bal.NumFUs != noBal.NumFUs {
		t.Fatalf("FU counts differ: %d vs %d", bal.NumFUs, noBal.NumFUs)
	}
}

func TestReportFieldsPopulated(t *testing.T) {
	_, rep := bindFigure1(t, cdfg.ResourceConstraint{Add: 2, Mult: 1}, 0.5)
	if rep.EdgesScored == 0 {
		t.Fatal("no edges scored")
	}
	if rep.Runtime <= 0 {
		t.Fatal("runtime not measured")
	}
}

func BenchmarkBindPr(b *testing.B) {
	p, _ := workload.ByName("pr")
	g := workload.Generate(p)
	s, err := cdfg.ListSchedule(g, p.RC)
	if err != nil {
		b.Fatal(err)
	}
	rb, err := regbind.Bind(g, s)
	if err != nil {
		b.Fatal(err)
	}
	opt := DefaultOptions(sharedTable)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Bind(g, s, rb, p.RC, opt); err != nil {
			b.Fatal(err)
		}
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
	if _, _, err := Bind(g, short, rb, cdfg.ResourceConstraint{Add: 2, Mult: 1}, DefaultOptions(sharedTable)); err == nil {
		t.Fatal("schedule shorter than the graph accepted")
	}
}
