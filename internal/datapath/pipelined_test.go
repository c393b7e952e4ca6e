package datapath

import (
	"testing"

	"repro/internal/cdfg"
	"repro/internal/core"
	"repro/internal/regbind"
	"repro/internal/satable"
	"repro/internal/workload"
)

// pipelinedLib: 2-cycle multipliers with initiation interval 1.
func pipelinedLib() cdfg.Library {
	return cdfg.Library{AddLatency: 1, MultLatency: 2, MultPipelined: true}
}

func TestPipelinedSchedulingAllowsBackToBackMults(t *testing.T) {
	// Two independent mults must fit one pipelined unit in consecutive
	// steps (a non-pipelined 2-cycle unit forces a gap).
	g := cdfg.NewGraph("bb")
	a := g.AddInput("a")
	b := g.AddInput("b")
	m1 := g.AddOp(cdfg.KindMult, "m1", a, b)
	m2 := g.AddOp(cdfg.KindMult, "m2", b, a)
	g.MarkOutput(m1)
	g.MarkOutput(m2)
	s, err := cdfg.ListScheduleLat(g, cdfg.ResourceConstraint{Add: 1, Mult: 1}, pipelinedLib())
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := s.Step[m1], s.Step[m2]
	if lo > hi {
		lo, hi = hi, lo
	}
	if hi-lo != 1 {
		t.Fatalf("pipelined unit should take back-to-back starts: steps %d, %d", s.Step[m1], s.Step[m2])
	}
	if err := cdfg.ValidateSchedule(g, s, cdfg.ResourceConstraint{Add: 1, Mult: 1}); err != nil {
		t.Fatal(err)
	}
}

func TestPipelinedDatapathFunctional(t *testing.T) {
	// FIR through a single pipelined multiplier at full rate.
	g := workload.FIR(4)
	rc := cdfg.ResourceConstraint{Add: 1, Mult: 1}
	s, err := cdfg.ListScheduleLat(g, rc, pipelinedLib())
	if err != nil {
		t.Fatal(err)
	}
	rb, err := regbind.Bind(g, s)
	if err != nil {
		t.Fatal(err)
	}
	table := satable.New(4, satable.EstimatorGlitch)
	res, _, err := core.Bind(g, s, rb, rc, core.DefaultOptions(table))
	if err != nil {
		t.Fatal(err)
	}
	// The single multiplier executes all 4 mults.
	for _, fu := range res.FUs {
		if fu.Kind == "mult" && len(fu.Ops) != 4 {
			t.Fatalf("pipelined multiplier carries %d ops, want 4", len(fu.Ops))
		}
	}
	d, err := Elaborate(g, s, rb, res, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Net.Latches) == 0 {
		t.Fatal("no pipeline registers in the elaborated datapath")
	}
	verifyDesign(t, g, d, 20, 31)
}

func TestPipelinedShorterScheduleThanNonPipelined(t *testing.T) {
	g := workload.FIR(8)
	rc := cdfg.ResourceConstraint{Add: 1, Mult: 1}
	nonPiped := cdfg.Library{AddLatency: 1, MultLatency: 2}
	s1, err := cdfg.ListScheduleLat(g, rc, nonPiped)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := cdfg.ListScheduleLat(g, rc, pipelinedLib())
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len >= s1.Len {
		t.Fatalf("pipelining should shorten the schedule: %d vs %d", s2.Len, s1.Len)
	}
}

func TestPipelinedOperandLifetimesShorter(t *testing.T) {
	// Operands of a pipelined mult die at its start, not its completion.
	g := cdfg.NewGraph("olt")
	a := g.AddInput("a")
	b := g.AddInput("b")
	v := g.AddOp(cdfg.KindAdd, "v", a, b)
	m := g.AddOp(cdfg.KindMult, "m", v, b)
	w := g.AddOp(cdfg.KindAdd, "w", m, b)
	g.MarkOutput(w)

	mk := func(lib cdfg.Library) cdfg.Lifetime {
		s, err := cdfg.ListScheduleLat(g, cdfg.ResourceConstraint{Add: 1, Mult: 1}, lib)
		if err != nil {
			t.Fatal(err)
		}
		return cdfg.Lifetimes(g, s)[v]
	}
	piped := mk(pipelinedLib())
	nonPiped := mk(cdfg.Library{AddLatency: 1, MultLatency: 2})
	if piped.Death >= nonPiped.Death {
		t.Fatalf("pipelined operand lifetime (%+v) should end before non-pipelined (%+v)", piped, nonPiped)
	}
}

func TestPipelinedBindingValidates(t *testing.T) {
	g := workload.DCT8()
	rc := cdfg.ResourceConstraint{Add: 2, Mult: 2}
	s, err := cdfg.ListScheduleLat(g, rc, cdfg.Library{AddLatency: 1, MultLatency: 3, MultPipelined: true})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := regbind.Bind(g, s)
	if err != nil {
		t.Fatal(err)
	}
	table := satable.New(4, satable.EstimatorGlitch)
	res, _, err := core.Bind(g, s, rb, rc, core.DefaultOptions(table))
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(g, s, rc); err != nil {
		t.Fatal(err)
	}
	d, err := Elaborate(g, s, rb, res, 4)
	if err != nil {
		t.Fatal(err)
	}
	verifyDesign(t, g, d, 5, 33)
}
