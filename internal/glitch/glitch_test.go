package glitch

import (
	"math"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/logic"
	"repro/internal/netgen"
	"repro/internal/prob"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestSourceWaveform(t *testing.T) {
	w := SourceWaveform(0.5, 0.5)
	if w.Settle() != 0 || !almost(w.Total(), 0.5, 0) || w.GlitchActivity() != 0 {
		t.Fatalf("unexpected source waveform %+v", w)
	}
	static := SourceWaveform(0.7, 0)
	if len(static.Comps) != 0 {
		t.Fatal("static source must have no components")
	}
}

func TestConstWaveform(t *testing.T) {
	c := ConstWaveform(true)
	if c.P != 1 || c.Total() != 0 {
		t.Fatalf("const waveform wrong: %+v", c)
	}
}

func TestPropagateBalancedInputsNoGlitch(t *testing.T) {
	// Two inputs both switching at time 0: the XOR output can only
	// switch at time 1 — a single functional transition, no glitches.
	ins := []Waveform{SourceWaveform(0.5, 0.5), SourceWaveform(0.5, 0.5)}
	out := NewEstimator().Propagate(logic.TTXor2(), ins)
	if out.Settle() != 1 {
		t.Fatalf("settle = %d, want 1", out.Settle())
	}
	if g := out.GlitchActivity(); g != 0 {
		t.Fatalf("balanced paths should not glitch, got %v", g)
	}
	if !almost(out.Total(), 0.5, 1e-12) {
		t.Fatalf("xor activity = %v, want 0.5", out.Total())
	}
}

func TestPropagateUnbalancedInputsGlitch(t *testing.T) {
	// One input arrives at time 0, the other at time 3: the output can
	// switch at times 1 and 4. The time-4 transition is functional, the
	// time-1 one is a glitch — exactly the unbalanced-path mechanism the
	// paper's mux balancing targets.
	late := Waveform{P: 0.5, Comps: []Component{{Time: 3, S: 0.5}}}
	ins := []Waveform{SourceWaveform(0.5, 0.5), late}
	out := NewEstimator().Propagate(logic.TTXor2(), ins)
	if out.Settle() != 4 {
		t.Fatalf("settle = %d, want 4", out.Settle())
	}
	if out.GlitchActivity() <= 0 {
		t.Fatal("unbalanced paths must produce glitch activity")
	}
	if len(out.Comps) != 2 {
		t.Fatalf("want 2 components, got %+v", out.Comps)
	}
	// Each single-input XOR toggle passes through with its activity.
	if !almost(out.Comps[0].S, 0.5, 1e-12) || !almost(out.Comps[1].S, 0.5, 1e-12) {
		t.Fatalf("xor passthrough activities wrong: %+v", out.Comps)
	}
}

func TestPropagateConstInputsKillActivity(t *testing.T) {
	// AND with a constant 0 never switches.
	ins := []Waveform{SourceWaveform(0.5, 0.5), ConstWaveform(false)}
	out := NewEstimator().Propagate(logic.TTAnd2(), ins)
	if out.Total() != 0 {
		t.Fatalf("AND with const 0 should be static, got %+v", out)
	}
	if out.P != 0 {
		t.Fatalf("P should be 0, got %v", out.P)
	}
}

func TestPropagateTotalMatchesZeroDelayForSingleLevel(t *testing.T) {
	// For a gate whose inputs all arrive at the same time the timed
	// model must agree with the zero-delay Chou–Roy estimate.
	cases := map[string]*bitvec.TruthTable{
		"and":  logic.TTAnd2(),
		"or":   logic.TTOr2(),
		"xor3": logic.TTXor3(),
		"maj3": logic.TTMaj3(),
	}
	for name, tt := range cases {
		n := tt.NumVars()
		ins := make([]Waveform, n)
		p := make([]float64, n)
		s := make([]float64, n)
		for i := range ins {
			ins[i] = SourceWaveform(0.5, 0.5)
			p[i], s[i] = 0.5, 0.5
		}
		timed := NewEstimator().Propagate(tt, ins).Total()
		flat := prob.Characterize(tt).ChouRoyActivity(p, s, prob.NewScratch())
		if !almost(timed, flat, 1e-12) {
			t.Fatalf("%s: timed %v != flat %v", name, timed, flat)
		}
	}
}

func TestEstimateNetworkRippleChainGlitches(t *testing.T) {
	// A ripple-carry adder has progressively later carries: high-order
	// sum bits glitch. The glitch estimate must be strictly positive and
	// grow with width.
	e8 := EstimateNetwork(netgen.AdderNetwork(8), prob.DefaultSources())
	e4 := EstimateNetwork(netgen.AdderNetwork(4), prob.DefaultSources())
	g8 := e8.TotalGlitch(netgen.AdderNetwork(8))
	g4 := e4.TotalGlitch(netgen.AdderNetwork(4))
	_ = g4
	if g8 <= 0 {
		t.Fatal("ripple adder should glitch")
	}
	net8 := netgen.AdderNetwork(8)
	net4 := netgen.AdderNetwork(4)
	ge8 := EstimateNetwork(net8, prob.DefaultSources()).TotalGlitch(net8)
	ge4 := EstimateNetwork(net4, prob.DefaultSources()).TotalGlitch(net4)
	if ge8 <= ge4 {
		t.Fatalf("glitch should grow with adder width: w4=%v w8=%v", ge4, ge8)
	}
}

func TestEstimateNetworkTotalsDecompose(t *testing.T) {
	net := netgen.MultiplierNetwork(4)
	e := EstimateNetwork(net, prob.DefaultSources())
	total := e.TotalActivity(net)
	fn := e.TotalFunctional(net)
	gl := e.TotalGlitch(net)
	if !almost(total, fn+gl, 1e-9) {
		t.Fatalf("total %v != functional %v + glitch %v", total, fn, gl)
	}
	if gl <= 0 {
		t.Fatal("array multiplier should glitch")
	}
}

func TestMultiplierGlitchesMoreThanAdder(t *testing.T) {
	// Per paper motivation: multipliers are glitch hot spots. The array
	// multiplier must produce far more absolute glitch activity than the
	// adder of the same width.
	add := netgen.AdderNetwork(8)
	mul := netgen.MultiplierNetwork(8)
	ea := EstimateNetwork(add, prob.DefaultSources())
	em := EstimateNetwork(mul, prob.DefaultSources())
	if em.TotalGlitch(mul) <= 2*ea.TotalGlitch(add) {
		t.Fatalf("multiplier glitch (%v) should far exceed adder's (%v)",
			em.TotalGlitch(mul), ea.TotalGlitch(add))
	}
}

func TestMuxTreeDepthAffectsGlitch(t *testing.T) {
	// Bigger muxes create deeper, less balanced structures in front of
	// the FU: a (8,1) mux split should glitch more than (4,4)... at the
	// level of the whole partial datapath the imbalance matters. Verify
	// the estimator sees a difference between balanced and unbalanced
	// mux pairs with the same total inputs.
	bal := netgen.PartialDatapathNetwork(netgen.FUAdd, 4, 4, 8)
	unbal := netgen.PartialDatapathNetwork(netgen.FUAdd, 7, 1, 8)
	eb := EstimateNetwork(bal, prob.DefaultSources())
	eu := EstimateNetwork(unbal, prob.DefaultSources())
	balSA := eb.TotalActivity(bal)
	unbalSA := eu.TotalActivity(unbal)
	if balSA >= unbalSA {
		t.Fatalf("balanced muxes should have lower SA: balanced=%v unbalanced=%v", balSA, unbalSA)
	}
}

func BenchmarkEstimateGlitchMult8(b *testing.B) {
	net := netgen.MultiplierNetwork(8)
	src := prob.DefaultSources()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = EstimateNetwork(net, src)
	}
}

func BenchmarkEstimateGlitchPartialDatapath(b *testing.B) {
	net := netgen.PartialDatapathNetwork(netgen.FUMult, 6, 3, 8)
	src := prob.DefaultSources()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = EstimateNetwork(net, src)
	}
}
