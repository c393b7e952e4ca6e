package prob

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bitvec"
	"repro/internal/logic"
	"repro/internal/netgen"
)

func and2() *bitvec.TruthTable { return logic.TTAnd2() }
func or2() *bitvec.TruthTable  { return logic.TTOr2() }
func xor2() *bitvec.TruthTable { return logic.TTXor2() }

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestSignalProbBasicGates(t *testing.T) {
	p := []float64{0.5, 0.5}
	if got := Characterize(and2()).SignalProb(p, NewScratch()); !almost(got, 0.25, 1e-12) {
		t.Fatalf("P(and) = %v, want 0.25", got)
	}
	if got := Characterize(or2()).SignalProb(p, NewScratch()); !almost(got, 0.75, 1e-12) {
		t.Fatalf("P(or) = %v, want 0.75", got)
	}
	if got := Characterize(xor2()).SignalProb(p, NewScratch()); !almost(got, 0.5, 1e-12) {
		t.Fatalf("P(xor) = %v, want 0.5", got)
	}
	// Biased inputs: P(a AND b) = pa*pb.
	if got := Characterize(and2()).SignalProb([]float64{0.3, 0.9}, NewScratch()); !almost(got, 0.27, 1e-12) {
		t.Fatalf("P(and biased) = %v, want 0.27", got)
	}
}

func TestNajmActivityXorSumsInputs(t *testing.T) {
	// For XOR every Boolean difference is the constant 1, so Najm's
	// formula yields s(a)+s(b) (the known overestimate).
	got := Characterize(xor2()).NajmActivity([]float64{0.5, 0.5}, []float64{0.5, 0.5}, NewScratch())
	if !almost(got, 1.0, 1e-12) {
		t.Fatalf("Najm xor activity = %v, want 1.0", got)
	}
}

func TestChouRoyXorAccountsForSimultaneousSwitching(t *testing.T) {
	// Exact for independent inputs: output toggles iff exactly one input
	// toggles: s = s_a(1-s_b) + s_b(1-s_a) = 0.5 at s=0.5 each.
	got := Characterize(xor2()).ChouRoyActivity([]float64{0.5, 0.5}, []float64{0.5, 0.5}, NewScratch())
	if !almost(got, 0.5, 1e-12) {
		t.Fatalf("ChouRoy xor activity = %v, want 0.5", got)
	}
	najm := Characterize(xor2()).NajmActivity([]float64{0.5, 0.5}, []float64{0.5, 0.5}, NewScratch())
	if got >= najm {
		t.Fatalf("ChouRoy (%v) should be below Najm (%v) for xor", got, najm)
	}
}

func TestChouRoyAndGateExact(t *testing.T) {
	// Monte Carlo reference for AND with p=0.5, s=0.5 inputs.
	got := Characterize(and2()).ChouRoyActivity([]float64{0.5, 0.5}, []float64{0.5, 0.5}, NewScratch())
	ref := monteCarloActivity(t, and2(), []float64{0.5, 0.5}, []float64{0.5, 0.5}, 200000, 11)
	if !almost(got, ref, 0.01) {
		t.Fatalf("ChouRoy and activity = %v, Monte Carlo = %v", got, ref)
	}
}

// monteCarloActivity simulates independent two-state input processes and
// measures the output toggle rate — the ground truth that Chou–Roy's
// analytic model should match for independent inputs.
func monteCarloActivity(t *testing.T, f *bitvec.TruthTable, p, s []float64, steps int, seed int64) float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := f.NumVars()
	state := make([]bool, n)
	for i := range state {
		state[i] = rng.Float64() < p[i]
	}
	assign := func() uint {
		var a uint
		for i, v := range state {
			if v {
				a |= 1 << uint(i)
			}
		}
		return a
	}
	prev := f.Get(assign())
	toggles := 0
	for step := 0; step < steps; step++ {
		for i := range state {
			// Transition probabilities that preserve marginal p with
			// unconditional toggle rate s: P(0->1) = s/(2(1-p)),
			// P(1->0) = s/(2p).
			var pt float64
			if state[i] {
				pt = s[i] / (2 * p[i])
			} else {
				pt = s[i] / (2 * (1 - p[i]))
			}
			if rng.Float64() < pt {
				state[i] = !state[i]
			}
		}
		cur := f.Get(assign())
		if cur != prev {
			toggles++
		}
		prev = cur
	}
	return float64(toggles) / float64(steps)
}

func TestChouRoyMatchesMonteCarloOnRandomFunctions(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 5; trial++ {
		n := 2 + rng.Intn(2)
		f := bitvec.New(n)
		for m := 0; m < 1<<n; m++ {
			if rng.Intn(2) == 0 {
				f.Set(uint(m), true)
			}
		}
		p := make([]float64, n)
		s := make([]float64, n)
		for i := range p {
			p[i] = 0.2 + 0.6*rng.Float64()
			s[i] = 0.5 * math.Min(p[i], 1-p[i]) * 2 * rng.Float64()
		}
		got := Characterize(f).ChouRoyActivity(p, s, NewScratch())
		ref := monteCarloActivity(t, f, p, s, 300000, int64(trial+100))
		if !almost(got, ref, 0.015) {
			t.Fatalf("trial %d (f=%s): ChouRoy %v vs MC %v", trial, f, got, ref)
		}
	}
}

func TestPairProbBounds(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := 1 + int(nRaw%4)
		rng := rand.New(rand.NewSource(seed))
		tt := bitvec.New(n)
		for m := 0; m < 1<<n; m++ {
			if rng.Intn(2) == 0 {
				tt.Set(uint(m), true)
			}
		}
		p := make([]float64, n)
		s := make([]float64, n)
		for i := range p {
			p[i] = rng.Float64()
			s[i] = rng.Float64()
		}
		pp := Characterize(tt).PairProb(p, s, NewScratch())
		py := Characterize(tt).SignalProb(p, NewScratch())
		// 0 <= P(y(t)y(t+T)) <= P(y).
		return pp >= -1e-9 && pp <= py+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestActivityNonNegativeAndBounded(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := 1 + int(nRaw%4)
		rng := rand.New(rand.NewSource(seed))
		tt := bitvec.New(n)
		for m := 0; m < 1<<n; m++ {
			if rng.Intn(2) == 0 {
				tt.Set(uint(m), true)
			}
		}
		p := make([]float64, n)
		s := make([]float64, n)
		for i := range p {
			p[i] = rng.Float64()
			s[i] = rng.Float64()
		}
		a := Characterize(tt).ChouRoyActivity(p, s, NewScratch())
		return a >= 0 && a <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestConstantFunctionNeverSwitches(t *testing.T) {
	for _, v := range []bool{false, true} {
		tt := bitvec.Const(3, v)
		p := []float64{0.5, 0.5, 0.5}
		s := []float64{0.5, 0.5, 0.5}
		if a := Characterize(tt).ChouRoyActivity(p, s, NewScratch()); a != 0 {
			t.Fatalf("constant %v: activity %v, want 0", v, a)
		}
		if a := Characterize(tt).NajmActivity(p, s, NewScratch()); a != 0 {
			t.Fatalf("constant %v: Najm activity %v, want 0", v, a)
		}
	}
}

func TestStaticInputsMeanNoSwitching(t *testing.T) {
	a := Characterize(and2()).ChouRoyActivity([]float64{0.5, 0.5}, []float64{0, 0}, NewScratch())
	if a != 0 {
		t.Fatalf("no input switching should give 0, got %v", a)
	}
}

func TestEstimateNetworkFullAdder(t *testing.T) {
	net := logic.NewNetwork("fa")
	a := net.AddInput("a")
	b := net.AddInput("b")
	cin := net.AddInput("cin")
	sum := net.AddGate("sum", logic.TTXor3(), a, b, cin)
	cout := net.AddGate("cout", logic.TTMaj3(), a, b, cin)
	net.MarkOutput("sum", sum)
	net.MarkOutput("cout", cout)

	e := EstimateNetwork(net, MethodChouRoy, DefaultSources())
	if !almost(e.P[sum], 0.5, 1e-12) {
		t.Fatalf("P(sum) = %v, want 0.5", e.P[sum])
	}
	if !almost(e.P[cout], 0.5, 1e-12) {
		t.Fatalf("P(cout) = %v, want 0.5", e.P[cout])
	}
	if e.S[sum] <= 0 || e.S[cout] <= 0 {
		t.Fatal("activities should be positive")
	}
	total := e.TotalActivity(net)
	if !almost(total, e.S[sum]+e.S[cout], 1e-12) {
		t.Fatalf("TotalActivity = %v, want %v", total, e.S[sum]+e.S[cout])
	}
}

func TestEstimateNetworkConstAndLatch(t *testing.T) {
	net := logic.NewNetwork("m")
	q := net.AddLatch("q", false)
	c1 := net.AddConst("one", true)
	g := net.AddGate("g", logic.TTAnd2(), q, c1)
	net.ConnectLatch(q, g)
	net.MarkOutput("y", g)

	e := EstimateNetwork(net, MethodChouRoy, DefaultSources())
	if e.P[c1] != 1 || e.S[c1] != 0 {
		t.Fatalf("const estimate wrong: P=%v S=%v", e.P[c1], e.S[c1])
	}
	if e.P[q] != 0.5 || e.S[q] != 0.5 {
		t.Fatalf("latch source estimate wrong: P=%v S=%v", e.P[q], e.S[q])
	}
	// AND with constant 1 passes the latch signal through.
	if !almost(e.S[g], 0.5, 1e-12) {
		t.Fatalf("S(and with const 1) = %v, want 0.5", e.S[g])
	}
}

func TestNajmOverestimatesOnAdder(t *testing.T) {
	net := netgen.AdderNetwork(8)
	najm := EstimateNetwork(net, MethodNajm, DefaultSources()).TotalActivity(net)
	cr := EstimateNetwork(net, MethodChouRoy, DefaultSources()).TotalActivity(net)
	if najm <= cr {
		t.Fatalf("expected Najm (%v) > ChouRoy (%v) on a carry chain", najm, cr)
	}
}

func BenchmarkEstimateAdder8ChouRoy(b *testing.B) {
	net := netgen.AdderNetwork(8)
	src := DefaultSources()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = EstimateNetwork(net, MethodChouRoy, src)
	}
}

func BenchmarkEstimateMult8ChouRoy(b *testing.B) {
	net := netgen.MultiplierNetwork(8)
	src := DefaultSources()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = EstimateNetwork(net, MethodChouRoy, src)
	}
}
