package mapper

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/glitch"
	"repro/internal/logic"
	"repro/internal/netgen"
	"repro/internal/prob"
)

// assertEquivalent checks functional equivalence of the original and
// mapped combinational networks on random vectors (aligned by input
// name and output order).
func assertEquivalent(t *testing.T, orig, mapped *logic.Network, trials int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	if len(orig.Outputs) != len(mapped.Outputs) {
		t.Fatalf("output counts differ: %d vs %d", len(orig.Outputs), len(mapped.Outputs))
	}
	for trial := 0; trial < trials; trial++ {
		in := make([]bool, len(orig.Inputs))
		for i := range in {
			in[i] = rng.Intn(2) == 0
		}
		in2 := make([]bool, len(mapped.Inputs))
		for i, id := range mapped.Inputs {
			name := mapped.Node(id).Name
			oid, ok := orig.FindNode(name)
			if !ok {
				t.Fatalf("mapped input %q missing from original", name)
			}
			for j, id1 := range orig.Inputs {
				if id1 == oid {
					in2[i] = in[j]
				}
			}
		}
		st1 := orig.InitialLatchState()
		st2 := mapped.InitialLatchState()
		o1 := orig.OutputValues(orig.Eval(in, st1))
		o2 := mapped.OutputValues(mapped.Eval(in2, st2))
		for i := range o1 {
			if o1[i] != o2[i] {
				t.Fatalf("trial %d: output %q differs after mapping", trial, orig.Outputs[i].Name)
			}
		}
	}
}

func TestMapAdderEquivalence(t *testing.T) {
	net := netgen.AdderNetwork(8)
	res, err := Map(net, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	assertEquivalent(t, net, res.Mapped, 200, 1)
}

func TestMapMultiplierEquivalence(t *testing.T) {
	net := netgen.MultiplierNetwork(6)
	res, err := Map(net, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	assertEquivalent(t, net, res.Mapped, 200, 2)
}

func TestMapPartialDatapathEquivalence(t *testing.T) {
	net := netgen.PartialDatapathNetwork(netgen.FUAdd, 3, 2, 6)
	res, err := Map(net, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	assertEquivalent(t, net, res.Mapped, 200, 3)
}

func TestMapReducesGateCount(t *testing.T) {
	// 4-LUT mapping must pack multiple 2/3-input gates per LUT.
	net := netgen.AdderNetwork(8)
	res, err := Map(net, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.LUTs >= net.NumGates() {
		t.Fatalf("mapping should reduce node count: %d LUTs vs %d gates", res.LUTs, net.NumGates())
	}
	if res.LUTs != res.Mapped.NumGates() {
		t.Fatalf("LUTs field (%d) disagrees with mapped network (%d)", res.LUTs, res.Mapped.NumGates())
	}
}

func TestMapDepthModeMinimizesDepth(t *testing.T) {
	net := netgen.MultiplierNetwork(8)
	optD := DefaultOptions()
	optD.Mode = ModeDepth
	optP := DefaultOptions()
	resD, err := Map(net, optD)
	if err != nil {
		t.Fatal(err)
	}
	resP, err := Map(net, optP)
	if err != nil {
		t.Fatal(err)
	}
	if resD.Depth > resP.Depth {
		t.Fatalf("depth mode (%d) deeper than power mode (%d)", resD.Depth, resP.Depth)
	}
	if resD.Depth > net.Depth() {
		t.Fatalf("mapped depth (%d) exceeds gate-level depth (%d)", resD.Depth, net.Depth())
	}
}

func TestMapPowerModeLowersSA(t *testing.T) {
	// The power-driven cover should have no more estimated SA than the
	// area-driven cover on a glitchy structure.
	net := netgen.MultiplierNetwork(8)
	optP := DefaultOptions()
	optA := DefaultOptions()
	optA.Mode = ModeArea
	resP, err := Map(net, optP)
	if err != nil {
		t.Fatal(err)
	}
	resA, err := Map(net, optA)
	if err != nil {
		t.Fatal(err)
	}
	if resP.EstSA > resA.EstSA*1.05 {
		t.Fatalf("power mode SA %v should not exceed area mode SA %v", resP.EstSA, resA.EstSA)
	}
}

func TestMapRespectsK(t *testing.T) {
	net := netgen.MultiplierNetwork(6)
	for _, k := range []int{3, 4, 5, 6} {
		opt := DefaultOptions()
		opt.K = k
		res, err := Map(net, opt)
		if err != nil {
			t.Fatal(err)
		}
		if s := res.Mapped.Stats(); s.MaxFanin > k {
			t.Fatalf("K=%d violated: max fanin %d", k, s.MaxFanin)
		}
		assertEquivalent(t, net, res.Mapped, 50, int64(k))
	}
}

func TestMapSequentialNetwork(t *testing.T) {
	// Registered adder: r <= a + b; y = r + a.
	net := logic.NewNetwork("seqadd")
	w := 4
	a := make([]int, w)
	b := make([]int, w)
	for i := 0; i < w; i++ {
		a[i] = net.AddInput(name("a", i))
	}
	for i := 0; i < w; i++ {
		b[i] = net.AddInput(name("b", i))
	}
	s1, _ := netgen.BuildAdder(net, "s1_", a, b, -1)
	r := netgen.BuildRegister(net, "r_", s1, false)
	s2, _ := netgen.BuildAdder(net, "s2_", r, a, -1)
	for i, id := range s2 {
		net.MarkOutput(name("y", i), id)
	}
	res, err := Map(net, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Mapped.Latches) != w {
		t.Fatalf("latches lost in mapping: %d, want %d", len(res.Mapped.Latches), w)
	}
	// Two-cycle simulation equivalence.
	rng := rand.New(rand.NewSource(9))
	st1 := net.InitialLatchState()
	st2 := res.Mapped.InitialLatchState()
	for cyc := 0; cyc < 20; cyc++ {
		in := make([]bool, len(net.Inputs))
		for i := range in {
			in[i] = rng.Intn(2) == 0
		}
		v1 := net.Eval(in, st1)
		v2 := res.Mapped.Eval(alignInputs(t, net, res.Mapped, in), st2)
		o1 := net.OutputValues(v1)
		o2 := res.Mapped.OutputValues(v2)
		for i := range o1 {
			if o1[i] != o2[i] {
				t.Fatalf("cycle %d output %d differs", cyc, i)
			}
		}
		st1 = net.NextLatchState(v1)
		st2 = res.Mapped.NextLatchState(v2)
	}
}

func alignInputs(t *testing.T, orig, mapped *logic.Network, in []bool) []bool {
	t.Helper()
	out := make([]bool, len(mapped.Inputs))
	for i, id := range mapped.Inputs {
		nm := mapped.Node(id).Name
		for j, id1 := range orig.Inputs {
			if orig.Node(id1).Name == nm {
				out[i] = in[j]
			}
		}
	}
	return out
}

func name(base string, i int) string {
	return base + string(rune('0'+i))
}

func TestMapRejectsBadOptions(t *testing.T) {
	net := netgen.AdderNetwork(2)
	// K outside [MinK, MaxK] yields the structured KRangeError so callers
	// (flag parsing, arch validation) can surface the supported range.
	for _, k := range []int{1, 7} {
		opt := DefaultOptions()
		opt.K = k
		_, err := Map(net, opt)
		if err == nil {
			t.Fatalf("K=%d should be rejected", k)
		}
		var kerr *KRangeError
		if !errors.As(err, &kerr) || kerr.K != k {
			t.Fatalf("K=%d: want *KRangeError carrying K, got %v", k, err)
		}
	}
}

func TestMapEstimatesDecompose(t *testing.T) {
	net := netgen.MultiplierNetwork(6)
	res, err := Map(net, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.EstSA <= 0 || res.EstGlitch < 0 || res.EstGlitch > res.EstSA {
		t.Fatalf("inconsistent SA estimates: total=%v glitch=%v", res.EstSA, res.EstGlitch)
	}
}

// chainedMacroNet feeds tagged W-bit adder and multiplier macros from
// tagged 3-input mux trees, so those macros read fanins whose
// waveforms switch after time 0, unlike the source waveforms their
// canonical covers are computed under; untagged XOR gates then read
// the macros' outputs.
func chainedMacroNet(w int) *logic.Network {
	net := logic.NewNetwork(fmt.Sprintf("chained_w%d", w))
	port := func(side string) []int {
		sel := []int{net.AddInput(side + "s0"), net.AddInput(side + "s1")}
		data := make([][]int, 3)
		for i := range data {
			for b := 0; b < w; b++ {
				data[i] = append(data[i], net.AddInput(fmt.Sprintf("%s%d_%d", side, i, b)))
			}
		}
		return netgen.BuildMux(net, side+"mux_", sel, data)
	}
	l, r := port("L"), port("R")
	sum := netgen.BuildAdderArch(net, netgen.AdderRipple, "add_", l, r)
	prod := netgen.BuildMultArch(net, netgen.MultArray, "mult_", l, sum)
	for i, id := range prod {
		x := net.AddGate("", logic.TTXor2(), id, sum[i%w])
		net.MarkOutput(fmt.Sprintf("P%d", i), x)
	}
	return net
}

// TestEstimateMatchesMappedNetwork checks that the cover's SA, summed
// from the forward pass's waveforms with stitched macro gates and their
// downstream LUTs propagated again, equals glitch.EstimateNetwork over
// the mapped network to the bit, in every mode, at K 4 and 6, flat and
// with macro covering forced on, serial and level-parallel.
func TestEstimateMatchesMappedNetwork(t *testing.T) {
	var nets []*logic.Network
	for seed := int64(0); seed < 20; seed++ {
		nets = append(nets, formalNet(seed))
	}
	for seed := int64(0); seed < 60; seed++ {
		nets = append(nets, randomNet(seed))
	}
	nets = append(nets,
		netgen.MuxNetwork(6, 8), netgen.MuxNetwork(8, 8),
		netgen.AdderNetwork(8),
		netgen.MultiplierNetwork(5), netgen.MultiplierNetwork(8),
		netgen.PartialDatapathNetwork(netgen.FUAdd, 3, 2, 8),
		netgen.PartialDatapathNetwork(netgen.FUMult, 2, 3, 8),
		chainedMacroNet(4),
	)
	src := prob.DefaultSources()
	mappings, stitched := 0, 0
	for ni, net := range nets {
		for _, k := range []int{4, 6} {
			for _, mode := range []Mode{ModePower, ModeDepth, ModeArea} {
				for _, minGates := range []int{DefaultMacroMinGates, 0} {
					for _, jobs := range []int{1, 3} {
						opt := Options{K: k, Mode: mode, Jobs: jobs}
						res, err := mapNet(net, opt, minGates)
						if err != nil {
							t.Fatalf("net %d K=%d %v macro threshold %d jobs %d: %v", ni, k, mode, minGates, jobs, err)
						}
						est := glitch.EstimateNetwork(res.Mapped, src)
						wantSA, wantGlitch := est.TotalActivity(res.Mapped), est.TotalGlitch(res.Mapped)
						if math.Float64bits(res.EstSA) != math.Float64bits(wantSA) ||
							math.Float64bits(res.EstGlitch) != math.Float64bits(wantGlitch) {
							t.Fatalf("net %d (%s) K=%d %v macro threshold %d jobs %d: EstSA %v EstGlitch %v, mapped network estimates %v %v",
								ni, net.Name, k, mode, minGates, jobs, res.EstSA, res.EstGlitch, wantSA, wantGlitch)
						}
						mappings++
						if res.MacroInstances > 0 {
							stitched++
						}
					}
				}
			}
		}
	}
	if stitched == 0 {
		t.Fatalf("none of %d mappings stitched a macro cover", mappings)
	}
	t.Logf("%d mappings, %d with stitched macro covers", mappings, stitched)
}

func BenchmarkMapMult8Power(b *testing.B) {
	net := netgen.MultiplierNetwork(8)
	opt := DefaultOptions()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Map(net, opt); err != nil {
			b.Fatal(err)
		}
	}
}
