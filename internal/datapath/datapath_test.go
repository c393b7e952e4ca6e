package datapath

import (
	"math/rand"
	"testing"

	"repro/internal/binding"
	"repro/internal/bitvec"
	"repro/internal/cdfg"
	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/lopass"
	"repro/internal/regbind"
	"repro/internal/satable"
	"repro/internal/sim"
	"repro/internal/workload"
)

var testTable = satable.New(4, satable.EstimatorGlitch)

// bindWithHLPower runs the full front end on a graph.
func bindWithHLPower(t *testing.T, g *cdfg.Graph, rc cdfg.ResourceConstraint) (*cdfg.Schedule, *regbind.Binding, *binding.Result) {
	t.Helper()
	s, err := cdfg.ListSchedule(g, rc)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := regbind.Bind(g, s)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := core.Bind(g, s, rb, rc, core.DefaultOptions(testTable))
	if err != nil {
		t.Fatal(err)
	}
	return s, rb, res
}

// verifyDesign simulates the elaborated datapath with constant input
// pads and checks every primary output against the CDFG arithmetic
// reference during the last control step of a settled iteration.
func verifyDesign(t *testing.T, g *cdfg.Graph, d *Design, trials int, seed int64) {
	t.Helper()
	simr, err := sim.New(d.Net)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for trial := 0; trial < trials; trial++ {
		values := make([]uint64, len(g.Inputs))
		for i := range values {
			values[i] = uint64(rng.Intn(1 << d.Width))
		}
		in := d.SetInputVector(g, values)
		ref := cdfg.Eval(g, values, d.Width)

		// Run enough full iterations for inputs to propagate, then
		// sample during the last step (counter == Len-1).
		sampled := false
		for cyc := 0; cyc < 3*d.StepCount+2; cyc++ {
			simr.Step(in)
			if cyc >= 2*d.StepCount && d.CounterValue(simr.Values()) == d.StepCount-1 {
				for i, o := range g.Outputs {
					got := d.ReadOutput(simr.Values(), i)
					if got != ref[o] {
						t.Fatalf("trial %d output %d: datapath %d, reference %d", trial, i, got, ref[o])
					}
				}
				sampled = true
				break
			}
		}
		if !sampled {
			t.Fatal("never reached the sampling step")
		}
	}
}

func TestElaborateFIRFunctional(t *testing.T) {
	g := workload.FIR(4)
	s, rb, res := bindWithHLPower(t, g, cdfg.ResourceConstraint{Add: 2, Mult: 2})
	d, err := Elaborate(g, s, rb, res, 4)
	if err != nil {
		t.Fatal(err)
	}
	verifyDesign(t, g, d, 20, 1)
}

func TestElaborateDCT8Functional(t *testing.T) {
	g := workload.DCT8()
	s, rb, res := bindWithHLPower(t, g, cdfg.ResourceConstraint{Add: 3, Mult: 4})
	d, err := Elaborate(g, s, rb, res, 4)
	if err != nil {
		t.Fatal(err)
	}
	verifyDesign(t, g, d, 8, 2)
}

func TestElaborateButterflyWithSubtractions(t *testing.T) {
	g := workload.Butterfly(2)
	s, rb, res := bindWithHLPower(t, g, cdfg.ResourceConstraint{Add: 4, Mult: 2})
	d, err := Elaborate(g, s, rb, res, 5)
	if err != nil {
		t.Fatal(err)
	}
	verifyDesign(t, g, d, 15, 3)
}

func TestElaborateLopassBindingFunctional(t *testing.T) {
	g := workload.FIR(6)
	rc := cdfg.ResourceConstraint{Add: 2, Mult: 3}
	s, err := cdfg.ListSchedule(g, rc)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := regbind.Bind(g, s)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := lopass.Bind(g, s, rb, rc, lopass.Options{PortSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	d, err := Elaborate(g, s, rb, res, 4)
	if err != nil {
		t.Fatal(err)
	}
	verifyDesign(t, g, d, 15, 4)
}

func TestElaborateBenchmarkScale(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-scale elaboration")
	}
	p, _ := workload.ByName("pr")
	g := workload.Generate(p)
	s, rb, res := bindWithHLPower(t, g, p.RC)
	d, err := Elaborate(g, s, rb, res, 8)
	if err != nil {
		t.Fatal(err)
	}
	verifyDesign(t, g, d, 3, 5)
	st := d.Net.Stats()
	if st.Gates < 500 {
		t.Fatalf("pr datapath suspiciously small: %s", st)
	}
}

func TestMuxReportConsistentWithBinding(t *testing.T) {
	g := workload.FIR(6)
	rc := cdfg.ResourceConstraint{Add: 2, Mult: 2}
	s, rb, res := bindWithHLPower(t, g, rc)
	d, err := Elaborate(g, s, rb, res, 4)
	if err != nil {
		t.Fatal(err)
	}
	st := binding.ComputeMuxStats(g, rb, res)
	if d.Muxes.FULength != st.Length {
		t.Fatalf("datapath FULength %d != binding stats %d", d.Muxes.FULength, st.Length)
	}
	if d.Muxes.FULargest != st.Largest {
		t.Fatalf("datapath FULargest %d != binding stats %d", d.Muxes.FULargest, st.Largest)
	}
	if d.Muxes.RegLength < rb.NumRegs {
		t.Fatalf("register mux length %d below register count %d", d.Muxes.RegLength, rb.NumRegs)
	}
	if d.Muxes.TotalLength() != d.Muxes.FULength+d.Muxes.RegLength {
		t.Fatal("TotalLength inconsistent")
	}
	if d.Muxes.TotalLargest() < d.Muxes.FULargest {
		t.Fatal("TotalLargest inconsistent")
	}
}

func TestElaborateRejectsBadWidth(t *testing.T) {
	g := workload.FIR(2)
	s, rb, res := bindWithHLPower(t, g, cdfg.ResourceConstraint{Add: 1, Mult: 1})
	if _, err := Elaborate(g, s, rb, res, 0); err == nil {
		t.Fatal("width 0 accepted")
	}
}

func TestCounterWraps(t *testing.T) {
	g := workload.FIR(4)
	s, rb, res := bindWithHLPower(t, g, cdfg.ResourceConstraint{Add: 1, Mult: 1})
	d, err := Elaborate(g, s, rb, res, 3)
	if err != nil {
		t.Fatal(err)
	}
	simr, err := sim.New(d.Net)
	if err != nil {
		t.Fatal(err)
	}
	in := make([]bool, len(d.Net.Inputs))
	seen := make(map[int]bool)
	for cyc := 0; cyc < 3*d.StepCount; cyc++ {
		simr.Step(in)
		v := d.CounterValue(simr.Values())
		if v < 0 || v >= d.StepCount {
			t.Fatalf("counter out of range: %d (len %d)", v, d.StepCount)
		}
		seen[v] = true
	}
	if len(seen) != d.StepCount {
		t.Fatalf("counter visited %d of %d steps", len(seen), d.StepCount)
	}
}

// TestLibraryTablesShared asserts every gate-library table is one
// shared instance, that an elaborated datapath's gates point at those
// instances, and that elaboration leaves each table unchanged.
func TestLibraryTablesShared(t *testing.T) {
	lib := map[string]func() *bitvec.TruthTable{
		"buf": logic.TTBuf, "not": logic.TTNot, "and2": logic.TTAnd2, "or2": logic.TTOr2,
		"xor2": logic.TTXor2, "nand2": logic.TTNand2, "nor2": logic.TTNor2,
		"xor3": logic.TTXor3, "maj3": logic.TTMaj3, "mux2": logic.TTMux2,
	}
	before := make(map[*bitvec.TruthTable]*bitvec.TruthTable)
	for name, get := range lib {
		if get() != get() {
			t.Errorf("%s: two calls returned different tables", name)
		}
		before[get()] = get().Clone()
	}

	g := workload.FIR(4)
	s, rb, res := bindWithHLPower(t, g, cdfg.ResourceConstraint{Add: 2, Mult: 2})
	d, err := Elaborate(g, s, rb, res, 4)
	if err != nil {
		t.Fatal(err)
	}
	shared := 0
	for _, nd := range d.Net.Nodes {
		if _, ok := before[nd.Func]; ok {
			shared++
		}
	}
	if shared == 0 {
		t.Error("no elaborated gate uses a library table")
	}
	for name, get := range lib {
		if !get().Equal(before[get()]) {
			t.Errorf("%s: table changed during elaboration: %s, was %s", name, get(), before[get()])
		}
	}
}
