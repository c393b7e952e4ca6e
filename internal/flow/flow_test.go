package flow

import (
	"context"
	"strings"
	"testing"

	"repro/internal/cdfg"
	"repro/internal/satable"
	"repro/internal/workload"
)

// bgc is the background context the tests run non-cancellation
// pipelines under.
var bgc = context.Background()

// testConfig keeps unit tests fast: 4-bit datapath, 200 vectors.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Width = 4
	cfg.Vectors = 200
	cfg.Table = satable.New(4, satable.EstimatorGlitch)
	return cfg
}

func smallSession() *Session {
	se := NewSession(testConfig())
	pr, _ := workload.ByName("pr")
	wang, _ := workload.ByName("wang")
	se.Benchmarks = []workload.Profile{pr, wang}
	return se
}

func TestRunProducesCompleteResult(t *testing.T) {
	p, _ := workload.ByName("pr")
	r, err := NewSession(testConfig()).Run(bgc, p, BinderHLPower05)
	if err != nil {
		t.Fatal(err)
	}
	if r.LUTs <= 0 || r.Depth <= 0 {
		t.Fatalf("mapping degenerate: LUTs=%d depth=%d", r.LUTs, r.Depth)
	}
	if r.Counts.Cycles != 200 {
		t.Fatalf("cycles = %d", r.Counts.Cycles)
	}
	if r.Power.DynamicPowerMW <= 0 {
		t.Fatal("no power measured")
	}
	if r.NumRegs <= 0 || r.Schedule.Len <= 0 {
		t.Fatal("front-end results missing")
	}
	if r.FUMux.NumFUs != p.RC.Add+p.RC.Mult {
		t.Fatalf("FU count %d, want %d", r.FUMux.NumFUs, p.RC.Add+p.RC.Mult)
	}
}

func TestRunGraphOnKernel(t *testing.T) {
	g := workload.FIR(6)
	r, err := NewSession(testConfig()).RunGraphCtx(bgc, g, "fir6", cdfg.ResourceConstraint{Add: 2, Mult: 2}, BinderLOPASS)
	if err != nil {
		t.Fatal(err)
	}
	if r.Bench != "fir6" || r.LUTs == 0 {
		t.Fatalf("unexpected result: %+v", r)
	}
}

func TestSessionCaches(t *testing.T) {
	se := smallSession()
	p := se.Benchmarks[0]
	r1, err := se.Run(bgc, p, BinderLOPASS)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := se.Run(bgc, p, BinderLOPASS)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatal("session did not cache")
	}
}

func TestTable1Renders(t *testing.T) {
	var sb strings.Builder
	if err := Table1(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"chem", "wang", "171", "176"} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("Table 1 missing %q:\n%s", want, sb.String())
		}
	}
}

func TestTablesAndFigureRender(t *testing.T) {
	se := smallSession()
	var sb strings.Builder
	if err := Table2(bgc, &sb, se); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "pr") || !strings.Contains(sb.String(), "Cycle") {
		t.Fatalf("Table 2 malformed:\n%s", sb.String())
	}
	sb.Reset()
	if err := Table3(bgc, &sb, se); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Average") {
		t.Fatalf("Table 3 missing average row:\n%s", sb.String())
	}
	sb.Reset()
	if err := Table4(bgc, &sb, se); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "#muxes") {
		t.Fatalf("Table 4 malformed:\n%s", sb.String())
	}
	sb.Reset()
	if err := Figure3(bgc, &sb, se); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "LOPASS") || !strings.Contains(sb.String(), "a=0.5") {
		t.Fatalf("Figure 3 malformed:\n%s", sb.String())
	}
}

// TestHeadlineShapeOnSmallSuite is the reduced-scale version of the
// paper's headline claim: HLPower (alpha=0.5) should not lose to LOPASS
// on measured toggle counts and should improve mux balance, on the two
// DCT benchmarks.
func TestHeadlineShapeOnSmallSuite(t *testing.T) {
	se := smallSession()
	t4, err := Table4Data(bgc, se)
	if err != nil {
		t.Fatal(err)
	}
	var ml, m05 float64
	for _, r := range t4 {
		ml += r.MeanL
		m05 += r.Mean05
	}
	if m05 > ml {
		t.Fatalf("muxDiff mean should improve: LOPASS %.2f vs a=0.5 %.2f", ml, m05)
	}
	f3, err := Figure3Data(bgc, se)
	if err != nil {
		t.Fatal(err)
	}
	var sumL, sumH float64
	for _, r := range f3 {
		sumL += r.RateL
		sumH += r.Rate05
	}
	if sumH > sumL*1.05 {
		t.Fatalf("toggle rate regressed: LOPASS %.2f vs HLPower %.2f", sumL, sumH)
	}
}
