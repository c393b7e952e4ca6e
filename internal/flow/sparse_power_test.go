package flow

import (
	"testing"

	"repro/internal/cdfg"
	"repro/internal/core"
	"repro/internal/workload"
)

// TestSparsePowerDelta bounds the quality cost of bounded candidate
// rows: binding a control-heavy CDFG with the default sparse k must
// not cost more than 1% dynamic power over the Exact binding (rows
// with no bound). The bound is one-sided — the exact engine is itself
// a greedy iterative matcher, not a global optimum, so bounded rows may
// legitimately land on a cheaper binding (it does on this graph). The
// two runs share every other pipeline stage (same schedule, register
// binding, vectors), so any delta is attributable to candidate
// admission alone.
func TestSparsePowerDelta(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline comparison")
	}
	g := workload.ControlHeavy(16, 6, 2, 931)
	rc := cdfg.ResourceConstraint{Add: 10, Mult: 12}

	exactCfg := testConfig()
	exactCfg.BindExact = true
	exact, err := RunGraph(g, "ctrl-500", rc, BinderHLPower05, exactCfg)
	if err != nil {
		t.Fatal(err)
	}
	if exact.BindReport == nil || exact.BindReport.Mode != "exact" {
		t.Fatalf("reference run mode = %+v, want exact", exact.BindReport)
	}

	sparseCfg := testConfig()
	sparseCfg.BindK = core.DefaultCandidateK
	sparse, err := RunGraph(g, "ctrl-500", rc, BinderHLPower05, sparseCfg)
	if err != nil {
		t.Fatal(err)
	}
	if sparse.BindReport == nil || sparse.BindReport.Mode != "sparse" {
		t.Fatalf("candidate run mode = %+v, want sparse", sparse.BindReport)
	}

	pe, ps := exact.Power.DynamicPowerMW, sparse.Power.DynamicPowerMW
	if pe <= 0 || ps <= 0 {
		t.Fatalf("degenerate power: exact=%v sparse=%v", pe, ps)
	}
	if delta := (ps - pe) / pe; delta > 0.01 {
		t.Fatalf("sparse k=%d power %.4f mW costs %.2f%% over exact %.4f mW (budget 1%%)",
			core.DefaultCandidateK, ps, delta*100, pe)
	}
	t.Logf("exact=%.4f mW sparse=%.4f mW delta=%+.3f%%", pe, ps, (ps-pe)/pe*100)
}
