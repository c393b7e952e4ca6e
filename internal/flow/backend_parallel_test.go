package flow

import (
	"math"
	"testing"

	"repro/internal/workload"
)

// TestBackEndWorkerInvariance runs every paper benchmark through the
// full back end (parallel elaboration, level-parallel mapping) at
// several MapJobs settings and demands bit-identical
// measurements: LUTs, depth, the float SA estimate to the bit, the raw
// transition counts, and the final power report. This is the contract
// that lets MapJobs stay out of every stage cache key.
func TestBackEndWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("full benchmark sweep")
	}
	base := testConfig()
	base.Vectors = 50

	run := func(jobs int) map[string]*Result {
		cfg := base
		cfg.MapJobs = jobs
		se := NewSession(cfg)
		out := make(map[string]*Result, len(workload.Benchmarks))
		for _, p := range workload.Benchmarks {
			r, err := se.Run(bgc, p, BinderLOPASS)
			if err != nil {
				t.Fatalf("jobs=%d %s: %v", jobs, p.Name, err)
			}
			out[p.Name] = r
		}
		return out
	}

	ref := run(1)
	for _, jobs := range []int{3, 8} {
		got := run(jobs)
		for name, want := range ref {
			g := got[name]
			if g.LUTs != want.LUTs || g.Depth != want.Depth {
				t.Errorf("jobs=%d %s: LUTs/depth %d/%d, want %d/%d", jobs, name, g.LUTs, g.Depth, want.LUTs, want.Depth)
			}
			if math.Float64bits(g.EstSA) != math.Float64bits(want.EstSA) {
				t.Errorf("jobs=%d %s: EstSA %v != %v", jobs, name, g.EstSA, want.EstSA)
			}
			if g.Counts != want.Counts {
				t.Errorf("jobs=%d %s: counts %+v != %+v", jobs, name, g.Counts, want.Counts)
			}
			if g.Power != want.Power {
				t.Errorf("jobs=%d %s: power %+v != %+v", jobs, name, g.Power, want.Power)
			}
			if g.DPMux != want.DPMux {
				t.Errorf("jobs=%d %s: mux report %+v != %+v", jobs, name, g.DPMux, want.DPMux)
			}
		}
	}
}

// TestStageWallclockAggregates checks the session's cumulative
// per-stage timing rollup: every pipeline stage that ran appears, in
// StageNames order, with counts and wall-clock consistent with the
// recorded spans.
func TestStageWallclockAggregates(t *testing.T) {
	se := smallSession()
	p := se.Benchmarks[0]
	if _, err := se.Run(bgc, p, BinderLOPASS); err != nil {
		t.Fatal(err)
	}
	if _, err := se.Run(bgc, p, BinderLOPASS); err != nil { // warm: run-cache hit, no new spans needed
		t.Fatal(err)
	}
	ws := se.StageWallclock()
	if len(ws) == 0 {
		t.Fatal("no stage wallclock rows")
	}
	pos := make(map[string]int, len(ws))
	for i, w := range ws {
		pos[w.Stage] = i
		if w.Count < 1 {
			t.Fatalf("%s: count %d", w.Stage, w.Count)
		}
		if w.TotalNs < w.ComputeNs {
			t.Fatalf("%s: total %d < compute %d", w.Stage, w.TotalNs, w.ComputeNs)
		}
		if w.CacheHits > w.Count {
			t.Fatalf("%s: hits %d > count %d", w.Stage, w.CacheHits, w.Count)
		}
	}
	for _, stage := range []string{StageSchedule, StageRegbind, StageBind, StageDatapath, StageMap, StageSim, StagePower} {
		if _, ok := pos[stage]; !ok {
			t.Fatalf("stage %s missing from wallclock rollup", stage)
		}
	}
	if pos[StageSchedule] > pos[StageMap] || pos[StageMap] > pos[StagePower] {
		t.Fatal("stages not in pipeline order")
	}
}
