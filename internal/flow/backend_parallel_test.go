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
