package flow

import (
	"reflect"
	"testing"

	"repro/internal/workload"
)

// TestBindStatsPopulated: a session exposes one engine report per
// HLPower bind, under the deterministic algorithm label, with
// per-iteration stats summing to the totals; baseline binds are
// omitted.
func TestBindStatsPopulated(t *testing.T) {
	se := smallSession()
	p := se.Benchmarks[0]
	if _, err := se.Run(bgc, p, BinderLOPASS); err != nil {
		t.Fatal(err)
	}
	if _, err := se.Run(bgc, p, BinderHLPower05); err != nil {
		t.Fatal(err)
	}
	stats := se.BindStats()
	if len(stats) != 1 {
		t.Fatalf("%d bind stats, want 1 (LOPASS carries no engine report)", len(stats))
	}
	st := stats[0]
	if st.Bench != p.Name || st.Algo != "hlpower alpha=0.5" {
		t.Fatalf("provenance = %s/%s, want %s/hlpower alpha=0.5", st.Bench, st.Algo, p.Name)
	}
	rep := st.Report
	if rep.Iterations == 0 || rep.EdgesScored == 0 || rep.WeightShapes == 0 {
		t.Fatalf("degenerate report: %+v", rep)
	}
	if len(rep.Iters) != rep.Iterations {
		t.Fatalf("%d iteration stats for %d iterations", len(rep.Iters), rep.Iterations)
	}
	scored, reused := 0, 0
	for _, it := range rep.Iters {
		scored += it.EdgesScored
		reused += it.EdgesReused
	}
	if scored != rep.EdgesScored || reused != rep.EdgesReused {
		t.Fatalf("iteration sums (%d/%d) != totals (%d/%d)", scored, reused, rep.EdgesScored, rep.EdgesReused)
	}
}

// TestBindJobsInvariance is the non-semantic worker-count contract at
// the flow layer: BindJobs must not enter the bind cache key, and the
// measured results at -j style worker counts 1 and 8 must be
// identical.
func TestBindJobsInvariance(t *testing.T) {
	cfg1 := testConfig()
	cfg1.BindJobs = 1
	cfg8 := testConfig()
	cfg8.BindJobs = 8
	cfg8.Table = cfg1.Table // share SA characterizations across sessions
	if specForBinder(BinderHLPower05, cfg1).fp() != specForBinder(BinderHLPower05, cfg8).fp() {
		t.Fatal("BindJobs leaked into the bind-stage cache key")
	}
	p, _ := workload.ByName("pr")
	type projection struct {
		FUMux   any
		LUTs    int
		Depth   int
		EstSA   float64
		Dynamic float64
	}
	project := func(r *Result) projection {
		return projection{r.FUMux, r.LUTs, r.Depth, r.EstSA, r.Power.DynamicPowerMW}
	}
	r1, err := NewSession(cfg1).Run(bgc, p, BinderHLPower05)
	if err != nil {
		t.Fatal(err)
	}
	r8, err := NewSession(cfg8).Run(bgc, p, BinderHLPower05)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(project(r1), project(r8)) {
		t.Fatalf("results diverge across BindJobs:\nj1: %+v\nj8: %+v", project(r1), project(r8))
	}
}
