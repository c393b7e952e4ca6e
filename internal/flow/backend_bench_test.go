package flow

import (
	"testing"

	"repro/internal/cdfg"
	"repro/internal/mapper"
	"repro/internal/par"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// BenchmarkFlowBackend measures the combined post-bind back end —
// datapath elaboration, LUT covering, power analysis — end-to-end on
// the ctrl-2k scale tier (ControlHeavy(16,6,8,931), ~1.9k ops, ~37k
// gates elaborated). The front end, binding, and simulation run once
// in setup; each timed iteration gets a fresh stage cache so nothing
// carries over between iterations.
//
// Two arms:
//
//   - flat: macro covering off, one worker — the historical
//     gate-at-a-time path.
//   - memo: default auto macro covering (engages above
//     mapper.DefaultMacroMinGates) with a session-style macro memo.
//
// Reported metrics: per-stage wall clock (dp-ms/op, map-ms/op,
// power-ms/op), the macro memo hit rate on the memo arm, and LUTs so a
// cover-quality regression shows up next to a speed one. CI runs both
// arms once and gates the memo arm's allocations (the map stage
// dominates them).
func BenchmarkFlowBackend(b *testing.B) {
	p, ok := workload.ScaleByName("ctrl-2k")
	if !ok {
		b.Fatal("ctrl-2k scale profile missing")
	}
	g := p.Build()
	cfg := DefaultConfig()
	cfg.Vectors = 64 // sim is measured elsewhere; keep setup cheap
	cfg = cfg.Normalize()

	s, err := cdfg.ListSchedule(g, p.RC)
	if err != nil {
		b.Fatal(err)
	}
	fe := newSchedArtifact(g, s)
	rba, err := stageRegbind.Exec(bgc, nil, regbindIn{name: p.Name, fe: fe, portSeed: cfg.PortSeed})
	if err != nil {
		b.Fatal(err)
	}
	ba, err := stageBind.Exec(bgc, nil, bindIn{
		name: p.Name, binder: BinderLOPASS.Name, fe: fe, rba: rba, rc: p.RC,
		spec: specForBinder(BinderLOPASS, cfg),
	})
	if err != nil {
		b.Fatal(err)
	}
	// One untimed back-end pass supplies the transition counts the
	// power stage consumes in the timed loop.
	_, ma0, counts, _, err := runBackEnd(bgc, pipeline.NewCache(), cfg, fe, rba, ba, p.Name, BinderLOPASS.Name, resolveModSel(cfg))
	if err != nil {
		b.Fatal(err)
	}
	sk := simKey(simIn{
		name: p.Name, binder: BinderLOPASS.Name, ma: ma0,
		delay: cfg.Delay, delaySeed: cfg.DelaySeed,
		vectors: cfg.Vectors, vectorSeed: cfg.VectorSeed,
		simJobs: cfg.SimJobs, simWide: cfg.SimWide,
	})
	ms := resolveModSel(cfg)
	archFP := cfg.Arch.Fingerprint()

	run := func(b *testing.B, memo bool) {
		jobs := 1
		if memo {
			jobs = par.Jobs(cfg.MapJobs)
		}
		b.ReportAllocs()
		b.ResetTimer()
		var tr pipeline.Trace
		ctx := pipeline.WithTraces(bgc, &tr)
		var luts int
		var hits, misses int64
		for i := 0; i < b.N; i++ {
			cache := pipeline.NewCache()
			dp, err := stageDatapath.Exec(ctx, cache, datapathIn{
				name: p.Name, binder: BinderLOPASS.Name, fe: fe, rba: rba, ba: ba,
				width: cfg.Width, modsel: ms, jobs: jobs,
			})
			if err != nil {
				b.Fatal(err)
			}
			mopt := cfg.MapOpt
			mopt.Jobs = jobs
			if memo {
				mopt.Macros = mapper.NewMacroCache(cache, "macro@"+archFP)
			} else {
				mopt.MacroReuse = mapper.MacroOff
			}
			ma, err := stageMap.Exec(ctx, cache, mapIn{
				name: p.Name, binder: BinderLOPASS.Name, dp: dp,
				preOpt: cfg.PreOptimize, mapOpt: mopt, archFP: archFP,
			})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := stagePower.Exec(ctx, cache, powerIn{
				name: p.Name, binder: BinderLOPASS.Name,
				ma: ma, counts: counts, simKey: sk, arch: cfg.Arch,
			}); err != nil {
				b.Fatal(err)
			}
			luts = ma.m.LUTs
			if memo {
				hits, misses = mopt.Macros.Stats()
			}
		}
		b.StopTimer()
		per := map[string]int64{}
		for _, sp := range tr.Spans() {
			per[sp.Stage] += sp.DurationNs
		}
		n := float64(b.N)
		b.ReportMetric(float64(per[StageDatapath])/n/1e6, "dp-ms/op")
		b.ReportMetric(float64(per[StageMap])/n/1e6, "map-ms/op")
		b.ReportMetric(float64(per[StagePower])/n/1e6, "power-ms/op")
		b.ReportMetric(float64(luts), "luts")
		if memo && hits+misses > 0 {
			b.ReportMetric(float64(hits)/float64(hits+misses), "macro-hitrate")
		}
	}
	b.Run("flat", func(b *testing.B) { run(b, false) })
	b.Run("memo", func(b *testing.B) { run(b, true) })
}
