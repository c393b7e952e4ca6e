package flow

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/binding"
	"repro/internal/cdfg"
	"repro/internal/core"
	"repro/internal/datapath"
	"repro/internal/lopass"
	"repro/internal/mapper"
	"repro/internal/pipeline"
	"repro/internal/power"
	"repro/internal/regbind"
	"repro/internal/satable"
	"repro/internal/sim"
	"repro/internal/workload"
)

// runScheduledMonolithic is the pre-refactor single-function pipeline,
// kept verbatim as the behavioural reference: the staged pipeline must
// produce identical Results (TestStagedMatchesMonolithic). It
// deliberately runs the scalar sim.Simulator while the staged sim
// stage runs the word-parallel engine, so the equivalence sweep is
// also the full-flow proof that the two engines yield identical counts
// and power on every benchmark.
func runScheduledMonolithic(g *cdfg.Graph, name string, s *cdfg.Schedule, rc cdfg.ResourceConstraint, b Binder, cfg Config) (*Result, error) {
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("flow: %s: %w", name, err)
	}
	if err := cdfg.ValidateSchedule(g, s, rc); err != nil {
		return nil, fmt.Errorf("flow: %s: %w", name, err)
	}
	swap := binding.RandomPortAssignment(g, cfg.PortSeed)
	rb, err := regbind.BindOpt(g, s, regbind.Options{Swap: swap})
	if err != nil {
		return nil, fmt.Errorf("flow: %s: %w", name, err)
	}

	var res *binding.Result
	var bindTime time.Duration
	if b.UseHLPower {
		opt := core.DefaultOptions(cfg.Table)
		opt.Alpha = b.Alpha
		if cfg.BetaAdd > 0 {
			opt.BetaAdd = cfg.BetaAdd
		}
		if cfg.BetaMult > 0 {
			opt.BetaMult = cfg.BetaMult
		}
		opt.MergesPerIteration = 1
		opt.Swap = swap
		r, rep, err := core.Bind(g, s, rb, rc, opt)
		if err != nil {
			return nil, fmt.Errorf("flow: %s/%s: %w", name, b.Name, err)
		}
		res, bindTime = r, rep.Runtime
	} else {
		r, rep, err := lopass.Bind(g, s, rb, rc, lopass.Options{Swap: swap, Table: cfg.BaselineTable})
		if err != nil {
			return nil, fmt.Errorf("flow: %s/%s: %w", name, b.Name, err)
		}
		res, bindTime = r, rep.Runtime
	}

	d, err := datapath.ElaborateArch(g, s, rb, res, cfg.Width, nil)
	if err != nil {
		return nil, fmt.Errorf("flow: %s/%s: %w", name, b.Name, err)
	}
	mapped, err := mapper.Map(d.Net, cfg.MapOpt)
	if err != nil {
		return nil, fmt.Errorf("flow: %s/%s: %w", name, b.Name, err)
	}
	simr, err := sim.NewWithDelays(mapped.Mapped, cfg.Delay, cfg.DelaySeed)
	if err != nil {
		return nil, fmt.Errorf("flow: %s/%s: %w", name, b.Name, err)
	}
	counts := simr.RunRandom(cfg.Vectors, cfg.VectorSeed)

	return &Result{
		Bench:    name,
		Binder:   b,
		Schedule: s,
		NumRegs:  rb.NumRegs,
		BindTime: bindTime,
		FUMux:    binding.ComputeMuxStats(g, rb, res),
		DPMux:    d.Muxes,
		LUTs:     mapped.LUTs,
		Depth:    mapped.Depth,
		EstSA:    mapped.EstSA,
		Counts:   counts,
		Power:    cfg.Power.Analyze(mapped.Mapped, counts),
	}, nil
}

// TestStagedMatchesMonolithic sweeps the full benchmark suite through
// every binder twice — once through the session's stage graph (with all
// its cross-run artifact sharing) and once through the retained
// monolithic reference — and requires identical Results. This is the
// refactor's equivalence guarantee: caching and stage decomposition must
// not change a single measured number.
func TestStagedMatchesMonolithic(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite sweep")
	}
	cfg := testConfig()
	cfg.Vectors = 150
	cfg = cfg.Normalize()
	se := NewSession(cfg)
	se.Jobs = 4
	if err := se.RunAll(bgc); err != nil {
		t.Fatal(err)
	}
	for _, p := range se.Benchmarks {
		g := workload.Generate(p)
		s, err := workload.Schedule(p, g)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range AllBinders {
			staged, err := se.Run(bgc, p, b)
			if err != nil {
				t.Fatal(err)
			}
			mono, err := runScheduledMonolithic(g, p.Name, s, p.RC, b, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(project(staged), project(mono)) {
				t.Errorf("%s/%s: staged result differs from monolithic:\nstaged: %+v\nmono:   %+v",
					p.Name, b.Name, project(staged), project(mono))
			}
		}
	}
}

// TestSimJobsInvariance runs the same benchmark in fresh sessions at
// several SimJobs settings and requires identical Counts and power:
// the worker count is a pure throughput knob, never a semantic one.
// It also pins SimJobs out of the sim cache key — a Derive'd session
// differing only in SimJobs must serve sim from cache.
func TestSimJobsInvariance(t *testing.T) {
	cfg := testConfig()
	cfg.Vectors = 100
	cfg = cfg.Normalize()
	pr, _ := workload.ByName("pr")

	var ref *Result
	for _, jobs := range []int{1, 3, 8} {
		c := cfg
		c.SimJobs = jobs
		se := NewSession(c)
		se.Benchmarks = []workload.Profile{pr}
		r, err := se.Run(bgc, pr, BinderHLPower05)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = r
			continue
		}
		if r.Counts != ref.Counts {
			t.Errorf("SimJobs=%d: counts %+v, want %+v", jobs, r.Counts, ref.Counts)
		}
		if r.Power != ref.Power {
			t.Errorf("SimJobs=%d: power %+v, want %+v", jobs, r.Power, ref.Power)
		}
	}

	base := NewSession(cfg)
	base.Benchmarks = []workload.Profile{pr}
	if _, err := base.Run(bgc, pr, BinderHLPower05); err != nil {
		t.Fatal(err)
	}
	mut := cfg
	mut.SimJobs = 7
	se := base.Derive(mut)
	before := se.StageStats()
	if _, err := se.Run(bgc, pr, BinderHLPower05); err != nil {
		t.Fatal(err)
	}
	d := statsDelta(before, se.StageStats())
	if got := d[StageSim]; got != (pipeline.Stats{Hits: 1}) {
		t.Errorf("SimJobs change: sim stage delta %+v, want a pure cache hit", got)
	}
}

// TestSimWideInvariance is the width analog of TestSimJobsInvariance:
// the simulator's lane-group width is a pure throughput knob, so fresh
// sessions at several SimWide settings must produce identical Counts
// and power, and a Derive'd session differing only in SimWide must
// serve sim from cache.
func TestSimWideInvariance(t *testing.T) {
	cfg := testConfig()
	cfg.Vectors = 100
	cfg = cfg.Normalize()
	pr, _ := workload.ByName("pr")

	var ref *Result
	for _, wide := range []int{1, 2, 8} {
		c := cfg
		c.SimWide = wide
		se := NewSession(c)
		se.Benchmarks = []workload.Profile{pr}
		r, err := se.Run(bgc, pr, BinderHLPower05)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = r
			continue
		}
		if r.Counts != ref.Counts {
			t.Errorf("SimWide=%d: counts %+v, want %+v", wide, r.Counts, ref.Counts)
		}
		if r.Power != ref.Power {
			t.Errorf("SimWide=%d: power %+v, want %+v", wide, r.Power, ref.Power)
		}
	}

	base := NewSession(cfg)
	base.Benchmarks = []workload.Profile{pr}
	if _, err := base.Run(bgc, pr, BinderHLPower05); err != nil {
		t.Fatal(err)
	}
	mut := cfg
	mut.SimWide = 2
	se := base.Derive(mut)
	before := se.StageStats()
	if _, err := se.Run(bgc, pr, BinderHLPower05); err != nil {
		t.Fatal(err)
	}
	d := statsDelta(before, se.StageStats())
	if got := d[StageSim]; got != (pipeline.Stats{Hits: 1}) {
		t.Errorf("SimWide change: sim stage delta %+v, want a pure cache hit", got)
	}
}

// TestGenerationRunsOncePerBenchmark is the regression test for the
// duplicated-front-end bug: before the stage cache, every binder of a
// benchmark regenerated and rescheduled its CDFG (and recomputed the
// register binding). One schedule and one regbind computation per
// benchmark per session, no matter how many binders run.
func TestGenerationRunsOncePerBenchmark(t *testing.T) {
	se := smallSession()
	se.Jobs = 4
	if err := se.RunAll(bgc); err != nil {
		t.Fatal(err)
	}
	stats := se.StageStats()
	nBench := len(se.Benchmarks)
	nRuns := nBench * len(AllBinders)
	for _, stage := range []string{StageSchedule, StageRegbind} {
		st := stats[stage]
		if st.Misses != nBench {
			t.Errorf("%s computed %d times, want once per benchmark (%d)", stage, st.Misses, nBench)
		}
		if st.Hits != nRuns-nBench {
			t.Errorf("%s hits = %d, want %d", stage, st.Hits, nRuns-nBench)
		}
	}
	// Every binder has a distinct spec, so binds never alias.
	if st := stats[StageBind]; st.Misses != nRuns || st.Hits != 0 {
		t.Errorf("bind stats %+v, want %d misses / 0 hits", st, nRuns)
	}
}

// statsDelta returns after-minus-before per stage.
func statsDelta(before, after map[string]pipeline.Stats) map[string]pipeline.Stats {
	d := make(map[string]pipeline.Stats)
	for stage, a := range after {
		b := before[stage]
		d[stage] = pipeline.Stats{Hits: a.Hits - b.Hits, Misses: a.Misses - b.Misses}
	}
	return d
}

// TestCacheKeySensitivity mutates each Config field in turn and asserts
// exactly the right stages miss: stages whose key covers the field must
// recompute, stages upstream of it must be served from cache. Stages
// downstream of a content-addressed boundary (e.g. everything after
// bind when only a binder parameter changed) are deliberately not
// asserted — whether they miss depends on whether the data changed.
func TestCacheKeySensitivity(t *testing.T) {
	cfg := testConfig()
	cfg.Vectors = 100
	cfg = cfg.Normalize()
	pr, _ := workload.ByName("pr")

	base := NewSession(cfg)
	base.Benchmarks = []workload.Profile{pr}
	if _, err := base.Run(bgc, pr, BinderHLPower05); err != nil {
		t.Fatal(err)
	}

	all := []string{StageSchedule, StageRegbind, StageBind, StageDatapath, StageMap, StageSim, StagePower}
	// rest returns every stage not in the given set.
	rest := func(miss ...string) []string {
		var out []string
		for _, s := range all {
			in := false
			for _, m := range miss {
				in = in || s == m
			}
			if !in {
				out = append(out, s)
			}
		}
		return out
	}

	cases := []struct {
		name   string
		mutate func(*Config)
		// miss lists stages that must recompute; hit lists stages that
		// must be cache-served. Unlisted stages are content-dependent.
		miss, hit []string
	}{
		{
			name:   "VectorSeed",
			mutate: func(c *Config) { c.VectorSeed++ },
			miss:   []string{StageSim, StagePower},
			hit:    rest(StageSim, StagePower),
		},
		{
			name:   "Vectors",
			mutate: func(c *Config) { c.Vectors = 120 },
			miss:   []string{StageSim, StagePower},
			hit:    rest(StageSim, StagePower),
		},
		{
			name:   "Delay",
			mutate: func(c *Config) { c.Delay = sim.DelayUnit },
			miss:   []string{StageSim, StagePower},
			hit:    rest(StageSim, StagePower),
		},
		{
			name:   "DelaySeed",
			mutate: func(c *Config) { c.DelaySeed++ },
			miss:   []string{StageSim, StagePower},
			hit:    rest(StageSim, StagePower),
		},
		{
			// A power constant reaches the flow only through Arch: the
			// new arch fingerprint re-keys the SA tables (bind) and the
			// whole measurement back end, while the fabric-blind front
			// end and the content-addressed datapath (same K, same
			// binding) are shared.
			name:   "ArchVdd",
			mutate: func(c *Config) { c.Arch.Vdd *= 1.1 },
			miss:   []string{StageBind, StageMap, StageSim, StagePower},
			hit:    []string{StageSchedule, StageRegbind, StageDatapath},
		},
		{
			// PortSeed feeds regbind, whose fingerprint every later key
			// chains on structurally: the entire pipeline below schedule
			// recomputes.
			name:   "PortSeed",
			mutate: func(c *Config) { c.PortSeed++ },
			miss:   rest(StageSchedule),
			hit:    []string{StageSchedule},
		},
		{
			// Binder parameters reach only the bind key; downstream is
			// content-addressed (not asserted).
			name:   "BetaAdd",
			mutate: func(c *Config) { c.BetaAdd *= 2 },
			miss:   []string{StageBind},
			hit:    []string{StageSchedule, StageRegbind},
		},
		{
			name:   "Table",
			mutate: func(c *Config) { c.Table = satable.New(c.Width, satable.EstimatorNajm) },
			miss:   []string{StageBind},
			hit:    []string{StageSchedule, StageRegbind},
		},
		{
			// A new K changes the SA table identity (bind) and the
			// mapper target; the fabric-blind front end is shared.
			// Datapath is content-addressed (K=6 binds may or may not
			// coincide) and deliberately unasserted.
			name:   "Arch",
			mutate: func(c *Config) { c.Arch = arch.StratixLike6LUT() },
			miss:   []string{StageBind, StageMap, StageSim, StagePower},
			hit:    []string{StageSchedule, StageRegbind},
		},
		{
			// The ASIC projection keeps K=4, so the SA values — and
			// hence the binding content — are identical: datapath is a
			// content-addressed HIT while bind (table identity) and the
			// whole measurement back end (arch fingerprint in the map
			// key, projection in the power key) recompute. This is the
			// acceptance property: map/sim/power keys distinct per arch
			// even when the mapped netlist would be identical.
			name:   "ArchProjection",
			mutate: func(c *Config) { c.Arch = arch.ASICProjected(arch.CycloneII()) },
			miss:   []string{StageBind, StageMap, StageSim, StagePower},
			hit:    []string{StageSchedule, StageRegbind, StageDatapath},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mut := cfg
			tc.mutate(&mut)
			se := base.Derive(mut)
			before := se.StageStats()
			if _, err := se.Run(bgc, pr, BinderHLPower05); err != nil {
				t.Fatal(err)
			}
			d := statsDelta(before, se.StageStats())
			for _, stage := range tc.miss {
				if got := d[stage]; got != (pipeline.Stats{Misses: 1}) {
					t.Errorf("%s: stats delta %+v, want a recompute (1 miss)", stage, got)
				}
			}
			for _, stage := range tc.hit {
				if got := d[stage]; got != (pipeline.Stats{Hits: 1}) {
					t.Errorf("%s: stats delta %+v, want a cache hit", stage, got)
				}
			}
		})
	}
}

// TestAlphaSweepSharesFrontEnd asserts the headline cache win: an alpha
// sweep computes each benchmark's schedule and register binding exactly
// once, every additional alpha point is a front-end cache hit, and each
// alpha gets its own bind.
func TestAlphaSweepSharesFrontEnd(t *testing.T) {
	se := smallSession()
	se.Jobs = 4
	alphas := []float64{0, 0.25, 0.5, 0.75, 1}
	if _, err := AlphaSweepData(bgc, se, alphas); err != nil {
		t.Fatal(err)
	}
	stats := se.StageStats()
	nBench := len(se.Benchmarks)
	nRuns := nBench * len(alphas)
	for _, stage := range []string{StageSchedule, StageRegbind} {
		st := stats[stage]
		if st.Misses != nBench || st.Hits != nRuns-nBench {
			t.Errorf("%s stats %+v, want %d misses / %d hits", stage, st, nBench, nRuns-nBench)
		}
	}
	if st := stats[StageBind]; st.Misses != nRuns {
		t.Errorf("bind stats %+v, want %d misses (one per alpha per benchmark)", st, nRuns)
	}
	// Back-end demands must all be served — either computed or shared
	// through binding-content addressing.
	for _, stage := range []string{StageDatapath, StageMap, StageSim, StagePower} {
		st := stats[stage]
		if st.Hits+st.Misses != nRuns {
			t.Errorf("%s served %d demands, want %d", stage, st.Hits+st.Misses, nRuns)
		}
	}
}

// TestNormalizeTables covers the SA-table sharing contract:
// DefaultConfig allocates fresh tables, Normalize replaces nil or
// width-mismatched ones, and NewSession preserves (shares) a caller's
// correctly sized tables instead of reallocating.
func TestNormalizeTables(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Width = 4 // tables are still width 8 — the classic footgun
	n := cfg.Normalize()
	if n.Table.Width != 4 || n.Table.Est != satable.EstimatorGlitch {
		t.Fatalf("Normalize table: width=%d est=%v", n.Table.Width, n.Table.Est)
	}
	if n.BaselineTable.Width != 4 || n.BaselineTable.Est != satable.EstimatorZeroDelay {
		t.Fatalf("Normalize baseline table: width=%d est=%v", n.BaselineTable.Width, n.BaselineTable.Est)
	}

	shared := satable.New(4, satable.EstimatorGlitch)
	cfg.Table = shared
	if got := cfg.Normalize().Table; got != shared {
		t.Fatal("Normalize replaced a correctly sized table")
	}

	// Sessions share, validate, and never clone a caller's tables.
	se1 := NewSession(cfg)
	se2 := NewSession(cfg)
	if se1.Cfg.Table != shared || se2.Cfg.Table != shared {
		t.Fatal("NewSession did not reuse the caller's SA table")
	}
	if se1.Cfg.BaselineTable.Width != 4 {
		t.Fatalf("NewSession kept a width-%d baseline table for a width-4 session", se1.Cfg.BaselineTable.Width)
	}

	var zero Config
	zero.Width = 4
	if z := zero.Normalize(); z.Table == nil || z.BaselineTable == nil {
		t.Fatal("Normalize left nil tables")
	}
}

// TestNormalizeDerivesFromArch pins Arch as the single description of
// the fabric: a hand-set Power model or mapper K never survives
// Normalize, and both follow a retargeted Arch.
func TestNormalizeDerivesFromArch(t *testing.T) {
	cfg := DefaultConfig()
	if want := power.FromArch(cfg.Arch); cfg.Power != want {
		t.Errorf("DefaultConfig Power %+v, want %+v (derived from Arch)", cfg.Power, want)
	}
	if want := (mapper.Options{K: 4, Mode: mapper.ModeDepth}); cfg.MapOpt != want {
		t.Errorf("DefaultConfig MapOpt %+v, want %+v (depth mode at the arch's K)", cfg.MapOpt, want)
	}
	cfg.Power.Vdd = 5
	cfg.MapOpt.K = 6
	n := cfg.Normalize()
	if want := power.FromArch(arch.CycloneII()); n.Power != want {
		t.Errorf("Normalize kept a hand-set Power %+v, want %+v", n.Power, want)
	}
	if n.MapOpt.K != 4 {
		t.Errorf("Normalize kept a hand-set MapOpt.K %d, want 4", n.MapOpt.K)
	}

	cfg.Arch = arch.StratixLike6LUT()
	cfg.MapOpt.K = 4
	n = cfg.Normalize()
	if want := power.FromArch(arch.StratixLike6LUT()); n.Power != want {
		t.Errorf("retargeted Power %+v, want %+v", n.Power, want)
	}
	if n.MapOpt.K != 6 {
		t.Errorf("retargeted MapOpt.K %d, want 6", n.MapOpt.K)
	}
}

// TestRunRecordsStageTrace checks a run records its ordered per-stage
// spans into the traces its context carries, that a second binder's
// spans show the shared front end as cache hits, that an outer trace
// collects both runs, and that a run served whole from the run cache
// records no span.
func TestRunRecordsStageTrace(t *testing.T) {
	se := smallSession()
	p := se.Benchmarks[0]
	var all, t1, t2, t3 pipeline.Trace
	ctx := pipeline.WithTraces(bgc, &all)
	if _, err := se.Run(pipeline.WithTraces(ctx, &t1), p, BinderLOPASS); err != nil {
		t.Fatal(err)
	}
	var order []string
	for _, sp := range t1.Spans() {
		order = append(order, sp.Stage)
	}
	if !reflect.DeepEqual(order, StageNames) {
		t.Fatalf("trace stages %v, want %v", order, StageNames)
	}
	for _, sp := range t1.Spans() {
		if sp.CacheHit {
			t.Errorf("first run recorded a %s cache hit", sp.Stage)
		}
		if sp.Key == "" {
			t.Errorf("%s span has no key", sp.Stage)
		}
	}
	if _, err := se.Run(pipeline.WithTraces(ctx, &t2), p, BinderHLPower05); err != nil {
		t.Fatal(err)
	}
	hits := map[string]bool{}
	for _, sp := range t2.Spans() {
		hits[sp.Stage] = sp.CacheHit
	}
	if !hits[StageSchedule] || !hits[StageRegbind] {
		t.Errorf("second binder's front end not cache-served: %+v", hits)
	}
	if hits[StageBind] {
		t.Error("different binder spec hit the bind cache")
	}
	if got, want := len(all.Spans()), len(t1.Spans())+len(t2.Spans()); got != want {
		t.Errorf("outer trace has %d spans, want %d", got, want)
	}
	if _, err := se.Run(pipeline.WithTraces(bgc, &t3), p, BinderLOPASS); err != nil {
		t.Fatal(err)
	}
	if n := len(t3.Spans()); n != 0 {
		t.Errorf("run-cache hit recorded %d spans, want 0", n)
	}
}

// TestStageStatsMatchSpans checks the stage cache's counters against
// the spans one context trace records over runs of pr under LOPASS,
// HLPower a=0.5, LOPASS again (a run-cache hit) and LOPASS in a derived
// session (every stage a cache hit): per stage, one span per demand,
// one hit span per hit, and compute time wherever a miss occurred.
func TestStageStatsMatchSpans(t *testing.T) {
	se := NewSession(testConfig())
	pr, _ := workload.ByName("pr")
	var tr pipeline.Trace
	ctx := pipeline.WithTraces(bgc, &tr)
	for _, run := range []struct {
		se *Session
		b  Binder
	}{{se, BinderLOPASS}, {se, BinderHLPower05}, {se, BinderLOPASS}, {se.Derive(se.Cfg), BinderLOPASS}} {
		if _, err := run.se.Run(ctx, pr, run.b); err != nil {
			t.Fatal(err)
		}
	}
	spans, hitSpans := map[string]int{}, map[string]int{}
	for _, sp := range tr.Spans() {
		spans[sp.Stage]++
		if sp.CacheHit {
			hitSpans[sp.Stage]++
		}
	}
	stats := se.StageStats()
	for _, stage := range StageNames {
		st := stats[stage]
		if n := st.Hits + st.Misses + st.BackingHits; n != spans[stage] {
			t.Errorf("%s: %d demands counted, %d spans", stage, n, spans[stage])
		}
		if n := st.Hits + st.BackingHits; n != hitSpans[stage] {
			t.Errorf("%s: %d hits counted, %d hit spans", stage, n, hitSpans[stage])
		}
		if st.Misses > 0 && st.ComputeNs <= 0 {
			t.Errorf("%s: %d misses with no compute time", stage, st.Misses)
		}
	}
	if st := stats[StageSchedule]; st.Misses != 1 || st.Hits != 2 {
		t.Errorf("schedule %+v, want 1 miss and 2 hits", st)
	}
}

// TestAblationSharesMainlineBinds checks the rerouted ablation study
// reuses the session's stage cache: its HLPower-glitch variant is the
// same bind-stage invocation as the mainline HLPower a=0.5 run, and the
// LOPASS variant aliases the mainline LOPASS bind.
func TestAblationSharesMainlineBinds(t *testing.T) {
	se := smallSession()
	se.Jobs = 2
	for _, p := range se.Benchmarks {
		for _, b := range []Binder{BinderLOPASS, BinderHLPower05} {
			if _, err := se.Run(bgc, p, b); err != nil {
				t.Fatal(err)
			}
		}
	}
	before := se.StageStats()
	rows, err := AblationData(bgc, se)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(se.Benchmarks) * len(ablationVariants); len(rows) != want {
		t.Fatalf("ablation produced %d rows, want %d", len(rows), want)
	}
	d := statsDelta(before, se.StageStats())
	nBench := len(se.Benchmarks)
	if st := d[StageSchedule]; st.Misses != 0 {
		t.Errorf("ablation regenerated %d schedules; want pure cache hits", st.Misses)
	}
	if st := d[StageRegbind]; st.Misses != 0 {
		t.Errorf("ablation recomputed %d register bindings; want pure cache hits", st.Misses)
	}
	// Of the 7 variants, three alias existing binds: LOPASS and
	// HLPower-glitch match the mainline runs, and HLPower+modsel shares
	// HLPower-glitch's bind (module selection only enters at the
	// datapath stage). Exactly 4 fresh binds per benchmark.
	if st := d[StageBind]; st.Misses != 4*nBench || st.Hits != 3*nBench {
		t.Errorf("ablation bind delta %+v, want %d misses / %d hits", st, 4*nBench, 3*nBench)
	}
}
