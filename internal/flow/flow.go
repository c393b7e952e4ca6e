// Package flow wires the complete HLPower experimental pipeline of
// paper §6.1 end to end:
//
//	CDFG -> list schedule -> register binding -> {LOPASS | HLPower}
//	     -> gate-level datapath -> glitch-aware 4-LUT mapping
//	     -> 1000-random-vector unit-delay simulation -> power analysis
//
// and provides the experiment harness that regenerates every table and
// figure of the paper's evaluation section.
//
// The pipeline is a typed stage graph (see stages.go): seven cached,
// instrumented stages whose keys name exactly the inputs each depends
// on. A Session shares one stage cache across its whole sweep, so runs
// that differ only in their tail (another binder, another alpha, a
// different delay model) reuse every artifact up to the first stage
// that actually changes.
package flow

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/arch"
	"repro/internal/binding"
	"repro/internal/cdfg"
	"repro/internal/core"
	"repro/internal/datapath"
	"repro/internal/mapper"
	"repro/internal/pipeline"
	"repro/internal/power"
	"repro/internal/satable"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Binder selects the binding algorithm of a run.
type Binder struct {
	// Name labels the run ("LOPASS", "HLPower a=0.5", ...). The name is
	// display-only: stage cache keys derive from the algorithm and its
	// effective parameters, never from the label.
	Name string
	// UseHLPower selects the paper's algorithm; false runs the baseline.
	UseHLPower bool
	// Alpha is HLPower's Eq. 4 weighting (ignored for LOPASS).
	Alpha float64
}

// Standard binder configurations used across the experiments.
var (
	BinderLOPASS    = Binder{Name: "LOPASS"}
	BinderHLPower1  = Binder{Name: "HLPower a=1.0", UseHLPower: true, Alpha: 1.0}
	BinderHLPower05 = Binder{Name: "HLPower a=0.5", UseHLPower: true, Alpha: 0.5}
)

// Config holds the shared experimental parameters.
type Config struct {
	// Arch is the target-architecture descriptor: the LUT input count
	// the mapper covers with, the power model's constants, and an
	// optional FPGA→ASIC projection applied to the final report. The
	// arch is the only description of the fabric: Normalize derives
	// MapOpt, Power and the SA tables from it, and its fingerprint
	// participates in the bind, map, sim, and power stage cache keys
	// (schedule/regbind are fabric-blind and shared across archs).
	// Retarget by setting Arch and normalizing; a zero Arch normalizes
	// to the default CycloneII.
	Arch arch.Target
	// Width is the datapath bit width.
	Width int
	// Vectors is the number of random input vectors (paper: 1000).
	Vectors int
	// VectorSeed seeds the shared .vwf-equivalent stimulus.
	VectorSeed int64
	// PortSeed seeds the shared random port assignment.
	PortSeed int64
	// Table is the shared precalculated glitch-aware SA table HLPower
	// binds with. Sharing contract: SA tables memoize expensive partial-
	// datapath characterizations, so reuse one *satable.Table across
	// every session and run that can share it — DefaultConfig allocates
	// fresh (empty) tables on every call, so build one Config and reuse
	// it rather than calling DefaultConfig repeatedly. A nil or
	// width-mismatched table is replaced by Normalize (sessions
	// normalize automatically).
	Table *satable.Table
	// BaselineTable is the zero-delay (glitch-blind) SA table the LOPASS
	// baseline's power estimator uses. Same sharing contract as Table.
	BaselineTable *satable.Table
	// BetaAdd and BetaMult are HLPower's Eq. 4 muxDiff scale factors.
	// The paper's empirical values (30 / 1000) were calibrated for its
	// 16-bit resource library; the defaults here are the equivalent
	// empirical calibration for this reproduction's 8-bit library.
	BetaAdd, BetaMult float64
	// MapOpt is the implementation mapping's configuration. Normalize
	// always derives it from Arch (mapOptFor), overwriting any value set
	// here.
	MapOpt mapper.Options
	// Delay selects the measurement simulator's delay model. The default
	// is heterogeneous (1..3 units per LUT), modelling post-route timing
	// spread as the paper's Quartus timing simulation does; the analytic
	// estimator inside the binder stays unit-delay per the paper.
	Delay sim.DelayModel
	// DelaySeed fixes the deterministic per-LUT delay assignment.
	DelaySeed int64
	// Power is the electrical/timing model. Normalize always derives it
	// from Arch (power.FromArch), overwriting any value set here.
	Power power.Model
	// BindJobs is the binding engine's scoring worker-pool size (0 =
	// GOMAXPROCS, 1 = serial). Non-semantic: bindings are bit-identical
	// at every setting, so it is excluded from stage cache keys.
	BindJobs int
	// BindK bounds HLPower's candidate rows at the given number of
	// candidates per U-node (core.Options.CandidateK). 0 keeps the
	// automatic selection: small nets keep rows with no bound, nets
	// past the scale threshold bound them at the default k. Semantic —
	// it can change the binding — so it participates in stage cache
	// keys and the config fingerprint.
	BindK int
	// BindExact keeps HLPower's candidate rows with no bound regardless
	// of problem size (core.Options.Exact). Semantic, like BindK.
	BindExact bool
	// SimJobs is the word-parallel simulator's lane-group worker-pool
	// size (0 = GOMAXPROCS, 1 = serial). Non-semantic: Counts and
	// NodeTransitions are bit-identical at every setting, so it is
	// excluded from stage cache keys.
	SimJobs int
	// SimWide is the number of 64-cycle lane groups the simulator
	// event-processes per pass (0 = sim.DefaultWide, clamped to
	// [1, sim.MaxWide]). Non-semantic: results are bit-identical at
	// every width, so it is excluded from stage cache keys.
	SimWide int
	// MapJobs sizes the back end's worker pools: parallel per-FU datapath
	// elaboration and the mapper's level-parallel forward pass and
	// estimate (0 = GOMAXPROCS, 1 = serial).
	// Non-semantic: every artifact is bit-identical at every worker
	// count, so it is excluded from stage cache keys like SimJobs and
	// BindJobs.
	MapJobs int
}

// DefaultConfig returns the configuration the reproduction's experiments
// run with: 8-bit datapath, 1000 vectors, glitch-aware SA table, and
// Cyclone II constants. The final implementation mapping runs in depth
// mode, mirroring the paper's Quartus settings ("optimization technique
// = speed"); the glitch-aware power mapping is what the SA table uses
// inside the binder, exactly as GlitchMap is used as the paper's
// estimator rather than its implementation tool.
//
// Every call allocates fresh, empty SA tables. Callers running more
// than one session should construct one Config and share it (or share
// the tables explicitly) so the expensive SA characterizations are
// computed once — see the sharing contract on Config.Table.
func DefaultConfig() Config {
	target := arch.CycloneII()
	return Config{
		Arch:          target,
		Width:         8,
		Vectors:       1000,
		VectorSeed:    2009,
		PortSeed:      26,
		Table:         satable.New(8, satable.EstimatorGlitch),
		BaselineTable: satable.New(8, satable.EstimatorZeroDelay),
		BetaAdd:       300,
		BetaMult:      10000,
		MapOpt:        mapOptFor(target),
		Delay:         sim.DelayHeterogeneous,
		DelaySeed:     7,
		Power:         power.FromArch(target),
	}
}

// mapOptFor returns the implementation mapping's options on target t:
// its K in depth mode, the paper's Quartus setting ("optimization
// technique = speed").
func mapOptFor(t arch.Target) mapper.Options {
	return mapper.Options{K: t.K, Mode: mapper.ModeDepth}
}

// Normalize returns the config with its architecture and SA-table
// invariants restored: a zero Arch becomes the default CycloneII, MapOpt
// and the Power model follow the arch (the arch is the single source of
// both), and a nil, width-mismatched, or arch-mismatched
// Table/BaselineTable is replaced with a correctly characterized one. This is the safety net for callers that adjust
// Width or Arch after DefaultConfig (or build a Config by hand) and
// would otherwise silently bind against tables characterized for the
// wrong fabric. NewSession and Derive normalize automatically; direct
// stage users should call it themselves.
func (c Config) Normalize() Config {
	if c.Arch.K == 0 {
		c.Arch = arch.CycloneII()
	}
	c.MapOpt = mapOptFor(c.Arch)
	c.Power = power.FromArch(c.Arch)
	if c.Table == nil || c.Table.Width != c.Width || c.Table.CheckArch(c.Arch) != nil {
		c.Table = satable.NewForArch(c.Width, satable.EstimatorGlitch, c.Arch)
	}
	if c.BaselineTable == nil || c.BaselineTable.Width != c.Width || c.BaselineTable.CheckArch(c.Arch) != nil {
		c.BaselineTable = satable.NewForArch(c.Width, satable.EstimatorZeroDelay, c.Arch)
	}
	return c
}

// Result is the full measurement record of one (benchmark, binder) run.
type Result struct {
	Bench    string
	Binder   Binder
	Schedule *cdfg.Schedule
	NumRegs  int
	// BindTime is the binder's runtime (Table 2 reports HLPower's).
	BindTime time.Duration
	// BindReport is the binding engine's run report — store mode, edge
	// reuse, peak memory, per-iteration stats (HLPower only; nil for the
	// baseline algorithms).
	BindReport *core.Report
	// FUMux summarizes FU input muxes (Tables 3 and 4).
	FUMux binding.MuxStats
	// DPMux includes register steering muxes.
	DPMux datapath.MuxReport
	// LUTs and Depth describe the mapped implementation (Table 3 area).
	LUTs  int
	Depth int
	// EstSA is the analytic glitch-aware SA of the mapped design.
	EstSA float64
	// Counts are the measured transitions.
	Counts sim.Counts
	// Power is the PowerPlay-equivalent report.
	Power power.Report
}

// Session caches pipeline runs so the table generators can share them
// (Table 3, Table 4 and Figure 3 reuse identical runs, like the paper's
// single experimental sweep). Underneath the per-(benchmark, binder)
// run cache sits a per-stage artifact cache: all binders (and all
// ablation variants) of one benchmark share a single schedule and
// register-binding computation, parameter sweeps share everything up to
// the first stage their parameter feeds, and sweep points whose
// bindings coincide share the mapped netlist, simulation, and power
// analysis too.
//
// A Session is safe for concurrent use: both caches are singleflight —
// concurrent demands for one artifact share a single computation — so
// RunAll can fan the sweep out over worker goroutines without
// duplicating or racing any work.
//
// Failures never poison a session: errors (including recovered panics,
// surfaced as *pipeline.StageError) are not cached, so a pair that
// failed under a cancelled context or an injected fault recomputes
// cleanly on the next demand.
type Session struct {
	// Cfg is the session's normalized configuration (see
	// Config.Normalize; NewSession normalizes its argument).
	Cfg Config
	// Benchmarks is the profile set the tables iterate over; defaults to
	// the full seven-benchmark suite of the paper.
	Benchmarks []workload.Profile
	// Jobs bounds the worker count RunAll (and the parallel table and
	// ablation generators) fan out with; 0 selects GOMAXPROCS.
	Jobs int

	// runs is the per-(benchmark, binder) result cache. It is a
	// pipeline.Cache of its own (class runClass) rather than a plain map
	// so run-level demands get the same semantics as stage artifacts:
	// singleflight sharing, context-aware waiting, no caching of errors,
	// and waiter-retry on failure (a caller never adopts a foreign
	// cancellation or injected fault as its own result).
	runs *pipeline.Cache

	// stages is the shared per-stage artifact cache; its per-class Stats
	// are the session's per-stage demand, hit and time record.
	stages *pipeline.Cache
}

// runClass is the runs-cache class key; kept out of StageNames so
// Session.StageStats reports pipeline stages only.
const runClass = "run"

// NewSession creates a run cache over a configuration covering the full
// benchmark suite. The configuration is normalized (see
// Config.Normalize): nil or width-mismatched SA tables are replaced, so
// a zero-value or hand-edited table field cannot silently bind against
// the wrong characterization.
func NewSession(cfg Config) *Session {
	return &Session{
		Cfg:        cfg.Normalize(),
		Benchmarks: workload.Benchmarks,
		runs:       pipeline.NewCache(),
		stages:     pipeline.NewCache(),
	}
}

// Derive returns a new Session for a different configuration that
// shares this session's stage-artifact cache. Runs in the
// derived session recompute only the stages whose inputs cfg actually
// changes — the cross-config analogue of the in-session sweep sharing:
// deriving a session per DelaySeed, say, reuses every artifact through
// mapping and re-runs only simulation and power analysis. The
// per-(benchmark, binder) run cache is not shared (its key does not
// cover the config). Safe for concurrent use like any Session.
func (se *Session) Derive(cfg Config) *Session {
	return &Session{
		Cfg:        cfg.Normalize(),
		Benchmarks: se.Benchmarks,
		Jobs:       se.Jobs,
		runs:       pipeline.NewCache(),
		stages:     se.stages,
	}
}

// runKey derives the run cache key for (benchmark, binder): the
// profile's content fingerprint plus the binder's *resolved* parameter
// fingerprint. Semantic, never the display name — two Binder values
// that resolve to the same algorithm and parameters share one run, and
// a name reused across different parameters can never collide. The key
// is also stable across processes, which is what lets a durable store
// serve whole run results to a restarted daemon (the store additionally
// namespaces the class by the session's Config fingerprint, covering
// the fields runKey deliberately omits — see AttachStore).
func (se *Session) runKey(p workload.Profile, b Binder) string {
	return p.Name + "|" + pipeline.NewHasher().
		Str(profileKey(p)).Str(specForBinder(b, se.Cfg).fp()).
		Sum()
}

// Run returns the cached result for (benchmark, binder), executing the
// pipeline on first use. Concurrent calls for the same pair share one
// execution and return the identical *Result. A failed execution is not
// cached: concurrent waiters retry under their own context, and a later
// Run recomputes the pair from whatever stage artifacts survived.
//
// If this call ends up executing the pipeline (rather than being served
// from the run cache or waiting out another caller's execution), every
// stage span is recorded into the traces ctx carries
// (pipeline.WithTraces) as it completes — the daemon's progress
// streaming attaches an observer to such a trace.
func (se *Session) Run(ctx context.Context, p workload.Profile, b Binder) (*Result, error) {
	return se.run(ctx, se.runKey(p, b), p.Name, p.RC, b, func(ctx context.Context) (*schedArtifact, error) {
		return stageSchedule.Exec(ctx, se.stages, p)
	})
}

// RunGraphCtx executes the pipeline on an arbitrary CDFG through the
// session's stage and run caches — the streaming-ingestion entry point:
// graphs arriving continuously at the daemon all funnel through one
// session, so identical submissions (and submissions whose artifacts
// coincide partway down the pipeline) share work exactly like benchmark
// sweeps do. The run key is content-addressed (graph + schedule + rc +
// resolved binder parameters), so a resubmitted graph is a cache hit
// regardless of its display name.
func (se *Session) RunGraphCtx(ctx context.Context, g *cdfg.Graph, name string, rc cdfg.ResourceConstraint, b Binder) (*Result, error) {
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("flow: %s: %w", name, err)
	}
	s, err := cdfg.ListSchedule(g, rc)
	if err != nil {
		return nil, fmt.Errorf("flow: %s: %w", name, err)
	}
	fe := newSchedArtifact(g, s)
	key := "graph|" + pipeline.NewHasher().
		Str(fe.fp).Int(rc.Add).Int(rc.Mult).Str(specForBinder(b, se.Cfg).fp()).
		Sum()
	return se.run(ctx, key, name, rc, b, func(context.Context) (*schedArtifact, error) {
		return fe, nil
	})
}

// run is the one execution path behind every run entry point: it
// demands key from the run cache and, on a miss, obtains the scheduled
// front end from front and executes the staged pipeline through the
// session's stage cache. Stage spans go to the traces the caller's ctx
// carries.
func (se *Session) run(ctx context.Context, key, name string, rc cdfg.ResourceConstraint, b Binder, front func(context.Context) (*schedArtifact, error)) (*Result, error) {
	v, _, err := se.runs.Do(ctx, runClass, key, func() (any, error) {
		fe, err := front(ctx)
		if err != nil {
			return nil, err
		}
		return runPipeline(ctx, se.stages, se.Cfg, fe, name, rc, b)
	})
	if err != nil {
		return nil, err
	}
	return v.(*Result), nil
}

// Peek returns the completed cached result for (benchmark, binder)
// without computing, waiting, or touching cache statistics. The daemon
// uses it to label responses warm before demanding the run.
func (se *Session) Peek(p workload.Profile, b Binder) (*Result, bool) {
	v, ok := se.runs.Lookup(runClass, se.runKey(p, b))
	if !ok {
		return nil, false
	}
	return v.(*Result), true
}

// StageStats returns the per-stage cache counters of the session's
// artifact cache: how many times each pipeline stage was demanded, how
// often the demand was served from cache, and the time spent computing
// and waiting. Derived sessions share the counters. Stage names follow
// StageNames.
func (se *Session) StageStats() map[string]pipeline.Stats {
	return se.stages.AllStats()
}

// BindStat is one binding-engine report with its provenance: the
// benchmark and the deterministic algorithm label (never the display
// Binder name). cmd/hlpower serializes these for -bindstats.
type BindStat struct {
	Bench string `json:"bench"`
	// Algo identifies the algorithm and its distinguishing parameters,
	// e.g. "hlpower alpha=0.5".
	Algo   string       `json:"algo"`
	Report *core.Report `json:"report"`
}

// BindStats returns the engine reports of every HLPower binding the
// session's stage cache holds, sorted by (bench, algo). Baseline
// bindings carry no engine report and are omitted; cached bindings
// report the statistics recorded when they were first computed.
func (se *Session) BindStats() []BindStat {
	var out []BindStat
	for _, v := range se.stages.Snapshot(StageBind) {
		ba, ok := v.(*bindArtifact)
		if !ok || ba.rep == nil {
			continue
		}
		out = append(out, BindStat{Bench: ba.bench, Algo: ba.algo, Report: ba.rep})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Bench != out[j].Bench {
			return out[i].Bench < out[j].Bench
		}
		return out[i].Algo < out[j].Algo
	})
	return out
}
