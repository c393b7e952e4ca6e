package flow

// This file defines the staged form of the HLPower pipeline: seven
// typed pipeline.Stage units (schedule, regbind, bind, datapath, map,
// sim, power) with explicit cache keys, composed by runPipeline. Keys
// chain: every stage's key combines the upstream artifact's fingerprint
// with exactly the configuration fields that stage reads, so a Session
// sharing one pipeline.Cache across its sweep recomputes only what a
// configuration point actually changes — every binder shares one
// schedule/regbind computation per benchmark, an alpha/beta ablation
// shares everything up to binding, and a delay-model variant shares
// everything through mapping. The bind stage's output fingerprint is
// content-addressed (a hash of the binding itself, not of the binder
// parameters), so sweep points whose bindings coincide share the whole
// back end too.
//
// Cached artifacts are shared across runs and must never be mutated
// downstream; passes that rewrite a binding (ports.OptimizePorts) run
// inside the producing stage so the cache only ever holds final
// artifacts.

import (
	"context"
	"fmt"
	"time"

	"repro/internal/arch"
	"repro/internal/binding"
	"repro/internal/cdfg"
	"repro/internal/core"
	"repro/internal/datapath"
	"repro/internal/lopass"
	"repro/internal/mapper"
	"repro/internal/modsel"
	"repro/internal/par"
	"repro/internal/pipeline"
	"repro/internal/power"
	"repro/internal/regbind"
	"repro/internal/satable"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Stage names, in pipeline order. Exported indirectly through
// Session.StageStats keys and trace spans.
const (
	StageSchedule = "schedule"
	StageRegbind  = "regbind"
	StageBind     = "bind"
	StageDatapath = "datapath"
	StageMap      = "map"
	StageSim      = "sim"
	StagePower    = "power"
)

// StageNames lists the pipeline stages in execution order.
var StageNames = []string{StageSchedule, StageRegbind, StageBind, StageDatapath, StageMap, StageSim, StagePower}

// ---------------------------------------------------------------------
// Fingerprints.

// profileKey fingerprints the workload-profile fields the schedule stage
// depends on (PaperEdges is informational and excluded).
func profileKey(p workload.Profile) string {
	return pipeline.NewHasher().
		Str(p.Name).Int(p.PIs).Int(p.POs).Int(p.Adds).Int(p.Mults).
		Int(p.RC.Add).Int(p.RC.Mult).Int(p.Cycle).Int64(p.Seed).
		Sum()
}

// contentFP fingerprints a scheduled graph by content, so ingested
// graphs (RunGraphCtx) share downstream artifacts with
// profile-generated ones when they coincide.
func contentFP(g *cdfg.Graph, s *cdfg.Schedule) string {
	h := pipeline.NewHasher()
	h.Str(g.Name).Int(len(g.Nodes))
	for _, n := range g.Nodes {
		h.Int(n.ID).Int(int(n.Kind)).Str(n.Name).Ints(n.Args)
	}
	h.Ints(g.Inputs).Ints(g.Outputs)
	h.Ints(s.Step).Int(s.Len).Int(s.Lib.AddLatency).Int(s.Lib.MultLatency)
	return h.Sum()
}

// tableFP fingerprints an SA table by the values that determine its
// contents (width, estimator, target architecture, embedded mapper
// options). Table entries are deterministic in these, so equal
// fingerprints mean interchangeable tables — the contract that lets
// sessions share binds across identically configured table instances.
// (A table loaded from disk is assumed to hold its estimator's values,
// the same assumption satable itself documents; the arch stamp in its
// snapshot header backs the arch component.) The fingerprint is
// satable's own (Table.Fingerprint), so the stage cache keys and the
// durable store's sa@<fp> class namespace can never drift apart.
func tableFP(t *satable.Table) string {
	if t == nil {
		return "none"
	}
	return t.Fingerprint()
}

// Retired settings. The flow no longer has a pre-mapping cleanup pass,
// a mapper macro policy or mainline module selection, but the keys
// they fed still hash the one value each had left, in its old
// position, so stores written before their removal stay warm:
// preOptimizeOff in the map key and the config fingerprint, the macro
// policy and threshold (0, 0) after every mapper-option hash
// (mapOptKey), and "none" for mainline module selection (modselFP(nil))
// in the config fingerprint.
const preOptimizeOff = false

// mapOptKey hashes the mapper options an artifact depends on, followed
// by the retired macro policy and threshold.
func mapOptKey(h *pipeline.Hasher, o mapper.Options) *pipeline.Hasher {
	return o.HashInto(h).Int(0).Int(0)
}

// modselFP fingerprints a resolved module-selection request (nil =
// baseline resource library).
func modselFP(o *modsel.Options) string {
	if o == nil {
		return "none"
	}
	h := pipeline.NewHasher().Int(o.Width).Int(o.MaxDepth).F64(o.Margin)
	return mapOptKey(h, o.MapOpt).Sum()
}

// resFP fingerprints a binding result by content. Combined with the
// upstream fingerprint it addresses every downstream artifact: two
// sweep points that bind identically share datapath, mapping,
// simulation, and power analysis.
func resFP(res *binding.Result) string {
	h := pipeline.NewHasher()
	h.Int(len(res.FUs))
	for _, fu := range res.FUs {
		h.Int(fu.ID).Str(string(fu.Kind)).Ints(fu.Ops)
	}
	h.Ints(res.FUOf).Bools(res.SwapPorts)
	return h.Sum()
}

// ---------------------------------------------------------------------
// Artifacts. All artifacts are immutable once produced.

// schedArtifact is the scheduled benchmark graph: the output of the
// workload/schedule stage and the root of every downstream key.
type schedArtifact struct {
	g *cdfg.Graph
	s *cdfg.Schedule
	// fp is the content fingerprint of (g, s).
	fp string
}

func newSchedArtifact(g *cdfg.Graph, s *cdfg.Schedule) *schedArtifact {
	return &schedArtifact{g: g, s: s, fp: contentFP(g, s)}
}

// regbindArtifact is the shared front end both binders start from: the
// random port assignment and the register binding (paper §5.1).
type regbindArtifact struct {
	swap []bool
	rb   *regbind.Binding
	fp   string
}

// bindArtifact is one completed functional-unit binding.
type bindArtifact struct {
	res      *binding.Result
	bindTime time.Duration
	// bench and algo record deterministic provenance for
	// Session.BindStats (algo is the spec label, never the display-only
	// Binder name).
	bench, algo string
	// rep is the engine report with per-iteration stats (HLPower only;
	// nil for the baseline algorithms).
	rep *core.Report
	// fp is content-addressed: hash(upstream fp, binding content).
	fp string
}

// dpArtifact is the elaborated gate-level datapath.
type dpArtifact struct {
	d  *datapath.Design
	fp string
}

// mapArtifact is the 4-LUT technology-mapped implementation.
type mapArtifact struct {
	m  *mapper.Result
	fp string
}

// ---------------------------------------------------------------------
// Binder and datapath specifications.

// bindSpec is the resolved parameter set of one binding-stage
// invocation. It captures the effective values (post defaulting), so the
// cache key reflects what the binder actually runs with; the display
// name of a Binder is deliberately not part of it.
type bindSpec struct {
	// algo selects the algorithm: "hlpower", "lopass", or "lopass-flow".
	algo  string
	alpha float64
	// betaAdd/betaMult are HLPower's effective Eq. 4 scale factors.
	betaAdd, betaMult float64
	mergesPerIter     int
	// table is the SA table (HLPower's estimator, or LOPASS's
	// pre-characterized power model; nil for the structural variants).
	table *satable.Table
	// candidateK/exact select HLPower's edge-store mode (Config.BindK /
	// Config.BindExact). Semantic: sparse mode at a small k can change
	// the binding, so both are part of fp().
	candidateK int
	exact      bool
	// portOpt applies post-binding port re-assignment [2] inside the
	// stage, so the cached artifact is the final, optimized binding.
	portOpt bool
	// workers is the engine's scoring worker-pool size (Config.BindJobs).
	// Deliberately excluded from fp(): bindings are bit-identical at
	// every worker count, so it must not split the cache.
	workers int
}

// specForBinder resolves a mainline Binder (every Session run and
// sweep) against a config: zero-valued betas fall back to
// core.DefaultOptions.
func specForBinder(b Binder, cfg Config) bindSpec {
	if !b.UseHLPower {
		return bindSpec{algo: "lopass", table: cfg.BaselineTable, workers: cfg.BindJobs}
	}
	def := core.DefaultOptions(cfg.Table)
	spec := bindSpec{
		algo:          "hlpower",
		alpha:         b.Alpha,
		betaAdd:       def.BetaAdd,
		betaMult:      def.BetaMult,
		mergesPerIter: 1,
		table:         cfg.Table,
		candidateK:    cfg.BindK,
		exact:         cfg.BindExact,
		workers:       cfg.BindJobs,
	}
	if cfg.BetaAdd > 0 {
		spec.betaAdd = cfg.BetaAdd
	}
	if cfg.BetaMult > 0 {
		spec.betaMult = cfg.BetaMult
	}
	return spec
}

func (sp bindSpec) fp() string {
	return pipeline.NewHasher().
		Str(sp.algo).F64(sp.alpha).F64(sp.betaAdd).F64(sp.betaMult).
		Int(sp.mergesPerIter).Str(tableFP(sp.table)).Bool(sp.portOpt).
		Int(sp.candidateK).Bool(sp.exact).
		Sum()
}

// label is the deterministic algorithm tag bind statistics are reported
// under. Binder display names are free-form and excluded from cache
// identity, so they cannot serve as stable provenance.
func (sp bindSpec) label() string {
	if sp.algo == "hlpower" {
		l := fmt.Sprintf("hlpower alpha=%g", sp.alpha)
		if sp.exact {
			l += " exact"
		} else if sp.candidateK > 0 {
			l += fmt.Sprintf(" k=%d", sp.candidateK)
		}
		return l
	}
	return sp.algo
}

// ---------------------------------------------------------------------
// Stage inputs.

type regbindIn struct {
	name     string // benchmark name, for error context
	fe       *schedArtifact
	portSeed int64
}

type bindIn struct {
	name   string
	binder string // display name, for error context only
	fe     *schedArtifact
	rba    *regbindArtifact
	rc     cdfg.ResourceConstraint
	spec   bindSpec
}

type datapathIn struct {
	name   string
	binder string
	fe     *schedArtifact
	rba    *regbindArtifact
	ba     *bindArtifact
	width  int
	modsel *modsel.Options
	// jobs sizes the per-FU parallel elaboration (Config.MapJobs).
	// Non-semantic — the network is byte-identical at every worker
	// count — so the stage Key excludes it.
	jobs int
}

type mapIn struct {
	name   string
	binder string
	dp     *dpArtifact
	mapOpt mapper.Options
	// archFP is the target architecture's fingerprint. The mapper
	// itself reads only mapOpt (whose K the arch already owns), but the
	// full fingerprint keys the artifact so every fabric gets its own
	// mapped implementation — the contract that map, sim, and power
	// never share across archs, while schedule/regbind/datapath (which
	// are fabric-blind) still do.
	archFP string
}

type simIn struct {
	name       string
	binder     string
	ma         *mapArtifact
	delay      sim.DelayModel
	delaySeed  int64
	vectors    int
	vectorSeed int64
	// simJobs is the word engine's worker count and simWide its
	// lane-group width per event pass. Both non-semantic (counts are
	// bit-identical at every setting), so simKey excludes them.
	simJobs int
	simWide int
}

type powerIn struct {
	name   string
	binder string
	ma     *mapArtifact
	counts sim.Counts
	simKey string
	// arch supplies the power model's constants and, when its
	// Projection is set, the FPGA→ASIC gap factors applied inside the
	// stage, so the cached artifact is the final (projected) report.
	// The stage Key omits it: simKey already chains the map key, which
	// carries the full arch fingerprint.
	arch arch.Target
}

// simKey derives the simulate stage's cache key; the power stage chains
// on it (the counts are fully determined by it).
func simKey(in simIn) string {
	return pipeline.NewHasher().
		Str(in.ma.fp).Int(int(in.delay)).Int64(in.delaySeed).
		Int(in.vectors).Int64(in.vectorSeed).
		Sum()
}

// ---------------------------------------------------------------------
// The stages.

// stageSchedule generates a benchmark CDFG and schedules it to the
// paper's Table 2 cycle count — the binder-independent root of the
// pipeline, computed once per benchmark per session.
var stageSchedule = pipeline.Stage[workload.Profile, *schedArtifact]{
	Name:  StageSchedule,
	Key:   func(p workload.Profile) string { return profileKey(p) },
	Scope: func(p workload.Profile) pipeline.Scope { return pipeline.Scope{Bench: p.Name} },
	Run: func(_ context.Context, p workload.Profile) (*schedArtifact, error) {
		g := workload.Generate(p)
		s, err := workload.Schedule(p, g)
		if err != nil {
			return nil, fmt.Errorf("flow: %s: %w", p.Name, err)
		}
		if err := g.Validate(); err != nil {
			return nil, fmt.Errorf("flow: %s: %w", p.Name, err)
		}
		if err := cdfg.ValidateSchedule(g, s, p.RC); err != nil {
			return nil, fmt.Errorf("flow: %s: %w", p.Name, err)
		}
		return newSchedArtifact(g, s), nil
	},
	Size: func(a *schedArtifact) int { return len(a.g.Nodes) },
}

// stageRegbind fixes the random port assignment and binds registers —
// the shared state both binders must agree on (paper §5.1).
var stageRegbind = pipeline.Stage[regbindIn, *regbindArtifact]{
	Name: StageRegbind,
	Key: func(in regbindIn) string {
		return pipeline.NewHasher().Str(in.fe.fp).Int64(in.portSeed).Sum()
	},
	Scope: func(in regbindIn) pipeline.Scope { return pipeline.Scope{Bench: in.name} },
	Run: func(_ context.Context, in regbindIn) (*regbindArtifact, error) {
		swap := binding.RandomPortAssignment(in.fe.g, in.portSeed)
		rb, err := regbind.BindOpt(in.fe.g, in.fe.s, regbind.Options{Swap: swap})
		if err != nil {
			return nil, fmt.Errorf("flow: %s: %w", in.name, err)
		}
		fp := pipeline.NewHasher().Str(in.fe.fp).Int64(in.portSeed).Str("regbind").Sum()
		return &regbindArtifact{swap: swap, rb: rb, fp: fp}, nil
	},
	Size: func(a *regbindArtifact) int { return a.rb.NumRegs },
}

// stageBind runs the selected binding algorithm. The artifact's
// fingerprint hashes the produced binding, not the parameters, so
// parameter points with coinciding bindings share every later stage.
var stageBind = pipeline.Stage[bindIn, *bindArtifact]{
	Name: StageBind,
	Key: func(in bindIn) string {
		return pipeline.NewHasher().
			Str(in.rba.fp).Int(in.rc.Add).Int(in.rc.Mult).Str(in.spec.fp()).
			Sum()
	},
	Scope: func(in bindIn) pipeline.Scope { return pipeline.Scope{Bench: in.name, Binder: in.binder} },
	Run: func(ctx context.Context, in bindIn) (*bindArtifact, error) {
		g, s, rb := in.fe.g, in.fe.s, in.rba.rb
		var res *binding.Result
		var rt time.Duration
		var engRep *core.Report
		switch in.spec.algo {
		case "hlpower":
			opt := core.DefaultOptions(in.spec.table)
			opt.Alpha = in.spec.alpha
			opt.BetaAdd, opt.BetaMult = in.spec.betaAdd, in.spec.betaMult
			opt.MergesPerIteration = in.spec.mergesPerIter
			opt.Swap = in.rba.swap
			opt.Workers = in.spec.workers
			opt.CandidateK = in.spec.candidateK
			opt.Exact = in.spec.exact
			r, rep, err := core.Bind(g, s, rb, in.rc, opt)
			if err != nil {
				return nil, fmt.Errorf("flow: %s/%s: %w", in.name, in.binder, err)
			}
			res, rt, engRep = r, rep.Runtime, rep
		case "lopass":
			r, rep, err := lopass.Bind(g, s, rb, in.rc, lopass.Options{Swap: in.rba.swap, Table: in.spec.table, Jobs: in.spec.workers})
			if err != nil {
				return nil, fmt.Errorf("flow: %s/%s: %w", in.name, in.binder, err)
			}
			res, rt = r, rep.Runtime
		case "lopass-flow":
			r, rep, err := lopass.BindFlow(g, s, rb, in.rc, lopass.Options{Swap: in.rba.swap})
			if err != nil {
				return nil, fmt.Errorf("flow: %s/%s: %w", in.name, in.binder, err)
			}
			res, rt = r, rep.Runtime
		default:
			return nil, fmt.Errorf("flow: %s/%s: unknown binding algorithm %q", in.name, in.binder, in.spec.algo)
		}
		if in.spec.portOpt {
			// Mutating pass: runs here, inside the producing stage, so
			// the cached artifact is final (see package comment).
			binding.OptimizePorts(g, rb, res)
		}
		fp := pipeline.NewHasher().Str(in.rba.fp).Str(resFP(res)).Sum()
		return &bindArtifact{
			res: res, bindTime: rt,
			bench: in.name, algo: in.spec.label(), rep: engRep,
			fp: fp,
		}, nil
	},
	Size: func(a *bindArtifact) int { return len(a.res.FUs) },
}

// stageDatapath selects module architectures (optional) and elaborates
// the gate-level datapath.
var stageDatapath = pipeline.Stage[datapathIn, *dpArtifact]{
	Name: StageDatapath,
	Key: func(in datapathIn) string {
		return pipeline.NewHasher().
			Str(in.ba.fp).Int(in.width).Str(modselFP(in.modsel)).
			Sum()
	},
	Scope: func(in datapathIn) pipeline.Scope { return pipeline.Scope{Bench: in.name, Binder: in.binder} },
	Run: func(_ context.Context, in datapathIn) (*dpArtifact, error) {
		var arch *datapath.Arch
		if in.modsel != nil {
			sel, err := modsel.NewSelector(*in.modsel).Select(in.fe.g, in.rba.rb, in.ba.res)
			if err != nil {
				return nil, fmt.Errorf("flow: %s/%s: %w", in.name, in.binder, err)
			}
			adder, mult := sel.Arch()
			arch = &datapath.Arch{Adder: adder, Mult: mult}
		}
		d, err := datapath.ElaborateArchJobs(in.fe.g, in.fe.s, in.rba.rb, in.ba.res, in.width, arch, in.jobs)
		if err != nil {
			return nil, fmt.Errorf("flow: %s/%s: %w", in.name, in.binder, err)
		}
		fp := pipeline.NewHasher().Str(in.ba.fp).Int(in.width).Str(modselFP(in.modsel)).Str("dp").Sum()
		return &dpArtifact{d: d, fp: fp}, nil
	},
	Size: func(a *dpArtifact) int { return len(a.d.Net.Nodes) },
}

// stageMap runs the glitch-aware K-LUT technology mapper for the
// configured architecture on the elaborated netlist.
var stageMap = pipeline.Stage[mapIn, *mapArtifact]{
	Name: StageMap,
	Key: func(in mapIn) string {
		h := pipeline.NewHasher().Str(in.dp.fp).Bool(preOptimizeOff).Str(in.archFP)
		return mapOptKey(h, in.mapOpt).Sum()
	},
	Scope: func(in mapIn) pipeline.Scope { return pipeline.Scope{Bench: in.name, Binder: in.binder} },
	Run: func(_ context.Context, in mapIn) (*mapArtifact, error) {
		m, err := mapper.Map(in.dp.d.Net, in.mapOpt)
		if err != nil {
			return nil, fmt.Errorf("flow: %s/%s: %w", in.name, in.binder, err)
		}
		h := pipeline.NewHasher().Str(in.dp.fp).Bool(preOptimizeOff).Str(in.archFP).Str("map")
		fp := mapOptKey(h, in.mapOpt).Sum()
		return &mapArtifact{m: m, fp: fp}, nil
	},
	Size: func(a *mapArtifact) int { return a.m.LUTs },
}

// stageSim runs the random-vector delay simulation and counts
// transitions.
var stageSim = pipeline.Stage[simIn, sim.Counts]{
	Name:  StageSim,
	Key:   simKey,
	Scope: func(in simIn) pipeline.Scope { return pipeline.Scope{Bench: in.name, Binder: in.binder} },
	Run: func(ctx context.Context, in simIn) (sim.Counts, error) {
		// The word-parallel engine is bit-identical to the scalar
		// Simulator in every count (see internal/sim/word.go and its
		// equivalence tests), so the measurement flow runs it; the
		// scalar engine remains the reference path for VCD dumps and
		// oracle tests. RunRandomCtx checks ctx inside the run, so a
		// sweep under -timeout or Ctrl-C never waits out a long
		// vector run.
		sr, err := sim.NewWordWithDelays(in.ma.m.Mapped, in.delay, in.delaySeed)
		if err != nil {
			return sim.Counts{}, fmt.Errorf("flow: %s/%s: %w", in.name, in.binder, err)
		}
		if in.simWide != 0 {
			sr.SetWide(in.simWide)
		}
		return sr.RunRandomCtx(ctx, in.vectors, in.vectorSeed, in.simJobs)
	},
	Size: func(c sim.Counts) int { return int(c.Gate + c.Latch) },
}

// stagePower produces the PowerPlay-equivalent report, applying the
// architecture's FPGA→ASIC projection (if any) so the cached report is
// final.
var stagePower = pipeline.Stage[powerIn, power.Report]{
	Name: StagePower,
	Key: func(in powerIn) string {
		return pipeline.NewHasher().Str(in.simKey).Sum()
	},
	Scope: func(in powerIn) pipeline.Scope { return pipeline.Scope{Bench: in.name, Binder: in.binder} },
	Run: func(_ context.Context, in powerIn) (power.Report, error) {
		rep := power.FromArch(in.arch).Analyze(in.ma.m.Mapped, in.counts)
		if p := in.arch.Projection; p != nil {
			rep = power.Project(*p, rep)
		}
		return rep, nil
	},
}

// ---------------------------------------------------------------------
// Composition.

// runBackEnd executes the post-binding stages (datapath, map, sim,
// power) for one bound design. The ablation study and the mainline
// pipeline share it.
func runBackEnd(ctx context.Context, cache *pipeline.Cache, cfg Config, fe *schedArtifact, rba *regbindArtifact, ba *bindArtifact, name, binderName string, ms *modsel.Options) (*dpArtifact, *mapArtifact, sim.Counts, power.Report, error) {
	jobs := par.Jobs(cfg.MapJobs)
	dp, err := stageDatapath.Exec(ctx, cache, datapathIn{
		name: name, binder: binderName, fe: fe, rba: rba, ba: ba,
		width: cfg.Width, modsel: ms, jobs: jobs,
	})
	if err != nil {
		return nil, nil, sim.Counts{}, power.Report{}, err
	}
	// The mapper's worker count and the macro-cover memo ride along in
	// the options but are excluded from mapOptKey, so they never split
	// the stage cache. The memo is backed by the session's stage cache
	// under a per-arch class ("macro@<archFP>"): covers persist across
	// runs and, with an attached store, across processes.
	mopt := cfg.MapOpt
	mopt.Jobs = jobs
	mopt.Macros = mapper.NewMacroCache(cache, "macro@"+cfg.Arch.Fingerprint())
	ma, err := stageMap.Exec(ctx, cache, mapIn{
		name: name, binder: binderName, dp: dp, mapOpt: mopt,
		archFP: cfg.Arch.Fingerprint(),
	})
	if err != nil {
		return nil, nil, sim.Counts{}, power.Report{}, err
	}
	sin := simIn{
		name: name, binder: binderName, ma: ma,
		delay: cfg.Delay, delaySeed: cfg.DelaySeed,
		vectors: cfg.Vectors, vectorSeed: cfg.VectorSeed,
		simJobs: cfg.SimJobs, simWide: cfg.SimWide,
	}
	counts, err := stageSim.Exec(ctx, cache, sin)
	if err != nil {
		return nil, nil, sim.Counts{}, power.Report{}, err
	}
	rep, err := stagePower.Exec(ctx, cache, powerIn{
		name: name, binder: binderName,
		ma: ma, counts: counts, simKey: simKey(sin), arch: cfg.Arch,
	})
	if err != nil {
		return nil, nil, sim.Counts{}, power.Report{}, err
	}
	return dp, ma, counts, rep, nil
}

// runPipeline executes the staged pipeline from a scheduled front end
// through the measurement back end, assembling the full Result record.
func runPipeline(ctx context.Context, cache *pipeline.Cache, cfg Config, fe *schedArtifact, name string, rc cdfg.ResourceConstraint, b Binder) (*Result, error) {
	rba, err := stageRegbind.Exec(ctx, cache, regbindIn{name: name, fe: fe, portSeed: cfg.PortSeed})
	if err != nil {
		return nil, err
	}
	ba, err := stageBind.Exec(ctx, cache, bindIn{
		name: name, binder: b.Name, fe: fe, rba: rba, rc: rc,
		spec: specForBinder(b, cfg),
	})
	if err != nil {
		return nil, err
	}
	dp, ma, counts, rep, err := runBackEnd(ctx, cache, cfg, fe, rba, ba, name, b.Name, nil)
	if err != nil {
		return nil, err
	}
	return &Result{
		Bench:      name,
		Binder:     b,
		Schedule:   fe.s,
		NumRegs:    rba.rb.NumRegs,
		BindTime:   ba.bindTime,
		BindReport: ba.rep,
		FUMux:      binding.ComputeMuxStats(fe.g, rba.rb, ba.res),
		DPMux:      dp.d.Muxes,
		LUTs:       ma.m.LUTs,
		Depth:      ma.m.Depth,
		EstSA:      ma.m.EstSA,
		Counts:     counts,
		Power:      rep,
	}, nil
}
