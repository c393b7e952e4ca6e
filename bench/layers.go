package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/binding"
	"repro/internal/cdfg"
	"repro/internal/core"
	"repro/internal/datapath"
	"repro/internal/flow"
	"repro/internal/lopass"
	"repro/internal/mapper"
	"repro/internal/netgen"
	"repro/internal/pipeline"
	"repro/internal/power"
	"repro/internal/regbind"
	"repro/internal/satable"
	"repro/internal/sim"
	"repro/internal/workload"
)

// This file is the traced run. It re-executes a workload's designs by
// calling each layer's public function directly, in the order and with
// the settings the flow's stages use (internal/flow/stages.go), and
// times every call: the per-layer rows. The spans are recorded here,
// around the calls, so the program itself is not instrumented; the
// end-to-end metrics come from separate runs with tracing off.

// layerTrace accumulates the time and work counts of each layer over
// the designs a traced run re-executes.
type layerTrace struct {
	schedule, regbind, hlpower, score, solve, lopass time.Duration
	datapath, mapping, sim, power                    time.Duration

	regs, iterations, edgesScored, edgesReused, gates, depth int
	transitions, peakStoreBytes                              int64
	tableMisses                                              int
}

// layerRunner re-executes designs under one flow configuration. Like a
// cold flow.Session it starts with empty SA tables and an empty macro
// cover cache, and shares them across every design it runs.
type layerRunner struct {
	cfg    flow.Config
	jobs   int
	macros *mapper.MacroCache
	lt     layerTrace
}

func newLayerRunner(cfg flow.Config) *layerRunner {
	cfg = cfg.Normalize()
	jobs := cfg.MapJobs
	if jobs == 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	return &layerRunner{
		cfg:    cfg,
		jobs:   jobs,
		macros: mapper.NewMacroCache(pipeline.NewCache(), "macro@"+cfg.Arch.Fingerprint()),
	}
}

// run re-executes d with each of its binders and returns the outcomes
// by design key.
func (lr *layerRunner) run(ctx context.Context, d design) (map[string]outcome, error) {
	cfg, lt := lr.cfg, &lr.lt

	t := time.Now()
	g, s, rc, err := schedule(d)
	lt.schedule += time.Since(t)
	if err != nil {
		return nil, err
	}

	t = time.Now()
	swap := binding.RandomPortAssignment(g, cfg.PortSeed)
	rb, err := regbind.BindOpt(g, s, regbind.Options{Swap: swap})
	lt.regbind += time.Since(t)
	if err != nil {
		return nil, fmt.Errorf("%s: regbind: %w", d.name, err)
	}
	lt.regs += rb.NumRegs

	out := make(map[string]outcome)
	for _, b := range d.binders() {
		res, err := lr.bind(g, s, rb, rc, swap, b)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", d.key(b), err)
		}

		t = time.Now()
		dp, err := datapath.ElaborateArchJobs(g, s, rb, res, cfg.Width, nil, lr.jobs)
		lt.datapath += time.Since(t)
		if err != nil {
			return nil, fmt.Errorf("%s: datapath: %w", d.key(b), err)
		}
		lt.gates += len(dp.Net.Nodes)

		mopt := cfg.MapOpt
		mopt.Jobs = lr.jobs
		mopt.Macros = lr.macros
		t = time.Now()
		m, err := mapper.Map(dp.Net, mopt)
		lt.mapping += time.Since(t)
		if err != nil {
			return nil, fmt.Errorf("%s: map: %w", d.key(b), err)
		}
		lt.depth += m.Depth

		t = time.Now()
		ws, err := sim.NewWordWithDelays(m.Mapped, cfg.Delay, cfg.DelaySeed)
		if err != nil {
			return nil, fmt.Errorf("%s: sim: %w", d.key(b), err)
		}
		if cfg.SimWide != 0 {
			ws.SetWide(cfg.SimWide)
		}
		counts, err := ws.RunRandomCtx(ctx, cfg.Vectors, cfg.VectorSeed, cfg.SimJobs)
		lt.sim += time.Since(t)
		if err != nil {
			return nil, fmt.Errorf("%s: sim: %w", d.key(b), err)
		}
		lt.transitions += counts.Total()

		t = time.Now()
		rep := cfg.Power.AnalyzeJobs(m.Mapped, counts, lr.jobs)
		if cfg.Arch.Projection != nil {
			rep = power.Project(*cfg.Arch.Projection, rep)
		}
		lt.power += time.Since(t)

		out[d.key(b)] = outcome{LUTs: m.LUTs, Depth: m.Depth, PowerMW: rep.DynamicPowerMW, Transitions: counts.Total()}
	}
	return out, nil
}

// schedule is the flow's schedule stage: paper profiles are generated
// and balanced to their Table 2 cycle count, graphs are list-scheduled.
func schedule(d design) (*cdfg.Graph, *cdfg.Schedule, cdfg.ResourceConstraint, error) {
	if d.profile != nil {
		g := workload.Generate(*d.profile)
		s, err := workload.Schedule(*d.profile, g)
		if err != nil {
			return nil, nil, d.profile.RC, fmt.Errorf("%s: schedule: %w", d.name, err)
		}
		return g, s, d.profile.RC, nil
	}
	if err := d.graph.Validate(); err != nil {
		return nil, nil, d.rc, fmt.Errorf("%s: %w", d.name, err)
	}
	s, err := cdfg.ListSchedule(d.graph, d.rc)
	if err != nil {
		return nil, nil, d.rc, fmt.Errorf("%s: schedule: %w", d.name, err)
	}
	return d.graph, s, d.rc, nil
}

// bind runs one functional-unit binder with the flow's settings:
// HLPower with the config's Eq. 4 betas, one merge per iteration and the
// shared glitch-aware SA table; LOPASS with the shared zero-delay table.
func (lr *layerRunner) bind(g *cdfg.Graph, s *cdfg.Schedule, rb *regbind.Binding, rc cdfg.ResourceConstraint, swap []bool, b flow.Binder) (*binding.Result, error) {
	cfg, lt := lr.cfg, &lr.lt
	if !b.UseHLPower {
		t := time.Now()
		res, _, err := lopass.Bind(g, s, rb, rc, lopass.Options{Swap: swap, Table: cfg.BaselineTable, Jobs: cfg.BindJobs})
		lt.lopass += time.Since(t)
		return res, err
	}
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
	opt.Workers = cfg.BindJobs
	opt.CandidateK = cfg.BindK
	opt.Exact = cfg.BindExact
	t := time.Now()
	res, rep, err := core.Bind(g, s, rb, rc, opt)
	lt.hlpower += time.Since(t)
	if err != nil {
		return nil, err
	}
	for _, it := range rep.Iters {
		lt.score += time.Duration(it.ScoreNs)
		lt.solve += time.Duration(it.SolveNs)
	}
	lt.iterations += rep.Iterations
	lt.edgesScored += rep.EdgesScored
	lt.edgesReused += rep.EdgesReused
	lt.peakStoreBytes = max(lt.peakStoreBytes, rep.PeakStoreBytes)
	lt.tableMisses += rep.TableMisses
	return res, nil
}

// reexecute runs every design through lr, checks each outcome against
// want (the end-to-end run's results) and sets the per-layer metrics.
// Any difference means the traced run does not measure what the
// end-to-end run did, so it fails the run.
func reexecute(ctx context.Context, lr *layerRunner, designs []design, want map[string]outcome, res *result) error {
	var before runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	t := time.Now()
	got := make(map[string]outcome)
	for _, d := range designs {
		out, err := lr.run(ctx, d)
		if err != nil {
			return err
		}
		for k, o := range out {
			got[k] = o
		}
	}
	total := time.Since(t)
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	res.checkAgainst(got, want, "end-to-end run")
	for k := range want {
		if _, ok := got[k]; !ok {
			res.fail("%s: not re-executed by the traced run", k)
		}
	}

	lt := &lr.lt
	sec := func(d time.Duration) float64 { return d.Seconds() }
	m := res.metrics
	m["cdfg.schedule_s"] = sec(lt.schedule)
	m["regbind.bind_s"] = sec(lt.regbind)
	m["regbind.regs"] = float64(lt.regs)
	m["core.bind_s"] = sec(lt.hlpower)
	m["core.solve_s"] = sec(lt.solve)
	m["core.score_s"] = sec(lt.score)
	m["core.other_s"] = sec(lt.hlpower - lt.solve - lt.score)
	m["core.iterations"] = float64(lt.iterations)
	m["core.edges_scored"] = float64(lt.edgesScored)
	m["core.reuse_frac"] = ratio(float64(lt.edgesReused), float64(lt.edgesScored+lt.edgesReused))
	m["core.peak_store_bytes"] = float64(lt.peakStoreBytes)
	m["lopass.bind_s"] = sec(lt.lopass)
	m["datapath.elaborate_s"] = sec(lt.datapath)
	m["datapath.gates"] = float64(lt.gates)
	m["mapper.map_s"] = sec(lt.mapping)
	m["mapper.depth"] = float64(lt.depth)
	m["sim.run_s"] = sec(lt.sim)
	m["sim.transitions"] = float64(lt.transitions)
	m["power.analyze_s"] = sec(lt.power)
	m["proc.alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	layers := lt.schedule + lt.regbind + lt.hlpower + lt.lopass + lt.datapath + lt.mapping + lt.sim + lt.power
	m["trace.total_s"] = sec(total)
	m["trace.unattributed_s"] = sec(total - layers)

	chars, n, err := characterize(ctx, lr.cfg.Table)
	if err != nil {
		return err
	}
	if n != lt.tableMisses {
		res.fail("satable: %d keys cached, HLPower reported %d misses", n, lt.tableMisses)
	}
	m["satable.misses"] = float64(n)
	m["satable.characterize_s"] = sec(chars)
	m["satable.ms_per_miss"] = ratio(chars.Seconds()*1e3, float64(n))
	return nil
}

// characterize times a serial GetBatch over every key table holds, on a
// fresh table of the same characterization: the cost of the run's SA
// misses without the binder around them.
func characterize(ctx context.Context, table *satable.Table) (time.Duration, int, error) {
	var buf bytes.Buffer
	if err := table.Save(&buf); err != nil {
		return 0, 0, err
	}
	var keys []satable.Key
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		var kind string
		var k satable.Key
		var sa float64
		if _, err := fmt.Sscanf(line, "%s %d %d %g", &kind, &k.KL, &k.KR, &sa); err != nil {
			return 0, 0, fmt.Errorf("satable snapshot row %q: %w", line, err)
		}
		k.Kind = netgen.FUKind(kind)
		keys = append(keys, k)
	}
	fresh := satable.NewForArch(table.Width, table.Est, table.Arch)
	runtime.GC()
	t := time.Now()
	if _, err := fresh.GetBatch(ctx, keys, 1); err != nil {
		return 0, 0, err
	}
	return time.Since(t), len(keys), nil
}

// traceBatch is runBatch's traced mode: one end-to-end pass for the
// reference results and the stage-cache counters, then the layer by
// layer re-execution of the same designs.
func traceBatch(ctx context.Context, p params, w batchWorkload, designs []design, res *result, setup float64) error {
	se := flow.NewSession(flowConfig(p.seed, w.vectors))
	rs, err := runPass(ctx, se, designs)
	res.attempted += len(designs) * len(binders)
	if err != nil {
		return err
	}
	want := outcomes(rs)
	res.designs = want
	if p.seed == 0 {
		res.checkAgainst(want, p.expected, expectedFile)
	}
	var hits, demands int
	for _, st := range se.StageStats() {
		hits += st.Hits
		demands += st.Hits + st.Misses
	}
	res.metrics["pipeline.stage_hit_frac"] = ratio(float64(hits), float64(demands))
	for _, name := range []string{"store.hits", "store.puts", "store.bytes", "server.ingest_batch_mean"} {
		res.metrics[name] = 0 // batch workloads run without the daemon and its store
	}
	res.info = append(res.info, infoRow{"setup_s", setup, "s"})
	// A fresh config: its SA tables start empty, as the pass's did.
	return reexecute(ctx, newLayerRunner(flowConfig(p.seed, w.vectors)), designs, want, res)
}
