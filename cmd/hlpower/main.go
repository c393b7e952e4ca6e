// Command hlpower runs the HLPower reproduction flow and regenerates the
// paper's tables and figures.
//
// Usage:
//
//	hlpower -table 1|2|3|4        regenerate a paper table
//	hlpower -figure 3             regenerate Figure 3
//	hlpower -all                  run every experiment
//	hlpower -validate             check the headline result shapes
//	hlpower -ablation             run the binder/estimator ablation study
//	hlpower -bench NAME           run one benchmark through both binders
//	hlpower -alphasweep LIST      sweep HLPower's alpha over LIST (e.g. 0,0.25,0.5,0.75,1)
//	hlpower -archsweep            compare target architectures (K=4 vs K=6 vs ASIC projection)
//	hlpower -satable FILE         precompute and save the SA table
//
// Common flags: -arch k4|k6|asic (target architecture: Cyclone-II-like
// 4-LUTs, Stratix-like 6-LUTs, or the K=4 fabric with Kuon & Rose's
// FPGA→ASIC gap factors applied to the final report; SA tables loaded
// with -loadsatable must have been characterized under the same arch),
// -width, -vectors, -alpha, -benchset (comma-separated
// benchmark subset), -loadsatable FILE, -j N (the one worker count: the
// sweep, SA precompute, the binding engine's edge scoring, the
// simulator's lane groups, and the back end's elaboration and LUT
// covering; every run is independently seeded and bindings,
// transition counts and netlists are bit-identical at every worker
// count, so the output is identical for any -j), -trace FILE (write
// pipeline stage spans as JSON to FILE, or "-" for stdout, and print a
// per-stage cache summary to stderr), -bindstats FILE (write the
// binding engine's per-run reports — edges scored vs reused,
// invalidation ratio, store mode and peak memory, per-iteration
// timings — as JSON to FILE, "-" for stdout), -bindk N (bound HLPower's
// candidate rows at N per U-node; 0 keeps the engine default), -exact
// (keep rows with no bound at any problem size; both knobs are semantic
// and participate in run cache keys and the config fingerprint).
//
// Failure handling: -timeout D bounds the whole invocation (the sweep
// cancels cooperatively, like Ctrl-C/SIGTERM), -keepgoing finishes the
// remaining (benchmark × binder) pairs after a failure instead of
// aborting, and -failures FILE writes the machine-readable failure
// report ("-" = stdout). -inject SPEC arms the deterministic fault
// injector (e.g. -inject 'seed=1,stage=map,perror=1') to rehearse
// failure handling. Exit status: 0 success, 1 run failure or paper-
// shape deviation, 2 bad usage or malformed input files.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/arch"
	"repro/internal/flow"
	"repro/internal/pipeline"
	"repro/internal/satable"
	"repro/internal/sigctx"
	"repro/internal/workload"
)

func main() {
	var (
		table     = flag.Int("table", 0, "regenerate paper table 1-4")
		figure    = flag.Int("figure", 0, "regenerate paper figure (3)")
		all       = flag.Bool("all", false, "run every table and figure")
		validate  = flag.Bool("validate", false, "validate headline result shapes against the paper")
		ablation  = flag.Bool("ablation", false, "run the ablation study (binder/estimator variants, module selection)")
		bench     = flag.String("bench", "", "run a single benchmark through LOPASS and HLPower")
		archName  = flag.String("arch", "k4", "target architecture: k4 (Cyclone-II-like 4-LUT), k6 (Stratix-like 6-LUT), asic (K=4 with FPGA->ASIC projection)")
		archSweep = flag.Bool("archsweep", false, "run the cross-architecture comparison (K=4 vs K=6 vs ASIC projection) over the benchmark set")
		width     = flag.Int("width", 8, "datapath bit width")
		vectors   = flag.Int("vectors", 1000, "random simulation vectors")
		benchset  = flag.String("benchset", "", "comma-separated benchmark subset (default: all)")
		saveTable = flag.String("satable", "", "precompute the SA table up to -maxmux and save to FILE")
		loadTable = flag.String("loadsatable", "", "load a precomputed SA table from FILE")
		maxMux    = flag.Int("maxmux", 8, "mux size bound for -satable precompute")
		jobs      = flag.Int("j", 0, "parallel workers for sweeps, precompute, edge scoring, simulation and the back end; output is identical at every count (0 = GOMAXPROCS)")
		alphaList = flag.String("alphasweep", "", "comma-separated alpha values to sweep HLPower over")
		traceOut  = flag.String("trace", "", "write pipeline stage spans as JSON to FILE (\"-\" = stdout) plus a per-stage summary to stderr")
		bindStats = flag.String("bindstats", "", "write the binding engine's per-run statistics as JSON to FILE (\"-\" = stdout)")
		bindK     = flag.Int("bindk", 0, "bound HLPower's candidate rows at N candidates per U-node (0 = engine default)")
		bindExact = flag.Bool("exact", false, "keep HLPower's candidate rows with no bound at any problem size (every compatible pair scored)")
		timeout   = flag.Duration("timeout", 0, "cancel the whole invocation after this long (0 = no limit)")
		keepGoing = flag.Bool("keepgoing", false, "after a pair fails, keep sweeping the remaining (benchmark, binder) pairs and report partial results")
		failOut   = flag.String("failures", "", "write the machine-readable failure report as JSON to FILE (\"-\" = stdout)")
		inject    = flag.String("inject", "", "arm the fault injector: comma-separated key=value list (seed, stage, bench, binder, perror, ppanic, pdelay, delay), e.g. 'seed=1,stage=map,perror=1'")
	)
	flag.Parse()
	if *width < 1 {
		usageErr(fmt.Errorf("-width must be >= 1, got %d", *width))
	}
	if *vectors < 1 {
		usageErr(fmt.Errorf("-vectors must be >= 1, got %d", *vectors))
	}
	if *bindK < 0 {
		usageErr(fmt.Errorf("-bindk must be >= 0, got %d", *bindK))
	}
	if *bindK > 0 && *bindExact {
		usageErr(fmt.Errorf("-bindk and -exact are mutually exclusive"))
	}
	var alphas []float64
	if *alphaList != "" {
		var err error
		if alphas, err = parseAlphas(*alphaList); err != nil {
			usageErr(err)
		}
	}

	// Ctrl-C / SIGTERM / -timeout all cancel the same context; every
	// pipeline stage and the sim inner loop observe it cooperatively. A
	// second signal during the wind-down forces exit 2 (sigctx) instead
	// of leaving a stuck sweep unkillable.
	ctx, stop := sigctx.Notify(context.Background())
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if *inject != "" {
		fi, err := pipeline.ParseInjectSpec(*inject)
		if err != nil {
			usageErr(err)
		}
		ctx = pipeline.WithInjector(ctx, fi)
	}
	// -trace records every stage span of the invocation through the
	// context, whichever experiment runs.
	var trace *pipeline.Trace
	if *traceOut != "" {
		trace = new(pipeline.Trace)
		ctx = pipeline.WithTraces(ctx, trace)
	}

	target, ok := arch.ByName(*archName)
	if !ok {
		usageErr(fmt.Errorf("unknown -arch %q (want k4, k6, or asic)", *archName))
	}
	cfg := flow.DefaultConfig()
	cfg.Width = *width
	cfg.Vectors = *vectors
	// Normalize retargets the mapper K, power model, and SA tables to
	// -arch, and replaces the default width-8 SA tables when -width
	// changed them out from under us.
	cfg.Arch = target
	cfg = cfg.Normalize()
	if *loadTable != "" {
		f, err := os.Open(*loadTable)
		if err != nil {
			usageErr(err)
		}
		t, err := satable.Load(f)
		f.Close()
		if err != nil {
			// Malformed input file: reject cleanly, never panic.
			usageErr(fmt.Errorf("%s: %w", *loadTable, err))
		}
		if t.Width != *width {
			usageErr(fmt.Errorf("SA table width %d does not match -width %d", t.Width, *width))
		}
		if err := t.CheckArch(cfg.Arch); err != nil {
			// A table characterized under another fabric must never
			// silently weight this one's bindings.
			usageErr(fmt.Errorf("%s: %w", *loadTable, err))
		}
		cfg.Table = t
	}

	if *saveTable != "" {
		fmt.Fprintf(os.Stderr, "precomputing SA table (arch %s, width %d, mux sizes 1..%d)...\n", cfg.Arch.Name, *width, *maxMux)
		if err := cfg.Table.PrecomputeCtx(ctx, *maxMux, *jobs); err != nil {
			fatal(err)
		}
		f, err := os.Create(*saveTable)
		if err != nil {
			fatal(err)
		}
		if err := cfg.Table.Save(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d entries to %s\n", cfg.Table.Len(), *saveTable)
		return
	}

	cfg.BindK = *bindK
	cfg.BindExact = *bindExact
	cfg.BindJobs = *jobs
	cfg.SimJobs = *jobs
	cfg.MapJobs = *jobs
	se := flow.NewSession(cfg)
	se.Jobs = *jobs
	if *benchset != "" {
		var profs []workload.Profile
		for _, name := range strings.Split(*benchset, ",") {
			p, ok := workload.ByName(strings.TrimSpace(name))
			if !ok {
				usageErr(fmt.Errorf("unknown benchmark %q", name))
			}
			profs = append(profs, p)
		}
		se.Benchmarks = profs
	}

	switch {
	case *bench != "":
		p, ok := workload.ByName(*bench)
		if !ok {
			usageErr(fmt.Errorf("unknown benchmark %q", *bench))
		}
		for _, b := range []flow.Binder{flow.BinderLOPASS, flow.BinderHLPower05} {
			r, err := se.Run(ctx, p, b)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("%-14s power=%8.2f mW  clk=%5.2f ns  LUTs=%5d  largestMUX=%2d  muxLen=%4d  toggle=%8.2f M/s  glitch=%4.1f%%\n",
				b.Name, r.Power.DynamicPowerMW, r.Power.ClockPeriodNs, r.LUTs,
				r.FUMux.Largest, r.FUMux.Length, r.Power.AvgToggleRateMHz, r.Power.GlitchShare*100)
		}
	case *ablation:
		fmt.Println("=== Ablation study ===")
		if err := flow.Ablation(ctx, os.Stdout, se); err != nil {
			fatal(err)
		}
	case *alphaList != "":
		fmt.Println("=== Alpha sweep ===")
		if err := flow.AlphaSweep(ctx, os.Stdout, se, alphas); err != nil {
			fatal(err)
		}
	case *archSweep:
		fmt.Println("=== Architecture sweep ===")
		if err := flow.ArchSweep(ctx, os.Stdout, se, arch.Presets()); err != nil {
			fatal(err)
		}
	case *validate:
		devs, err := flow.ValidateAgainstPaper(ctx, se)
		if err != nil {
			fatal(err)
		}
		if len(devs) == 0 {
			fmt.Println("all headline result shapes hold")
		} else {
			for _, d := range devs {
				fmt.Println("DEVIATION:", d)
			}
			os.Exit(1)
		}
	case *all:
		// Warm the whole (benchmark x binder) matrix in one parallel
		// sweep; the table/figure generators then read the cache. Under
		// -keepgoing a partial sweep still prints what completed, and the
		// failures land in the report.
		rep, err := se.Sweep(ctx, flow.SweepOptions{KeepGoing: *keepGoing})
		if werr := writeFailures(rep, *failOut); werr != nil {
			fatal(werr)
		}
		if err != nil && !*keepGoing {
			fatal(err)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "hlpower: %d/%d pairs failed (first: %v); continuing with partial results\n",
				len(rep.Failures()), len(rep.Pairs), err)
		}
		if rep.Completed() == len(rep.Pairs) {
			runTable(ctx, se, 1)
			runTable(ctx, se, 2)
			runTable(ctx, se, 3)
			runTable(ctx, se, 4)
			fmt.Println("\n=== Figure 3 ===")
			if ferr := flow.Figure3(ctx, os.Stdout, se); ferr != nil {
				fatal(ferr)
			}
		} else {
			printPartial(rep)
		}
		if err != nil {
			os.Exit(1)
		}
	case *figure == 3:
		if err := flow.Figure3(ctx, os.Stdout, se); err != nil {
			fatal(err)
		}
	case *table >= 1 && *table <= 4:
		runTable(ctx, se, *table)
	default:
		flag.Usage()
		os.Exit(2)
	}

	if *traceOut != "" {
		if err := emitTrace(se, trace.Spans(), *traceOut); err != nil {
			fatal(err)
		}
	}
	if *bindStats != "" {
		if err := emitBindStats(se.BindStats(), *bindStats); err != nil {
			fatal(err)
		}
	}
}

// parseAlphas parses the -alphasweep value list; every alpha must lie
// in [0, 1].
func parseAlphas(s string) ([]float64, error) {
	var alphas []float64
	for _, f := range strings.Split(s, ",") {
		a, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return nil, fmt.Errorf("bad -alphasweep value %q: %w", f, err)
		}
		if !(a >= 0 && a <= 1) { // also rejects NaN
			return nil, fmt.Errorf("-alphasweep value %v outside [0, 1]", a)
		}
		alphas = append(alphas, a)
	}
	return alphas, nil
}

// writeFailures writes the sweep's failure report to dest ("" = skip,
// "-" = stdout).
func writeFailures(rep *flow.SweepReport, dest string) error {
	if dest == "" {
		return nil
	}
	if dest == "-" {
		return rep.WriteJSON(os.Stdout)
	}
	f, err := os.Create(dest)
	if err != nil {
		return err
	}
	if err := rep.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printPartial summarizes the completed pairs of a partial sweep.
func printPartial(rep *flow.SweepReport) {
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Benchmark\tBinder\tStatus\tPower(mW)\tLUTs")
	for _, ps := range rep.Pairs {
		if ps.OK() {
			fmt.Fprintf(tw, "%s\t%s\tok\t%.2f\t%d\n",
				ps.Bench, ps.Binder, ps.Result.Power.DynamicPowerMW, ps.Result.LUTs)
		} else {
			status := "failed"
			if ps.Failure.Canceled {
				status = "canceled"
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t\t\n", ps.Bench, ps.Binder, status)
		}
	}
	tw.Flush()
}

// emitBindStats writes the binding-engine reports as JSON to dest
// ("-" = stdout): {"bind_stats": [{bench, algo, report}, ...]}, sorted
// by (bench, algo). The shape is pinned by TestBindStatsGolden.
func emitBindStats(stats []flow.BindStat, dest string) error {
	out := os.Stdout
	if dest != "-" {
		f, err := os.Create(dest)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	return writeBindStats(out, stats)
}

// writeBindStats renders the -bindstats JSON document.
func writeBindStats(w io.Writer, stats []flow.BindStat) error {
	if stats == nil {
		stats = []flow.BindStat{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		BindStats []flow.BindStat `json:"bind_stats"`
	}{stats})
}

// emitTrace writes the invocation's stage spans as a JSON array to dest
// ("-" = stdout) and prints the session's per-stage cache summary to
// stderr.
func emitTrace(se *flow.Session, spans []pipeline.Span, dest string) error {
	out := os.Stdout
	if dest != "-" {
		f, err := os.Create(dest)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(spans); err != nil {
		return err
	}

	// Per-stage rollup from the stage cache's counters: hits include
	// store reads, compute is the time spent running the stage on
	// misses, wait the time hits spent on in-flight runs and store reads.
	stats := se.StageStats()
	tw := tabwriter.NewWriter(os.Stderr, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "stage\tdemands\thits\tmisses\tcompute\twait")
	for _, name := range flow.StageNames {
		st, ok := stats[name]
		if !ok {
			continue // never demanded
		}
		hits := st.Hits + st.BackingHits
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%v\t%v\n",
			name, hits+st.Misses, hits, st.Misses,
			time.Duration(st.ComputeNs).Round(time.Microsecond),
			time.Duration(st.WaitNs).Round(time.Microsecond))
	}
	return tw.Flush()
}

func runTable(ctx context.Context, se *flow.Session, n int) {
	fmt.Printf("\n=== Table %d ===\n", n)
	var err error
	switch n {
	case 1:
		err = flow.Table1(os.Stdout)
	case 2:
		err = flow.Table2(ctx, os.Stdout, se)
	case 3:
		err = flow.Table3(ctx, os.Stdout, se)
	case 4:
		err = flow.Table4(ctx, os.Stdout, se)
	}
	if err != nil {
		fatal(err)
	}
}

// fatal reports a runtime failure (exit 1).
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hlpower:", err)
	os.Exit(1)
}

// usageErr reports bad usage or malformed input (exit 2), the contract
// the de-panicked parsers feed: untrusted input is rejected with a
// message, never a panic.
func usageErr(err error) {
	fmt.Fprintln(os.Stderr, "hlpower:", err)
	os.Exit(2)
}
