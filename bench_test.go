package repro

import (
	"context"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	"repro/internal/arch"
	"repro/internal/binding"
	"repro/internal/cdfg"
	"repro/internal/core"
	"repro/internal/datapath"
	"repro/internal/flow"
	"repro/internal/glitch"
	"repro/internal/logic"
	"repro/internal/lopass"
	"repro/internal/mapper"
	"repro/internal/netgen"
	"repro/internal/par"
	"repro/internal/prob"
	"repro/internal/regbind"
	"repro/internal/satable"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The benchmarks below regenerate every table and figure of the paper's
// evaluation (run `go test -bench=.` here, or `go run ./cmd/hlpower
// -all` for the full seven-benchmark sweep with 1000 vectors). To keep
// `-bench=.` affordable they default to a two-benchmark subset with a
// reduced vector count; set HLPOWER_BENCH_FULL=1 for the full suite.

func benchConfig() flow.Config {
	cfg := flow.DefaultConfig()
	cfg.Vectors = 200
	return cfg
}

// bgCtx is the background context benchmarks drive the harness with.
var bgCtx = context.Background()

func benchSession() *flow.Session {
	se := flow.NewSession(benchConfig())
	if os.Getenv("HLPOWER_BENCH_FULL") == "" {
		var subset []workload.Profile
		for _, name := range []string{"pr", "wang", "honda"} {
			p, _ := workload.ByName(name)
			subset = append(subset, p)
		}
		se.Benchmarks = subset
	}
	return se
}

var benchOnce sync.Once

// BenchmarkTable1 regenerates the benchmark-profile table.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var sb strings.Builder
		if err := flow.Table1(&sb); err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + sb.String())
		}
	}
}

// BenchmarkTable2 regenerates resource constraints, schedule lengths,
// register counts, and HLPower runtimes.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		se := benchSession()
		var sb strings.Builder
		if err := flow.Table2(bgCtx, &sb, se); err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + sb.String())
		}
	}
}

// BenchmarkTable3 regenerates the LOPASS-vs-HLPower power/area
// comparison (the paper's headline table).
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		se := benchSession()
		var sb strings.Builder
		if err := flow.Table3(bgCtx, &sb, se); err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + sb.String())
		}
	}
}

// BenchmarkTable4 regenerates the muxDiff mean/variance statistics.
func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		se := benchSession()
		var sb strings.Builder
		if err := flow.Table4(bgCtx, &sb, se); err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + sb.String())
		}
	}
}

// BenchmarkFigure3 regenerates the average-toggle-rate comparison.
func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		se := benchSession()
		var sb strings.Builder
		if err := flow.Figure3(bgCtx, &sb, se); err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + sb.String())
		}
	}
}

// BenchmarkParallelSweep measures the full (benchmark × binder) sweep —
// the paper's whole evaluation — at -j 1 (serial) vs -j GOMAXPROCS vs
// -j 8. Every iteration starts a cold session, so the wall-clock ratio
// between sub-benchmarks is the fan-out speedup of flow.Session.RunAll.
// On an N-core host the parallel sweeps approach min(N, #pairs)× the
// serial one (the pairs are fully independent); on a single core all
// three tie. The results are identical at any -j (see
// flow.TestParallelMatchesSerial).
func BenchmarkParallelSweep(b *testing.B) {
	jobSet := []int{1, par.Jobs(0), 8}
	for _, jobs := range jobSet {
		jobs := jobs
		b.Run(fmt.Sprintf("j=%d", jobs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				se := benchSession()
				se.Jobs = jobs
				if err := se.RunAll(bgCtx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// frontEnd prepares the shared front end of one benchmark.
func frontEnd(b *testing.B, name string) (*cdfg.Graph, *cdfg.Schedule, *regbind.Binding, []bool) {
	b.Helper()
	p, _ := workload.ByName(name)
	g := workload.Generate(p)
	s, err := workload.Schedule(p, g)
	if err != nil {
		b.Fatal(err)
	}
	swap := binding.RandomPortAssignment(g, 26)
	rb, err := regbind.BindOpt(g, s, regbind.Options{Swap: swap})
	if err != nil {
		b.Fatal(err)
	}
	return g, s, rb, swap
}

// BenchmarkBindHLPower measures the binder itself (Table 2's runtime
// column) on the pr benchmark.
func BenchmarkBindHLPower(b *testing.B) {
	g, s, rb, swap := frontEnd(b, "pr")
	p, _ := workload.ByName("pr")
	table := satable.New(8, satable.EstimatorGlitch)
	opt := core.DefaultOptions(table)
	opt.Swap = swap
	opt.MergesPerIteration = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.Bind(g, s, rb, p.RC, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBind measures the incremental binding engine across problem
// sizes (small/medium/large synthetic CDFGs) with MergesPerIteration=1
// — the many-round regime the persistent edge store exists for. The
// edges-scored/op and edges-reused/op metrics expose the engine's work
// avoidance: scored counts fresh Eq. 4 evaluations, reused counts
// store hits; their sum is what the pre-engine implementation
// evaluated every run. CI runs this once as a smoke test.
func BenchmarkBind(b *testing.B) {
	for _, tc := range []struct{ size, bench string }{
		{"small", "pr"}, {"medium", "honda"}, {"large", "chem"},
	} {
		tc := tc
		b.Run(tc.size, func(b *testing.B) {
			g, s, rb, swap := frontEnd(b, tc.bench)
			p, _ := workload.ByName(tc.bench)
			table := satable.New(8, satable.EstimatorGlitch)
			opt := core.DefaultOptions(table)
			opt.Swap = swap
			opt.MergesPerIteration = 1
			// Warm run: SA characterizations cache in the shared table, so
			// the timed iterations measure the engine, not the estimator.
			if _, _, err := core.Bind(g, s, rb, p.RC, opt); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var scored, reused int
			for i := 0; i < b.N; i++ {
				_, rep, err := core.Bind(g, s, rb, p.RC, opt)
				if err != nil {
					b.Fatal(err)
				}
				scored, reused = rep.EdgesScored, rep.EdgesReused
			}
			b.ReportMetric(float64(scored), "edges-scored/op")
			b.ReportMetric(float64(reused), "edges-reused/op")
		})
	}
	// xlarge is the scale tier: the 10k-operation control-heavy CDFG
	// bound with default options, which auto-engage the sparse candidate
	// store. The memory-budget gate in CI reads B/op (allocated bytes
	// per bind) and store-bytes/op (the engine's own peak edge-store
	// estimate); both must stay bounded as the binder scales.
	b.Run("xlarge", func(b *testing.B) {
		sp, _ := workload.ScaleByName("ctrl-10k")
		g := sp.Build()
		s, err := cdfg.ListSchedule(g, sp.RC)
		if err != nil {
			b.Fatal(err)
		}
		swap := binding.RandomPortAssignment(g, 26)
		rb, err := regbind.BindOpt(g, s, regbind.Options{Swap: swap})
		if err != nil {
			b.Fatal(err)
		}
		table := satable.New(8, satable.EstimatorGlitch)
		opt := core.DefaultOptions(table)
		opt.Swap = swap
		var rep *core.Report
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var err error
			_, rep, err = core.Bind(g, s, rb, sp.RC, opt)
			if err != nil {
				b.Fatal(err)
			}
		}
		if rep.Mode != "sparse" {
			b.Fatalf("xlarge bind ran in mode %q, want auto-sparse", rep.Mode)
		}
		b.ReportMetric(float64(rep.PeakStoreBytes), "store-bytes/op")
		b.ReportMetric(float64(rep.PeakEdges), "store-edges/op")
	})
}

// BenchmarkSim measures the simulation stage across mapped netlist
// sizes: the scalar reference engine vs the word-parallel 64-lane
// engine the flow runs (small/medium = combinational array
// multipliers, large = a latched pipelined multiplier, pr = the flow's
// own shape: the mapped pr datapath, whose step-counter FSM and
// registers read their own Q, so the pre-pass evaluates its whole
// network every cycle). cycles/sec is the throughput metric;
// transitions/op records the (engine-identical) workload so runs are
// comparable. CI runs this once as a smoke test.
func BenchmarkSim(b *testing.B) {
	const vectors = 256
	mapped := func(net *logic.Network) *logic.Network {
		res, err := mapper.Map(net, mapper.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		return res.Mapped
	}
	for _, tc := range []struct {
		size string
		net  *logic.Network
	}{
		{"small", mapped(netgen.MultiplierNetwork(6))},
		{"medium", mapped(netgen.MultiplierNetwork(8))},
		{"large", mapped(netgen.PipelinedMultiplierNetwork(12, 2))},
		{"pr", prDatapath(b)},
	} {
		tc := tc
		vec := sim.RandomVectors(len(tc.net.Inputs), vectors, 1)
		report := func(b *testing.B, c sim.Counts) {
			b.ReportMetric(float64(int64(b.N)*vectors)/b.Elapsed().Seconds(), "cycles/sec")
			b.ReportMetric(float64(c.Total()), "transitions/op")
		}
		b.Run(tc.size+"/scalar", func(b *testing.B) {
			s, err := sim.NewWithDelays(tc.net, sim.DelayHeterogeneous, 7)
			if err != nil {
				b.Fatal(err)
			}
			var c sim.Counts
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Reset()
				c = s.RunVectors(vec)
			}
			report(b, c)
		})
		b.Run(tc.size+"/word", func(b *testing.B) {
			w, err := sim.NewWordWithDelays(tc.net, sim.DelayHeterogeneous, 7)
			if err != nil {
				b.Fatal(err)
			}
			var c sim.Counts
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c = w.RunVectors(vec, 0)
			}
			report(b, c)
		})
	}
}

// prNetlist elaborates the pr datapath, bound by LOPASS, into the
// unmapped gate netlist the flow maps at its default configuration:
// mux trees and 3-input gates.
func prNetlist(b *testing.B) *logic.Network {
	b.Helper()
	g, s, rb, swap := frontEnd(b, "pr")
	p, _ := workload.ByName("pr")
	cfg := flow.DefaultConfig()
	res, _, err := lopass.Bind(g, s, rb, p.RC, lopass.Options{Swap: swap, Table: cfg.BaselineTable})
	if err != nil {
		b.Fatal(err)
	}
	d, err := datapath.Elaborate(g, s, rb, res, cfg.Width)
	if err != nil {
		b.Fatal(err)
	}
	return d.Net
}

// prDatapath maps prNetlist as the flow does at its default
// configuration.
func prDatapath(b *testing.B) *logic.Network {
	b.Helper()
	m, err := mapper.Map(prNetlist(b), flow.DefaultConfig().MapOpt)
	if err != nil {
		b.Fatal(err)
	}
	return m.Mapped
}

// BenchmarkMap measures the cut-based technology mapper across target
// architectures: the K=4 CycloneII fabric vs the K=6 Stratix-like one
// on the same netlists. Wider LUTs enumerate more cuts per node (more
// work) but emit fewer, shallower LUTs; luts/op and depth/op record the
// cover so a quality regression shows up alongside a speed one. The
// power arms map in the SA tables' mode, the depth arms in the flow's
// (flow.DefaultConfig's MapOpt). medium and large are multipliers; pr
// is the flow's own netlist, the elaborated pr datapath. CI runs this
// once as a smoke test.
func BenchmarkMap(b *testing.B) {
	for _, tc := range []struct {
		size string
		net  *logic.Network
	}{
		{"medium", netgen.MultiplierNetwork(8)},
		{"large", netgen.PipelinedMultiplierNetwork(12, 2)},
		{"pr", prNetlist(b)},
	} {
		for _, target := range []arch.Target{arch.CycloneII(), arch.StratixLike6LUT()} {
			for _, mode := range []mapper.Mode{mapper.ModePower, mapper.ModeDepth} {
				tc, target, mode := tc, target, mode
				b.Run(fmt.Sprintf("%s/%s/%v", tc.size, target.Name, mode), func(b *testing.B) {
					opt := mapper.OptionsForArch(target)
					opt.Mode = mode
					b.ReportAllocs()
					var res *mapper.Result
					for i := 0; i < b.N; i++ {
						var err error
						res, err = mapper.Map(tc.net, opt)
						if err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(float64(res.LUTs), "luts/op")
					b.ReportMetric(float64(res.Depth), "depth/op")
				})
			}
		}
	}
}

// BenchmarkEstimate measures the analytical switching-activity
// estimator across mapped netlist sizes — the computation behind every
// SA-table miss (satable §5.2.2 dynamic path). The glitch arm is the
// paper's unit-delay Chou–Roy waveform propagation; the zerodelay arm
// is the glitch-blind prob.EstimateNetwork ablation on the same
// netlist. sa/op reports the (implementation-invariant) estimate so a
// numerical regression shows up alongside a speed one. CI runs this
// once as a smoke test.
func BenchmarkEstimate(b *testing.B) {
	src := prob.DefaultSources()
	for _, tc := range []struct {
		size string
		net  *logic.Network
	}{
		{"small", netgen.PartialDatapathNetwork(netgen.FUAdd, 4, 4, 8)},
		{"medium", netgen.MultiplierNetwork(8)},
		{"large", netgen.PartialDatapathNetwork(netgen.FUMult, 8, 8, 8)},
	} {
		tc := tc
		res, err := mapper.Map(tc.net, mapper.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		b.Run(tc.size+"/glitch", func(b *testing.B) {
			b.ReportAllocs()
			var sa float64
			for i := 0; i < b.N; i++ {
				e := glitch.EstimateNetwork(res.Mapped, src)
				sa = e.TotalActivity(res.Mapped)
			}
			b.ReportMetric(sa, "sa/op")
		})
		b.Run(tc.size+"/zerodelay", func(b *testing.B) {
			b.ReportAllocs()
			var sa float64
			for i := 0; i < b.N; i++ {
				e := prob.EstimateNetwork(res.Mapped, prob.MethodChouRoy, src)
				sa = e.TotalActivity(res.Mapped)
			}
			b.ReportMetric(sa, "sa/op")
		})
	}
}

// BenchmarkBindLOPASS measures the baseline binder on the pr benchmark.
func BenchmarkBindLOPASS(b *testing.B) {
	g, s, rb, swap := frontEnd(b, "pr")
	p, _ := workload.ByName("pr")
	zd := satable.New(8, satable.EstimatorZeroDelay)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := lopass.Bind(g, s, rb, p.RC, lopass.Options{Swap: swap, Table: zd}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAlphaSweep is the Eq. 4 ablation: alpha in {0, 0.25, 0.5,
// 0.75, 1} on one benchmark, reporting the muxDiff trade-off.
func BenchmarkAlphaSweep(b *testing.B) {
	g, s, rb, swap := frontEnd(b, "wang")
	p, _ := workload.ByName("wang")
	table := satable.New(8, satable.EstimatorGlitch)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, alpha := range []float64{0, 0.25, 0.5, 0.75, 1} {
			opt := core.DefaultOptions(table)
			opt.Alpha = alpha
			opt.Swap = swap
			res, _, err := core.Bind(g, s, rb, p.RC, opt)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				st := binding.ComputeMuxStats(g, rb, res)
				b.Logf("alpha=%.2f muxDiff=%.2f/%.2f len=%d", alpha, st.DiffMean, st.DiffVar, st.Length)
			}
		}
	}
}

// BenchmarkBetaSweep is the beta-sensitivity ablation of Eq. 4.
func BenchmarkBetaSweep(b *testing.B) {
	g, s, rb, swap := frontEnd(b, "wang")
	p, _ := workload.ByName("wang")
	table := satable.New(8, satable.EstimatorGlitch)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, beta := range [][2]float64{{30, 1000}, {300, 10000}, {3000, 100000}} {
			opt := core.DefaultOptions(table)
			opt.BetaAdd, opt.BetaMult = beta[0], beta[1]
			opt.Swap = swap
			res, _, err := core.Bind(g, s, rb, p.RC, opt)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				st := binding.ComputeMuxStats(g, rb, res)
				b.Logf("beta=%v/%v muxDiff=%.2f len=%d", beta[0], beta[1], st.DiffMean, st.Length)
			}
		}
	}
}

// BenchmarkSATableVsDynamic quantifies the precalculated-table speedup
// the paper reports in §5.2.2 (same binding results, shorter runtime).
func BenchmarkSATableVsDynamic(b *testing.B) {
	g, s, rb, swap := frontEnd(b, "pr")
	p, _ := workload.ByName("pr")
	b.Run("precalculated", func(b *testing.B) {
		table := satable.New(8, satable.EstimatorGlitch)
		// Warm: every lookup is a hash hit.
		if err := table.PrecomputeCtx(bgCtx, 10, 0); err != nil {
			b.Fatal(err)
		}
		opt := core.DefaultOptions(table)
		opt.Swap = swap
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := core.Bind(g, s, rb, p.RC, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("dynamic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			// Fresh table every iteration: every lookup maps a partial
			// datapath and runs the estimator (the dynamic path).
			table := satable.New(8, satable.EstimatorGlitch)
			opt := core.DefaultOptions(table)
			opt.Swap = swap
			if _, _, err := core.Bind(g, s, rb, p.RC, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkGlitchAwareVsZeroDelay is the estimator ablation: bind with
// the glitch-aware SA table vs the zero-delay (glitch-blind) table.
func BenchmarkGlitchAwareVsZeroDelay(b *testing.B) {
	g, s, rb, swap := frontEnd(b, "wang")
	p, _ := workload.ByName("wang")
	for _, est := range []satable.Estimator{satable.EstimatorGlitch, satable.EstimatorZeroDelay, satable.EstimatorNajm} {
		est := est
		b.Run(est.String(), func(b *testing.B) {
			table := satable.New(8, est)
			opt := core.DefaultOptions(table)
			opt.Swap = swap
			for i := 0; i < b.N; i++ {
				res, _, err := core.Bind(g, s, rb, p.RC, opt)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					st := binding.ComputeMuxStats(g, rb, res)
					b.Logf("%s: muxDiff=%.2f len=%d largest=%d", est, st.DiffMean, st.Length, st.Largest)
				}
			}
		})
	}
}

// TestFigure1Example verifies the paper's worked example end to end as a
// test (the quickstart example prints the same walk-through).
func TestFigure1Example(t *testing.T) {
	g := cdfg.NewGraph("fig1")
	in := make([]int, 6)
	for i := range in {
		in[i] = g.AddInput("")
	}
	op1 := g.AddOp(cdfg.KindAdd, "1", in[0], in[1])
	op2 := g.AddOp(cdfg.KindAdd, "2", in[1], in[2])
	op3 := g.AddOp(cdfg.KindMult, "3", in[3], in[4])
	op4 := g.AddOp(cdfg.KindAdd, "4", op1, op2)
	op5 := g.AddOp(cdfg.KindMult, "5", op3, in[5])
	op6 := g.AddOp(cdfg.KindAdd, "6", op4, op5)
	op7 := g.AddOp(cdfg.KindMult, "7", op5, op4)
	op8 := g.AddOp(cdfg.KindAdd, "8", op4, op3)
	g.MarkOutput(op6)
	g.MarkOutput(op7)
	g.MarkOutput(op8)
	s := &cdfg.Schedule{Step: make([]int, len(g.Nodes)), Len: 3}
	for op, step := range map[int]int{op1: 1, op2: 1, op3: 1, op4: 2, op5: 2, op6: 3, op7: 3, op8: 3} {
		s.Step[op] = step
	}
	rb, err := regbind.Bind(g, s)
	if err != nil {
		t.Fatal(err)
	}
	table := satable.New(8, satable.EstimatorGlitch)
	res, _, err := core.Bind(g, s, rb, cdfg.ResourceConstraint{Add: 2, Mult: 1}, core.DefaultOptions(table))
	if err != nil {
		t.Fatal(err)
	}
	counts := res.Counts()
	if len(res.FUs) != 3 {
		t.Fatalf("figure 1 wants 2 adders + 1 multiplier, got %v", counts)
	}
}

// TestHeadlineShapes asserts the paper's qualitative results hold on the
// benchmark subset (the full-suite record lives in EXPERIMENTS.md).
func TestHeadlineShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline comparison")
	}
	benchOnce.Do(func() {})
	se := benchSession()
	devs, err := flow.ValidateAgainstPaper(bgCtx, se)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range devs {
		t.Errorf("deviation: %s", d)
	}
}
