package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/binding"
	"repro/internal/cdfg"
	"repro/internal/regbind"
	"repro/internal/workload"
)

// bindBench binds one seed benchmark with the given options.
func bindBench(t *testing.T, name string, opt Options) (*Report, []int) {
	t.Helper()
	p, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("unknown benchmark %s", name)
	}
	g := workload.Generate(p)
	s, err := cdfg.ListSchedule(g, p.RC)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := regbind.Bind(g, s)
	if err != nil {
		t.Fatal(err)
	}
	res, rep, err := Bind(g, s, rb, p.RC, opt)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return rep, res.FUOf
}

// flowCase prepares a seed benchmark the way the flow binds it: the
// balanced Table 2 schedule, the shared random port assignment (seed
// 26) driving register binding, and the flow's Eq. 4 betas.
func flowCase(t *testing.T, name string) (*cdfg.Graph, *cdfg.Schedule, *regbind.Binding, cdfg.ResourceConstraint, Options) {
	t.Helper()
	p, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("unknown benchmark %s", name)
	}
	g := workload.Generate(p)
	s, err := workload.Schedule(p, g)
	if err != nil {
		t.Fatal(err)
	}
	swap := binding.RandomPortAssignment(g, 26)
	rb, err := regbind.BindOpt(g, s, regbind.Options{Swap: swap})
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions(sharedTable)
	opt.BetaAdd, opt.BetaMult = 300, 10000
	opt.Swap = swap
	return g, s, rb, p.RC, opt
}

// oracleCase is one (MergesPerIteration, benchmark) point of the seed
// oracle tests.
type oracleCase struct {
	mpi  int
	name string
}

// oracleCases lists the points the seed oracle tests bind: every seed
// benchmark at MergesPerIteration=0, and all but the two largest
// (steam, chem) at MergesPerIteration=1, where the oracle rescores the
// whole graph once per merge and is too slow under -race.
func oracleCases() []oracleCase {
	var cases []oracleCase
	for _, p := range workload.Benchmarks {
		cases = append(cases, oracleCase{0, p.Name})
	}
	for _, name := range []string{"pr", "wang", "mcm", "honda", "dir"} {
		cases = append(cases, oracleCase{1, name})
	}
	return cases
}

// matchOracle binds with opt and requires the full-rescore oracle's
// binding, iteration count, and per-round compatible-edge total.
func matchOracle(t *testing.T, label string, g *cdfg.Graph, s *cdfg.Schedule, rb *regbind.Binding, rc cdfg.ResourceConstraint, opt Options) *Report {
	t.Helper()
	refRes, refRep, err := referenceBind(g, s, rb, rc, opt, nil)
	if err != nil {
		t.Fatalf("%s: reference: %v", label, err)
	}
	res, rep, err := Bind(g, s, rb, rc, opt)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if !reflect.DeepEqual(res.FUOf, refRes.FUOf) {
		t.Fatalf("%s: binding differs from the full-rescore oracle", label)
	}
	if rep.Iterations != refRep.Iterations {
		t.Fatalf("%s: %d iterations, oracle %d", label, rep.Iterations, refRep.Iterations)
	}
	if got := rep.EdgesScored + rep.EdgesReused; got != refRep.EdgesScored {
		t.Fatalf("%s: scored %d + reused %d = %d edges, oracle evaluated %d",
			label, rep.EdgesScored, rep.EdgesReused, got, refRep.EdgesScored)
	}
	return rep
}

// TestSeedsMatchFullRescore binds the seed benchmarks at the flow's
// settings with default options and requires the full-rescore oracle's
// binding, iteration count and compatible-edge count.
func TestSeedsMatchFullRescore(t *testing.T) {
	for _, c := range oracleCases() {
		g, s, rb, rc, opt := flowCase(t, c.name)
		opt.MergesPerIteration = c.mpi
		matchOracle(t, fmt.Sprintf("%s mpi=%d", c.name, c.mpi), g, s, rb, rc, opt)
	}
}

// TestSparseFullKMatchesExactOnSeeds is the sparsification soundness
// property: with the candidate bound k at least the live node count
// (and the shape clamp off), admission keeps every compatible pair, so
// a forced bounded run must reproduce the full-rescore oracle bit for
// bit on the seed benchmarks.
func TestSparseFullKMatchesExactOnSeeds(t *testing.T) {
	for _, c := range oracleCases() {
		g, s, rb, rc, opt := flowCase(t, c.name)
		opt.MergesPerIteration = c.mpi
		opt.CandidateK = len(g.Ops()) // ≥ live nodes of any class
		opt.ShapeCap = -1
		rep := matchOracle(t, fmt.Sprintf("%s mpi=%d k=%d", c.name, c.mpi, opt.CandidateK), g, s, rb, rc, opt)
		if rep.Mode != "sparse" {
			t.Fatalf("%s: CandidateK=%d run reported mode %q", c.name, opt.CandidateK, rep.Mode)
		}
	}
}

// TestDefaultOptionsStayExactOnSeeds pins the auto mode selection: at
// default options every seed benchmark is far below the scale
// threshold and must keep rows with no bound (the exact path), so
// existing goldens can never shift under it.
func TestDefaultOptionsStayExactOnSeeds(t *testing.T) {
	for _, name := range []string{"pr", "chem"} {
		rep, _ := bindBench(t, name, DefaultOptions(sharedTable))
		if rep.Mode != "exact" {
			t.Fatalf("%s: default options selected mode %q, want exact", name, rep.Mode)
		}
	}
}

// scaleCase builds a mid-size random CDFG (several hundred ops) with a
// generous resource constraint so merged mux shapes stay modest.
func scaleCase(t testing.TB, adds, mults int, rc cdfg.ResourceConstraint, seed int64) (*cdfg.Graph, *cdfg.Schedule, *regbind.Binding) {
	p := workload.Profile{
		Name: "sparse-case", PIs: 16, POs: 12,
		Adds: adds, Mults: mults, RC: rc, Seed: seed,
	}
	g := workload.Generate(p)
	s, err := cdfg.ListSchedule(g, rc)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := regbind.Bind(g, s)
	if err != nil {
		t.Fatal(err)
	}
	return g, s, rb
}

// TestSparseWorkerInvariance drives the sparse path (forced default k,
// clamped shapes to keep the SA table small) on mid-size random graphs
// at worker counts 1..8 — the -race half of the scale property test.
// Bindings and bookkeeping must be identical at every worker count.
func TestSparseWorkerInvariance(t *testing.T) {
	for _, seed := range []int64{11, 12} {
		g, s, rb := scaleCase(t, 260, 240, cdfg.ResourceConstraint{Add: 24, Mult: 24}, seed)
		var baseFU []int
		var baseRep *Report
		for workers := 1; workers <= 8; workers++ {
			opt := DefaultOptions(sharedTable)
			opt.CandidateK = DefaultCandidateK
			opt.ShapeCap = 16
			opt.Workers = workers
			res, rep, err := Bind(g, s, rb, cdfg.ResourceConstraint{Add: 24, Mult: 24}, opt)
			if err != nil {
				t.Fatalf("seed %d workers=%d: %v", seed, workers, err)
			}
			if rep.Mode != "sparse" {
				t.Fatalf("seed %d: mode %q, want sparse", seed, rep.Mode)
			}
			if baseFU == nil {
				baseFU, baseRep = res.FUOf, rep
				continue
			}
			if !reflect.DeepEqual(res.FUOf, baseFU) {
				t.Fatalf("seed %d: sparse binding at workers=%d diverges from workers=1", seed, workers)
			}
			if rep.EdgesScored != baseRep.EdgesScored || rep.EdgesReused != baseRep.EdgesReused {
				t.Fatalf("seed %d: bookkeeping at workers=%d diverges (%d/%d vs %d/%d)",
					seed, workers, rep.EdgesScored, rep.EdgesReused, baseRep.EdgesScored, baseRep.EdgesReused)
			}
		}
	}
}

// TestSparseAutoEngagesAtScale: past the live-node threshold, default
// options must auto-select sparse mode (with the auto shape clamp) and
// still produce a valid deterministic binding.
func TestSparseAutoEngagesAtScale(t *testing.T) {
	rc := cdfg.ResourceConstraint{Add: 48, Mult: 12}
	g, s, rb := scaleCase(t, 430, 70, rc, 21)
	opt := DefaultOptions(sharedTable)
	res1, rep1, err := Bind(g, s, rb, rc, opt)
	if err != nil {
		t.Fatal(err)
	}
	if rep1.Mode != "sparse" {
		t.Fatalf("auto mode = %q, want sparse (430 adds > threshold)", rep1.Mode)
	}
	res2, _, err := Bind(g, s, rb, rc, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res1.FUOf, res2.FUOf) {
		t.Fatal("auto-sparse binding is not deterministic across runs")
	}
}

// TestSparseMemoryAccounting: the Report's store accounting must be
// populated in both modes, and bounded rows must be dramatically
// smaller than rows with no bound on the same problem.
func TestSparseMemoryAccounting(t *testing.T) {
	// MergesPerIteration=1 is the flow mainline: rows persist across
	// rounds, so store residency is meaningful (at MergesPerIteration=0
	// every U-node merges each round and the store drains to zero).
	exact := DefaultOptions(sharedTable)
	exact.Exact = true
	exact.MergesPerIteration = 1
	exactRep, _ := bindBench(t, "honda", exact)
	if exactRep.PeakEdges == 0 || exactRep.PeakStoreBytes == 0 {
		t.Fatalf("exact peak accounting empty: %+v", exactRep)
	}

	sparse := DefaultOptions(sharedTable)
	sparse.CandidateK = 8
	sparse.ShapeCap = 16
	sparse.MergesPerIteration = 1
	sparseRep, _ := bindBench(t, "honda", sparse)
	if sparseRep.PeakEdges == 0 || sparseRep.PeakStoreBytes == 0 {
		t.Fatalf("sparse peak accounting empty: %+v", sparseRep)
	}
	if sparseRep.PeakEdges >= exactRep.PeakEdges {
		t.Fatalf("sparse peak edges %d not below exact %d", sparseRep.PeakEdges, exactRep.PeakEdges)
	}
	if sparseRep.PeakStoreBytes >= exactRep.PeakStoreBytes {
		t.Fatalf("sparse peak store bytes %d not below exact %d", sparseRep.PeakStoreBytes, exactRep.PeakStoreBytes)
	}
}
