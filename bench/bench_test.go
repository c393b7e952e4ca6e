package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/workload"
)

// The tests run the harness on tiny configurations: the paper subset
// pr+wang at 50 vectors and a daemon serving 10 requests. They check
// that every run emits exactly BENCHMARK.json's metric names and that
// the output checks pass on unchanged code.

func testSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := loadSpec("../" + benchmarkFile)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// emitOK prints res against list and checks the final line: the metric
// names must be exactly list's and the run correct.
func emitOK(t *testing.T, name string, list []metricSpec, res *result) {
	t.Helper()
	var buf bytes.Buffer
	final, err := emit(&buf, name, list, res)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !final.Correct {
		t.Fatalf("%s: run not correct:\n%s", name, buf.String())
	}
	line, err := lastLine(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var got finalLine
	if err := json.Unmarshal(line, &got); err != nil {
		t.Fatalf("%s: last line is not the result JSON: %v", name, err)
	}
	if len(got.Metrics) != len(list) {
		t.Fatalf("%s: %d metrics, BENCHMARK.json lists %d", name, len(got.Metrics), len(list))
	}
	for _, m := range list {
		mv, ok := got.Metrics[m.Name]
		if !ok || mv.Unit != m.Unit || math.IsNaN(mv.Value) {
			t.Errorf("%s: metric %s = %+v, want unit %s", name, m.Name, mv, m.Unit)
		}
	}
}

func tinyPaper() batchWorkload {
	var ps []workload.Profile
	for _, n := range []string{"pr", "wang"} {
		p, _ := workload.ByName(n)
		ps = append(ps, p)
	}
	return paperWorkload(ps, 50)
}

// TestPaperSubset records the subset's results with an end-to-end run,
// then checks them with a traced run: at seed 0 the traced run compares
// its end-to-end pass with the recorded results and its layer-by-layer
// re-execution with that pass.
func TestPaperSubset(t *testing.T) {
	t.Parallel()
	spec := testSpec(t)
	ctx := context.Background()
	w := tinyPaper()
	rec, err := runBatch(ctx, params{seconds: time.Millisecond, record: true}, w)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.designs) != 4 {
		t.Fatalf("recorded %d designs, want 4", len(rec.designs))
	}
	emitOK(t, "paper", spec.EndToEnd, rec)

	res, err := runBatch(ctx, params{seconds: time.Millisecond, traced: true, expected: rec.designs}, w)
	if err != nil {
		t.Fatal(err)
	}
	emitOK(t, "paper", spec.PerLayer, res)
	if res.metrics["core.iterations"] == 0 || res.metrics["satable.misses"] == 0 {
		t.Errorf("traced run did no HLPower work: %v", res.metrics)
	}
}

// TestTracedRunCatchesDifferences feeds the traced run a reference that
// differs in one design and expects it to fail, naming that design.
func TestTracedRunCatchesDifferences(t *testing.T) {
	t.Parallel()
	w := tinyPaper()
	lr := newLayerRunner(flowConfig(0, w.vectors))
	designs := w.build()
	ctx := context.Background()
	want, err := lr.run(ctx, designs[0])
	if err != nil {
		t.Fatal(err)
	}
	o := want["pr/hlpower"]
	o.LUTs++
	want["pr/hlpower"] = o
	res := &result{metrics: map[string]float64{}}
	if err := reexecute(ctx, lr, designs[:1], want, res); err != nil {
		t.Fatal(err)
	}
	if len(res.mismatches) != 1 || !strings.Contains(res.mismatches[0], "pr/hlpower: luts") {
		t.Fatalf("mismatches = %q, want one naming pr/hlpower luts", res.mismatches)
	}
}

func TestDaemonTiny(t *testing.T) {
	t.Parallel()
	spec := testSpec(t)
	ctx := context.Background()
	w := daemonWorkload{dir: t.TempDir(), graphs: 5, benches: []string{"pr"}, vectors: 50, requests: 10}
	rec, err := runDaemon(ctx, params{seconds: time.Second, record: true}, w)
	if err != nil {
		t.Fatal(err)
	}
	// Record mode serves the whole stream (every graph twice, every
	// bind once) and then replays each distinct request once.
	distinct := w.graphs + 2*len(w.benches)
	if len(rec.designs) != distinct || rec.attempted != 2*w.graphs+2*len(w.benches)+distinct {
		t.Fatalf("record run: %d requests, %d designs", rec.attempted, len(rec.designs))
	}
	emitOK(t, "daemon", spec.EndToEnd, rec)

	res, err := runDaemon(ctx, params{seconds: time.Second, traced: true, expected: rec.designs}, w)
	if err != nil {
		t.Fatal(err)
	}
	emitOK(t, "daemon", spec.PerLayer, res)
	if res.metrics["store.hits"] == 0 || res.metrics["store.puts"] == 0 {
		t.Errorf("restart was not served from the store: %v", res.metrics)
	}
}

func TestCompareFixtures(t *testing.T) {
	spec := testSpec(t)
	var buf bytes.Buffer
	if err := compareFiles(&buf, spec, "testdata/compare_a.json", "testdata/compare_b.json"); err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"op_p50_ms":   "regressed",  // +30% against a 25% bound
		"ops_per_s":   "unresolved", // A's spread exceeds the bound
		"setup_s":     "unchanged",  // +10% against a 25% bound
		"luts":        "unchanged",
		"power_ratio": "improved", // lower by 5.6%, no spread
	}
	got := map[string]string{}
	for _, line := range strings.Split(buf.String(), "\n") {
		f := strings.Fields(line)
		if len(f) > 2 && f[0] == "paper" {
			got[f[1]] = f[len(f)-1]
		}
	}
	for m, v := range want {
		if got[m] != v {
			t.Errorf("%s: verdict %q, want %q\n%s", m, got[m], v, buf.String())
		}
	}
	if !strings.Contains(buf.String(), "1 of 3") {
		t.Errorf("failed runs of B not reported:\n%s", buf.String())
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1}, 0.5, 3.5},
		{[]float64{5, 1, 4}, 1, 5},
	} {
		q1, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

// TestSpecContract checks BENCHMARK.json against the limits its format
// sets: name and unit alphabets, counts, bounds, and the setup_s metric.
func TestSpecContract(t *testing.T) {
	spec := testSpec(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range spec.Workloads {
		if !nameRE.MatchString(w.Name) || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: bad name or why", w.Name)
		}
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q has no runner", w.Name)
		}
	}
	if len(workloads) != len(spec.Workloads) {
		t.Errorf("%d runners for %d workloads", len(workloads), len(spec.Workloads))
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("metric %q: bad or repeated name, or bad unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %q: better = %q", m.Name, m.Better)
		}
		seen[m.Name] = true
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	var maxBound float64
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %q: bound %v", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
	}
	var setup *metricSpec
	for i, m := range spec.EndToEnd {
		if m.Name == "setup_s" {
			setup = &spec.EndToEnd[i]
		}
	}
	if setup == nil || setup.Unit != "s" || setup.Better != "lower" || setup.Bound != maxBound {
		t.Errorf("setup_s must be an end-to-end metric in s, lower is better, with the largest bound: %+v", setup)
	}
}

// TestExpectedMatchesPublished checks the pinned paper results against
// EXPERIMENTS.md's Table 3 (power to 0.1 mW, LUTs exactly, average
// reduction -11.31%), so a re-recording cannot drift from the published
// reproduction unnoticed.
func TestExpectedMatchesPublished(t *testing.T) {
	exp, err := loadExpected(expectedFile[len("bench/"):])
	if err != nil {
		t.Fatal(err)
	}
	table3 := map[string][4]float64{ // LOPASS mW, HLPower mW, LOPASS LUTs, HLPower LUTs
		"chem": {525.4, 471.1, 7175, 6718}, "dir": {193.4, 179.3, 2813, 2678},
		"honda": {124.3, 102.8, 2058, 1873}, "mcm": {172.8, 159.7, 2092, 1932},
		"pr": {131.4, 104.0, 1114, 1061}, "steam": {218.5, 189.3, 4475, 3973},
		"wang": {112.2, 109.4, 1196, 1162},
	}
	paper := exp["paper"]
	var red float64
	for name, row := range table3 {
		lo, hi := paper[name+"/lopass"], paper[name+"/hlpower"]
		if math.Round(lo.PowerMW*10)/10 != row[0] || math.Round(hi.PowerMW*10)/10 != row[1] ||
			float64(lo.LUTs) != row[2] || float64(hi.LUTs) != row[3] {
			t.Errorf("%s: pinned %+v / %+v, Table 3 has %v", name, lo, hi, row)
		}
		red += (lo.PowerMW - hi.PowerMW) / lo.PowerMW * 100 / float64(len(table3))
	}
	if math.Round(red*100)/100 != 11.31 {
		t.Errorf("average reduction %.4f%%, Table 3 has 11.31%%", red)
	}
	for _, name := range []string{"pr", "wang", "honda", "mcm"} {
		for _, b := range []string{"/lopass", "/hlpower"} {
			if d := exp["daemon"][name+b].diff(paper[name+b]); len(d) > 0 {
				t.Errorf("daemon %s%s differs from the paper workload: %v", name, b, d)
			}
		}
	}
}
