// Command bench is the repository's benchmark harness: one command that
// runs a named workload for a fixed time, checks every output it
// produces, and prints the metrics BENCHMARK.json names.
//
// Run it from the repository root through bench/run.sh, which builds the
// harness into .bench_build first:
//
//	bash bench/run.sh --workload paper --seed 1 --seconds 25 --trace 0
//	bash bench/run.sh --workload paper --seed 1 --seconds 25 --trace 1
//	bash bench/run.sh -out a.json -runs 3            # every workload, 3 fresh processes each
//	bash bench/run.sh -compare a.json b.json
//	bash bench/run.sh --workload ctrl --seed 0 -record
//
// A run prints one "workload metric value unit" line per metric and, as
// its last line, the JSON result {"correct", "attempted", "failed",
// "metrics"}. With --trace 0 the metrics are BENCHMARK.json's end_to_end
// list, measured with tracing off; with --trace 1 they are its per_layer
// list, from a run that re-executes every design layer by layer (see
// layers.go). The exit status is 0 only when every output checked out.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"
)

// Files the harness reads, relative to the repository root.
const (
	benchmarkFile = "BENCHMARK.json"
	expectedFile  = "bench/expected.json"
	// workDir holds the daemon workload's stores; .gitignore names it.
	workDir = ".bench_build"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wl := fs.String("workload", "", "workload to run (see BENCHMARK.json)")
	seed := fs.Int64("seed", 0, "input seed; 0 reproduces the repository defaults that bench/expected.json pins")
	seconds := fs.Int("seconds", 0, "measurement length in seconds (0 = BENCHMARK.json run_seconds)")
	trace := fs.Int("trace", 0, "1 = traced run reporting the per_layer metrics")
	record := fs.Bool("record", false, "write this run's per-design results into bench/expected.json (seed 0 only)")
	out := fs.String("out", "", "run every workload (or -workload) -runs times in fresh processes and write the results here")
	runs := fs.Int("runs", 3, "runs per workload for -out")
	compare := fs.Bool("compare", false, "compare two -out files: bench -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := loadSpec(benchmarkFile)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare wants two result files")
			return 2
		}
		if err := compareFiles(stdout, spec, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	case *out != "":
		if err := runSuite(stdout, stderr, spec, *wl, *runs, *seconds, *out); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	if *seconds <= 0 {
		*seconds = spec.RunSeconds
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "bench: -trace wants 0 or 1")
		return 2
	}
	if *record && (*seed != 0 || *trace != 0) {
		fmt.Fprintln(stderr, "bench: -record needs -seed 0 and -trace 0")
		return 2
	}
	w, ok := workloads[*wl]
	if !ok || !spec.hasWorkload(*wl) {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *wl)
		return 2
	}
	exp, err := loadExpected(expectedFile)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	p := params{
		seed:        *seed,
		seconds:     time.Duration(*seconds) * time.Second,
		traced:      *trace == 1,
		expected:    exp[*wl],
		pinnedPaper: exp["paper"],
		record:      *record,
	}
	res, err := w(context.Background(), p)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", *wl, err)
		return 1
	}
	if *record {
		exp[*wl] = res.designs
		if err := saveExpected(expectedFile, exp); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	list := spec.EndToEnd
	if p.traced {
		list = spec.PerLayer
	}
	final, err := emit(stdout, *wl, list, res)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", *wl, err)
		return 1
	}
	if !final.Correct {
		return 1
	}
	return 0
}

// params is what every workload runs with.
type params struct {
	seed    int64
	seconds time.Duration
	traced  bool
	// expected holds this workload's pinned per-design results (nil when
	// none are recorded); record asks for a full, unchecked pass whose
	// results replace them.
	expected map[string]outcome
	record   bool
	// pinnedPaper is the paper workload's pinned results, the known
	// answers a run at a seed other than 0 checks (see checkPinned).
	pinnedPaper map[string]outcome
}

// result is what a workload run reports back to emit.
type result struct {
	// metrics holds one value per metric name of the run's list.
	metrics map[string]float64
	// info rows are printed but are not part of the JSON result.
	info []infoRow
	// attempted counts the design results (batch) or requests (daemon)
	// the run produced; mismatches names each failed check.
	attempted  int
	mismatches []string
	// designs are the run's per-design results, for -record.
	designs map[string]outcome
}

type infoRow struct {
	name  string
	value float64
	unit  string
}

func (r *result) fail(format string, args ...any) {
	r.mismatches = append(r.mismatches, fmt.Sprintf(format, args...))
}

// finalLine is the JSON object a run prints last.
type finalLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit prints every metric of list as "workload metric value unit", the
// info rows and mismatches, and then the final JSON line. A metric the
// workload did not produce, or one it produced that list lacks, is an
// error: the emitted names must be exactly BENCHMARK.json's.
func emit(w io.Writer, workload string, list []metricSpec, res *result) (finalLine, error) {
	final := finalLine{
		Attempted: res.attempted,
		Failed:    len(res.mismatches),
		Metrics:   make(map[string]metricValue, len(list)),
	}
	for _, m := range list {
		v, ok := res.metrics[m.Name]
		if !ok {
			return final, fmt.Errorf("metric %s was not measured", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return final, fmt.Errorf("metric %s is %v", m.Name, v)
		}
		final.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	if len(res.metrics) != len(list) {
		var extra []string
		for name := range res.metrics {
			if _, ok := final.Metrics[name]; !ok {
				extra = append(extra, name)
			}
		}
		sort.Strings(extra)
		return final, fmt.Errorf("metrics %v are not in %s", extra, benchmarkFile)
	}
	if final.Attempted < 1 {
		return final, errors.New("no operation was attempted")
	}
	final.Correct = final.Failed == 0
	for _, m := range list {
		fmt.Fprintf(w, "%s %s %.6g %s\n", workload, m.Name, final.Metrics[m.Name].Value, m.Unit)
	}
	for _, r := range res.info {
		fmt.Fprintf(w, "%s %s %.6g %s (info)\n", workload, r.name, r.value, r.unit)
	}
	for _, m := range res.mismatches {
		fmt.Fprintf(w, "%s FAILED %s\n", workload, m)
	}
	b, err := json.Marshal(final)
	if err != nil {
		return final, err
	}
	fmt.Fprintln(w, string(b))
	return final, nil
}
