package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"text/tabwriter"
)

// suiteFile is what -out writes and -compare reads: every run's final
// JSON line, by workload.
type suiteFile struct {
	Runs map[string][]finalLine `json:"runs"`
}

// runSuite runs each workload (or only the named one) runs times, each
// in a fresh process of this binary with seeds 1..runs, and writes the
// collected results to out.
func runSuite(stdout, stderr io.Writer, spec *benchSpec, only string, runs, seconds int, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if seconds <= 0 {
		seconds = spec.RunSeconds
	}
	suite := suiteFile{Runs: map[string][]finalLine{}}
	for _, w := range spec.Workloads {
		if only != "" && w.Name != only {
			continue
		}
		for seed := 1; seed <= runs; seed++ {
			var buf bytes.Buffer
			cmd := exec.Command(self, "-workload", w.Name, "-seed", strconv.Itoa(seed),
				"-seconds", strconv.Itoa(seconds), "-trace", "0")
			cmd.Stdout = &buf
			cmd.Stderr = stderr
			runErr := cmd.Run()
			line, err := lastLine(buf.Bytes())
			if err != nil {
				return fmt.Errorf("%s seed %d: %v (%v)", w.Name, seed, err, runErr)
			}
			var fl finalLine
			if err := json.Unmarshal(line, &fl); err != nil {
				return fmt.Errorf("%s seed %d: %w", w.Name, seed, err)
			}
			fmt.Fprintf(stdout, "%s seed %d: correct=%v %s\n", w.Name, seed, fl.Correct, line)
			suite.Runs[w.Name] = append(suite.Runs[w.Name], fl)
		}
	}
	b, err := json.MarshalIndent(suite, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, append(b, '\n'), 0o644)
}

func lastLine(b []byte) ([]byte, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	if last == nil {
		return nil, fmt.Errorf("no output")
	}
	return last, sc.Err()
}

func loadSuite(path string) (*suiteFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s suiteFile
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// verdict classifies b against a for one metric (see compareFiles).
func verdict(m metricSpec, a, b []float64) (string, float64) {
	medA, medB := median(a), median(b)
	delta := ratio(medB-medA, medA)
	worse := delta
	if m.Better == "higher" {
		worse = -delta
	}
	spread := max(relSpread(a), relSpread(b))
	switch {
	case spread > m.Bound:
		if allBetter(m, a, b) {
			return "improved", delta
		}
		return "unresolved", delta
	case worse > m.Bound:
		return "regressed", delta
	case worse < 0 && -worse > relSpread(a):
		return "improved", delta
	}
	return "unchanged", delta
}

// relSpread is the interquartile distance as a share of the median.
func relSpread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return ratio(q3-q1, median(xs))
}

// allBetter reports whether every value of b is better than every value
// of a.
func allBetter(m metricSpec, a, b []float64) bool {
	sa, sb := sorted(a), sorted(b)
	if m.Better == "higher" {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}

// compareFiles prints, per workload and metric, each side's median and
// quartiles, the change of the median and a verdict: regressed when b's
// median is worse than a's by more than the metric's bound, improved
// when it is better by more than a's own spread, unresolved when either
// side's spread exceeds the bound (unless every run of b beats every
// run of a), unchanged otherwise.
func compareFiles(w io.Writer, spec *benchSpec, pathA, pathB string) error {
	a, err := loadSuite(pathA)
	if err != nil {
		return err
	}
	b, err := loadSuite(pathB)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median [q1, q3]\tB median [q1, q3]\tdelta\tverdict")
	var names []string
	for name := range a.Runs {
		if _, ok := b.Runs[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		for _, m := range spec.EndToEnd {
			va, vb := values(a.Runs[name], m.Name), values(b.Runs[name], m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v, delta := verdict(m, va, vb)
			qa1, qa3 := quartiles(va)
			qb1, qb3 := quartiles(vb)
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%+.2f%%\t%s\n",
				name, m.Name, m.Unit, median(va), qa1, qa3, median(vb), qb1, qb3, delta*100, v)
		}
		fmt.Fprintf(tw, "%s\tfailed runs\t\t%d of %d\t%d of %d\t\t\n", name,
			failedRuns(a.Runs[name]), len(a.Runs[name]), failedRuns(b.Runs[name]), len(b.Runs[name]))
	}
	return tw.Flush()
}

func values(runs []finalLine, metric string) []float64 {
	var vs []float64
	for _, r := range runs {
		if mv, ok := r.Metrics[metric]; ok {
			vs = append(vs, mv.Value)
		}
	}
	return vs
}

func failedRuns(runs []finalLine) int {
	n := 0
	for _, r := range runs {
		if !r.Correct {
			n++
		}
	}
	return n
}
