package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"repro/internal/flow"
)

// outcome is the part of one design's result the benchmark checks: the
// mapped area and depth, the dynamic power and the simulated transition
// count. Power is compared bit for bit; Go's JSON encoding writes the
// shortest decimal that reads back to the same float64, so the values
// in bench/expected.json round-trip exactly. Transitions is 0 where the
// producer does not report it (daemon responses).
type outcome struct {
	LUTs        int     `json:"luts"`
	Depth       int     `json:"depth"`
	PowerMW     float64 `json:"power_mw"`
	Transitions int64   `json:"transitions,omitempty"`
}

func outcomeOf(r *flow.Result) outcome {
	return outcome{LUTs: r.LUTs, Depth: r.Depth, PowerMW: r.Power.DynamicPowerMW, Transitions: r.Counts.Total()}
}

// diff names every field in which got differs from want; a zero
// Transitions on either side is not compared.
func (got outcome) diff(want outcome) []string {
	var d []string
	if got.LUTs != want.LUTs {
		d = append(d, fmt.Sprintf("luts %d, want %d", got.LUTs, want.LUTs))
	}
	if got.Depth != want.Depth {
		d = append(d, fmt.Sprintf("depth %d, want %d", got.Depth, want.Depth))
	}
	if got.PowerMW != want.PowerMW {
		d = append(d, fmt.Sprintf("power_mw %v, want %v", got.PowerMW, want.PowerMW))
	}
	if got.Transitions != 0 && want.Transitions != 0 && got.Transitions != want.Transitions {
		d = append(d, fmt.Sprintf("transitions %d, want %d", got.Transitions, want.Transitions))
	}
	return d
}

// checkAgainst records a mismatch for every design of got whose outcome
// differs from want[design], and for every design want lacks. what
// names the reference in the message.
func (r *result) checkAgainst(got, want map[string]outcome, what string) {
	for _, key := range sortedKeys(got) {
		w, ok := want[key]
		if !ok {
			r.fail("%s: no %s result", key, what)
			continue
		}
		for _, d := range got[key].diff(w) {
			r.fail("%s: %s (%s)", key, d, what)
		}
	}
}

func sortedKeys(m map[string]outcome) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// expectedSet is bench/expected.json: workload -> design -> outcome,
// recorded with -record at -seed 0.
type expectedSet map[string]map[string]outcome

func loadExpected(path string) (expectedSet, error) {
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return expectedSet{}, nil
	}
	if err != nil {
		return nil, err
	}
	var e expectedSet
	if err := json.Unmarshal(b, &e); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return e, nil
}

// saveExpected writes e with one design per line, in sorted order, so a
// re-recording diffs line by line.
func saveExpected(path string, e expectedSet) error {
	var buf bytes.Buffer
	buf.WriteString("{")
	names := make([]string, 0, len(e))
	for name := range e {
		names = append(names, name)
	}
	sort.Strings(names)
	for i, name := range names {
		if i > 0 {
			buf.WriteString(",")
		}
		fmt.Fprintf(&buf, "\n %q: {", name)
		for j, key := range sortedKeys(e[name]) {
			b, err := json.Marshal(e[name][key])
			if err != nil {
				return err
			}
			if j > 0 {
				buf.WriteString(",")
			}
			fmt.Fprintf(&buf, "\n  %q: %s", key, b)
		}
		buf.WriteString("\n }")
	}
	buf.WriteString("\n}\n")
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
