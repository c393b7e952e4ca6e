package satable

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/arch"
)

// FuzzSATableLoad feeds arbitrary text to Load, the SA snapshot reader.
// Load must never panic, and a table it accepts must round-trip through
// Save and Load to the same entries (at the snapshot's %.9g precision)
// and the same Fingerprint.
func FuzzSATableLoad(f *testing.F) {
	k6 := arch.StratixLike6LUT().Fingerprint()
	f.Add("# hlpower-satable width=8 est=glitch\nadd 1 1 12.5\nmult 2 3 100.25\n")
	f.Add("# hlpower-satable width=4 est=najm arch=" + k6 + "\n# comment\n\nadd 1 2 1e-3\n")
	f.Add("# hlpower-satable width=64 est=zerodelay arch=" + arch.CycloneII().Fingerprint() + "\nmult 256 256 0\n")
	f.Add("# hlpower-satable width=8 est=glitch\nadd 1 1 NaN\n")
	f.Add("# hlpower-satable width=8 est=glitch\nadd 1 1 1\nadd 1 1 2\n")
	f.Add("# hlpower-satable width=0 est=bogus\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, in string) {
		tb, err := Load(strings.NewReader(in))
		if err != nil {
			return
		}
		var saved strings.Builder
		if err := tb.Save(&saved); err != nil {
			t.Fatalf("Save of a loaded table: %v", err)
		}
		back, err := Load(strings.NewReader(saved.String()))
		if err != nil {
			t.Fatalf("reloading a saved table: %v\n%s", err, saved.String())
		}
		if got, want := back.Fingerprint(), tb.Fingerprint(); got != want {
			t.Fatalf("fingerprint %s after the round trip, want %s\n%s", got, want, saved.String())
		}
		want, got := tb.cache.Snapshot(saClass), back.cache.Snapshot(saClass)
		if len(got) != len(want) {
			t.Fatalf("%d entries after the round trip, want %d", len(got), len(want))
		}
		for k, v := range want {
			w, ok := got[k]
			if !ok {
				t.Fatalf("entry %q lost in the round trip", k)
			}
			if a, b := fmt.Sprintf("%.9g", v), fmt.Sprintf("%.9g", w); a != b {
				t.Fatalf("entry %q: %s after the round trip, want %s", k, b, a)
			}
		}
	})
}
