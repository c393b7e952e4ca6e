package satable

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/netgen"
)

func TestGetCachesValues(t *testing.T) {
	tb := New(4, EstimatorGlitch)
	v1 := tb.Get(netgen.FUAdd, 2, 2)
	if v1 <= 0 {
		t.Fatalf("SA must be positive, got %v", v1)
	}
	m := tb.Misses()
	v2 := tb.Get(netgen.FUAdd, 2, 2)
	if v2 != v1 {
		t.Fatal("cache returned different value")
	}
	if tb.Misses() != m {
		t.Fatal("second Get should hit the cache")
	}
}

func TestGetClampsMuxSizes(t *testing.T) {
	tb := New(4, EstimatorGlitch)
	a := tb.Get(netgen.FUAdd, 0, -3)
	b := tb.Get(netgen.FUAdd, 1, 1)
	if a != b {
		t.Fatal("sizes below 1 should clamp to 1")
	}
}

func TestSAGrowsWithMuxSizes(t *testing.T) {
	tb := New(6, EstimatorGlitch)
	s11 := tb.Get(netgen.FUAdd, 1, 1)
	s44 := tb.Get(netgen.FUAdd, 4, 4)
	if s44 <= s11 {
		t.Fatalf("bigger muxes should mean more SA: 1/1=%v 4/4=%v", s11, s44)
	}
}

func TestUnbalancedMuxesCostMore(t *testing.T) {
	// The physical basis of the muxDiff heuristic: same total inputs,
	// unbalanced split glitches more.
	tb := New(8, EstimatorGlitch)
	bal := tb.Get(netgen.FUAdd, 4, 4)
	unbal := tb.Get(netgen.FUAdd, 7, 1)
	if bal >= unbal {
		t.Fatalf("balanced (%v) should beat unbalanced (%v)", bal, unbal)
	}
}

func TestMultCostsMoreThanAdd(t *testing.T) {
	tb := New(6, EstimatorGlitch)
	if tb.Get(netgen.FUMult, 2, 2) <= tb.Get(netgen.FUAdd, 2, 2) {
		t.Fatal("multiplier partial datapath should out-switch adder's")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	tb := New(4, EstimatorGlitch)
	tb.Get(netgen.FUAdd, 1, 1)
	tb.Get(netgen.FUAdd, 2, 3)
	tb.Get(netgen.FUMult, 1, 2)

	var sb strings.Builder
	if err := tb.Save(&sb); err != nil {
		t.Fatal(err)
	}
	back, err := Load(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if back.Width != 4 || back.Est != EstimatorGlitch {
		t.Fatalf("header lost: width=%d est=%v", back.Width, back.Est)
	}
	if back.Len() != tb.Len() {
		t.Fatalf("entry count %d != %d", back.Len(), tb.Len())
	}
	for _, k := range []Key{{netgen.FUAdd, 1, 1}, {netgen.FUAdd, 2, 3}, {netgen.FUMult, 1, 2}} {
		a := tb.Get(k.Kind, k.KL, k.KR)
		missesBefore := back.Misses()
		b := back.Get(k.Kind, k.KL, k.KR)
		if back.Misses() != missesBefore {
			t.Fatalf("loaded table missed on %+v", k)
		}
		if math.Abs(a-b)/a > 1e-6 {
			t.Fatalf("value drifted through save/load: %v vs %v", a, b)
		}
	}
}

// TestSaveLoadRoundTripAllEstimators round-trips a populated table
// through Save/Load for every valid estimator, and requires Save to
// refuse an out-of-range one — writing est=estimator(N) would produce
// a file Load itself rejects.
func TestSaveLoadRoundTripAllEstimators(t *testing.T) {
	for _, est := range []Estimator{EstimatorGlitch, EstimatorNajm, EstimatorZeroDelay} {
		tb := New(4, est)
		tb.Get(netgen.FUAdd, 1, 2)
		var sb strings.Builder
		if err := tb.Save(&sb); err != nil {
			t.Fatalf("est=%v: %v", est, err)
		}
		back, err := Load(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatalf("est=%v: %v", est, err)
		}
		if back.Est != est || back.Width != 4 {
			t.Fatalf("est=%v: header lost: width=%d est=%v", est, back.Width, back.Est)
		}
		if back.Len() != tb.Len() {
			t.Fatalf("est=%v: entry count %d != %d", est, back.Len(), tb.Len())
		}
	}

	bad := New(4, Estimator(42))
	var sb strings.Builder
	if err := bad.Save(&sb); err == nil {
		t.Fatal("Save accepted an out-of-range estimator")
	}
	if sb.Len() != 0 {
		t.Fatalf("Save wrote %q before rejecting the estimator", sb.String())
	}
}

// TestLoadRejectsDuplicateRows is the regression test for silent
// last-row-wins shadowing: a duplicate (kind, kl, kr) row must be a
// line-numbered load error, not a quiet overwrite.
func TestLoadRejectsDuplicateRows(t *testing.T) {
	in := "# hlpower-satable width=8 est=glitch\n" +
		"add 1 1 0.5\n" +
		"add 2 2 0.75\n" +
		"add 1 1 0.9\n"
	_, err := Load(strings.NewReader(in))
	if err == nil {
		t.Fatal("duplicate row accepted")
	}
	msg := err.Error()
	if !strings.Contains(msg, "line 4") || !strings.Contains(msg, "line 2") {
		t.Fatalf("error %q does not name both the duplicate and the shadowed line", msg)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("")); err == nil {
		t.Fatal("empty input accepted")
	}
	if _, err := Load(strings.NewReader("not a header\n")); err == nil {
		t.Fatal("bad header accepted")
	}
	if _, err := Load(strings.NewReader("# hlpower-satable width=8 est=glitch\nbroken line\n")); err == nil {
		t.Fatal("bad row accepted")
	}
}

func TestPrecompute(t *testing.T) {
	tb := New(4, EstimatorGlitch)
	if err := tb.PrecomputeCtx(context.Background(), 2, 0); err != nil {
		t.Fatal(err)
	}
	// 2 kinds x 2 x 2 entries.
	if tb.Len() != 8 {
		t.Fatalf("precompute filled %d entries, want 8", tb.Len())
	}
	m := tb.Misses()
	tb.Get(netgen.FUMult, 2, 2)
	if tb.Misses() != m {
		t.Fatal("precomputed entry missed")
	}
}

func TestEstimatorsDiffer(t *testing.T) {
	g := New(6, EstimatorGlitch)
	n := New(6, EstimatorNajm)
	z := New(6, EstimatorZeroDelay)
	vg := g.Get(netgen.FUMult, 3, 3)
	vn := n.Get(netgen.FUMult, 3, 3)
	vz := z.Get(netgen.FUMult, 3, 3)
	if vg == vn || vg == vz {
		t.Fatal("estimators should differ")
	}
	// The glitch-aware estimate sees the glitches the zero-delay
	// Chou–Roy model misses (same switching model, added time axis).
	if vg <= vz {
		t.Fatalf("glitch estimate (%v) should exceed zero-delay (%v) on a multiplier", vg, vz)
	}
	// Najm's single-switching assumption is a known overestimator
	// relative to the simultaneous-switching zero-delay model.
	if vn <= vz {
		t.Fatalf("Najm (%v) should exceed zero-delay Chou-Roy (%v)", vn, vz)
	}
}

func BenchmarkTableHitVsCompute(b *testing.B) {
	tb := New(8, EstimatorGlitch)
	tb.Get(netgen.FUMult, 4, 4)
	b.Run("hit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tb.Get(netgen.FUMult, 4, 4)
		}
	})
	b.Run("compute", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fresh := New(8, EstimatorGlitch)
			fresh.Get(netgen.FUMult, 4, 4)
		}
	})
}

// TestGetBatchMatchesSequentialGet checks the batch prefetch contract:
// values identical to serial Gets at every worker count, duplicate and
// unclamped keys included, with misses counted once per unique key.
func TestGetBatchMatchesSequentialGet(t *testing.T) {
	keys := []Key{
		{Kind: netgen.FUAdd, KL: 1, KR: 2},
		{Kind: netgen.FUMult, KL: 2, KR: 1},
		{Kind: netgen.FUAdd, KL: 2, KR: 2},
		{Kind: netgen.FUAdd, KL: 1, KR: 2},  // duplicate
		{Kind: netgen.FUAdd, KL: 0, KR: -1}, // clamps to (1,1)
	}
	ref := New(4, EstimatorGlitch)
	want := make([]float64, len(keys))
	for i, k := range keys {
		want[i] = ref.Get(k.Kind, k.KL, k.KR)
	}
	for _, jobs := range []int{1, 4} {
		tb := New(4, EstimatorGlitch)
		got, err := tb.GetBatch(context.Background(), keys, jobs)
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		for i := range keys {
			if got[i] != want[i] {
				t.Fatalf("jobs=%d: keys[%d] = %v, want %v", jobs, i, got[i], want[i])
			}
		}
		if tb.Misses() != 4 { // 4 unique keys after clamping/dedup
			t.Fatalf("jobs=%d: misses = %d, want 4", jobs, tb.Misses())
		}
	}
}

func TestGetBatchCancellation(t *testing.T) {
	tb := New(4, EstimatorGlitch)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := tb.GetBatch(ctx, []Key{{Kind: netgen.FUAdd, KL: 1, KR: 1}}, 2); err == nil {
		t.Fatal("cancelled batch should fail")
	}
}

// TestSaveLoadArchRoundTrip characterizes a table under a non-default
// architecture and requires the arch fingerprint to survive Save/Load:
// the loaded table must serve the same target (CheckArch nil) and carry
// the target's K into its mapper options.
func TestSaveLoadArchRoundTrip(t *testing.T) {
	k6 := arch.StratixLike6LUT()
	tb := NewForArch(4, EstimatorGlitch, k6)
	tb.Get(netgen.FUAdd, 2, 2)
	var sb strings.Builder
	if err := tb.Save(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "arch="+k6.Fingerprint()) {
		t.Fatalf("header missing arch stamp:\n%s", sb.String())
	}
	back, err := Load(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if err := back.CheckArch(k6); err != nil {
		t.Fatalf("round-tripped table refuses its own arch: %v", err)
	}
	if back.MapOpt.K != 6 {
		t.Fatalf("loaded MapOpt.K = %d, want 6", back.MapOpt.K)
	}
	if back.Arch.Fingerprint() != k6.Fingerprint() {
		t.Fatalf("fingerprint drifted: %s vs %s", back.Arch.Fingerprint(), k6.Fingerprint())
	}
}

// TestCheckArchMismatchNamesBoth requires the refusal error to carry
// both fingerprints so a stale snapshot is diagnosable from the message
// alone.
func TestCheckArchMismatchNamesBoth(t *testing.T) {
	tb := NewForArch(4, EstimatorGlitch, arch.CycloneII())
	want := arch.StratixLike6LUT()
	err := tb.CheckArch(want)
	if err == nil {
		t.Fatal("K=4 table accepted for a K=6 target")
	}
	msg := err.Error()
	if !strings.Contains(msg, tb.Arch.Fingerprint()) || !strings.Contains(msg, want.Fingerprint()) {
		t.Fatalf("error %q does not name both fingerprints", msg)
	}
}

// TestLoadLegacyHeaderDefaultsCycloneII: snapshots written before the
// arch stamp existed (no arch= token) must load as the CycloneII
// default they were characterized under, not be rejected.
func TestLoadLegacyHeaderDefaultsCycloneII(t *testing.T) {
	in := "# hlpower-satable width=8 est=glitch\n" +
		"add 1 1 0.5\n"
	tb, err := Load(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.CheckArch(arch.CycloneII()); err != nil {
		t.Fatalf("legacy snapshot should serve CycloneII: %v", err)
	}
	if tb.MapOpt.K != 4 {
		t.Fatalf("legacy MapOpt.K = %d, want 4", tb.MapOpt.K)
	}
}

// TestLoadRejectsMalformedArchToken: a present-but-unparseable arch
// stamp is corruption, not a legacy file.
func TestLoadRejectsMalformedArchToken(t *testing.T) {
	in := "# hlpower-satable width=8 est=glitch arch=K9;bogus\n" +
		"add 1 1 0.5\n"
	if _, err := Load(strings.NewReader(in)); err == nil {
		t.Fatal("malformed arch token accepted")
	}
}
