package satable

import (
	"context"
	"math"
	"testing"

	"repro/internal/netgen"
	"repro/internal/store"
)

// TestStoreEntriesHeldToLoadRule plants a NaN and a negative SA value
// in a table's durable store class, written with the plain float64
// codec that accepts both. Load rejects either value in a snapshot; the
// store path must apply the same rule: both entries are quarantined,
// recomputed, and the recomputed values written back.
func TestStoreEntriesHeldToLoadRule(t *testing.T) {
	ctx := context.Background()
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	tb := New(4, EstimatorGlitch)
	class := "sa@" + tb.Fingerprint()
	planted := map[Key]float64{
		{Kind: netgen.FUAdd, KL: 2, KR: 2}:  math.NaN(),
		{Kind: netgen.FUMult, KL: 1, KR: 2}: -1,
	}
	st.RegisterCodec("sa@", store.Float64())
	for k, bad := range planted {
		st.Put(ctx, class, keyString(k), bad)
		if _, ok := st.Get(ctx, class, keyString(k)); !ok {
			t.Fatalf("planted %v for %v did not land in the store", bad, k)
		}
	}

	tb.AttachStore(st)
	ref := New(4, EstimatorGlitch)
	for k := range planted {
		got, want := tb.Get(k.Kind, k.KL, k.KR), ref.Get(k.Kind, k.KL, k.KR)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%v: served %v, want the recomputed %v", k, got, want)
		}
		v, ok := st.Get(ctx, class, keyString(k))
		if !ok || math.Float64bits(v.(float64)) != math.Float64bits(want) {
			t.Fatalf("%v: store holds %v (present %v) after recompute, want %v", k, v, ok, want)
		}
	}
	if q := st.Stats().Quarantined; q != len(planted) {
		t.Fatalf("quarantined %d entries, want %d", q, len(planted))
	}
	if m := tb.Misses(); m != len(planted) {
		t.Fatalf("%d characterizations, want %d recomputes", m, len(planted))
	}
}
