package prob

import (
	"math/rand"
	"testing"

	"repro/internal/bitvec"
)

// ---------------------------------------------------------------------
// Verbatim pre-vectorization reference implementations. These are the
// scalar estimators exactly as they stood before the characterized
// (Char) fast path landed, kept as the bit-identity oracle: the
// vectorized code promises *identical* floats, not merely close ones,
// because flow-stage golden hashes depend on the exact bit patterns.
// (refClampActivity also preserves the old missing p-clamp; see
// TestClampActivityClampsProbability.)
// ---------------------------------------------------------------------

func refSignalProb(f *bitvec.TruthTable, p []float64) float64 {
	n := f.NumVars()
	if len(p) != n {
		panic("prob: probability vector length mismatch")
	}
	total := 0.0
	for m := 0; m < 1<<n; m++ {
		if !f.Get(uint(m)) {
			continue
		}
		prod := 1.0
		for i := 0; i < n; i++ {
			if uint(m)&(1<<uint(i)) != 0 {
				prod *= p[i]
			} else {
				prod *= 1 - p[i]
			}
		}
		total += prod
	}
	return total
}

func refNajmActivity(f *bitvec.TruthTable, p, s []float64) float64 {
	n := f.NumVars()
	if len(p) != n || len(s) != n {
		panic("prob: vector length mismatch")
	}
	total := 0.0
	for i := 0; i < n; i++ {
		if s[i] == 0 {
			continue
		}
		total += refSignalProb(f.BooleanDiff(i), p) * s[i]
	}
	return total
}

func refClampActivity(p, s float64) float64 {
	limit := 2 * refMinf(p, 1-p)
	if s > limit {
		return limit
	}
	if s < 0 {
		return 0
	}
	return s
}

func refMinf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func refPairProb(f *bitvec.TruthTable, p, s []float64) float64 {
	n := f.NumVars()
	if len(p) != n || len(s) != n {
		panic("prob: vector length mismatch")
	}
	type joint [2][2]float64
	js := make([]joint, n)
	for i := 0; i < n; i++ {
		si := refClampActivity(p[i], s[i])
		half := si / 2
		js[i] = joint{
			{1 - p[i] - half, half},
			{half, p[i] - half},
		}
	}
	var onset []uint
	for m := 0; m < 1<<n; m++ {
		if f.Get(uint(m)) {
			onset = append(onset, uint(m))
		}
	}
	total := 0.0
	for _, u := range onset {
		for _, v := range onset {
			prod := 1.0
			for i := 0; i < n; i++ {
				a := (u >> uint(i)) & 1
				b := (v >> uint(i)) & 1
				prod *= js[i][a][b]
				if prod == 0 {
					break
				}
			}
			total += prod
		}
	}
	return total
}

func refChouRoyActivity(f *bitvec.TruthTable, p, s []float64) float64 {
	py := refSignalProb(f, p)
	pp := refPairProb(f, p, s)
	a := 2 * (py - pp)
	if a < 0 {
		return 0
	}
	if a > 1 {
		return 1
	}
	return a
}

// randomTable returns a random n-variable truth table.
func randomTable(rng *rand.Rand, n int) *bitvec.TruthTable {
	tt := bitvec.New(n)
	for m := 0; m < 1<<n; m++ {
		if rng.Intn(2) == 0 {
			tt.Set(uint(m), true)
		}
	}
	return tt
}

// randomPS draws p and s vectors from [0,1], forcing a healthy share of
// exact 0/1 entries — the degenerate marginals where the joint
// distribution collapses and the prod==0 early-out triggers.
func randomPS(rng *rand.Rand, n int) (p, s []float64) {
	p = make([]float64, n)
	s = make([]float64, n)
	for i := range p {
		switch rng.Intn(8) {
		case 0:
			p[i] = 0
		case 1:
			p[i] = 1
		default:
			p[i] = rng.Float64()
		}
		switch rng.Intn(8) {
		case 0:
			s[i] = 0
		case 1:
			s[i] = 1
		default:
			s[i] = rng.Float64()
		}
	}
	return p, s
}

// TestCharMatchesScalarReference is the bit-identity property test: for
// random truth tables (including ones past pairCodeMaxVars, covering the
// uncached pair path) and random p/s vectors with degenerate 0/1
// entries, every characterized estimator must return *exactly* the float
// the scalar enumeration returned — on the first (cold) evaluation and
// again against warm caches.
func TestCharMatchesScalarReference(t *testing.T) {
	rng := rand.New(rand.NewSource(424242))
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(6)
		if trial%29 == 0 {
			n = pairCodeMaxVars + 1 // pair-code fallback path
		}
		tt := randomTable(rng, n)
		p, s := randomPS(rng, n)
		for round := 0; round < 2; round++ {
			if got, want := SignalProb(tt, p), refSignalProb(tt, p); got != want {
				t.Fatalf("trial %d round %d n=%d: SignalProb %v != scalar %v", trial, round, n, got, want)
			}
			if got, want := NajmActivity(tt, p, s), refNajmActivity(tt, p, s); got != want {
				t.Fatalf("trial %d round %d n=%d: NajmActivity %v != scalar %v", trial, round, n, got, want)
			}
			if got, want := PairProb(tt, p, s), refPairProb(tt, p, s); got != want {
				t.Fatalf("trial %d round %d n=%d: PairProb %v != scalar %v", trial, round, n, got, want)
			}
			if got, want := ChouRoyActivity(tt, p, s), refChouRoyActivity(tt, p, s); got != want {
				t.Fatalf("trial %d round %d n=%d: ChouRoyActivity %v != scalar %v", trial, round, n, got, want)
			}
		}
	}
}

// TestCharacterizeInternsByContent checks that structurally identical
// tables share one characterization (pointer equality == functional
// equality, the property network-level memo keys rely on).
func TestCharacterizeInternsByContent(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomTable(rng, 4)
	b := bitvec.New(4)
	for m := 0; m < 16; m++ {
		b.Set(uint(m), a.Get(uint(m)))
	}
	if a == b {
		t.Fatal("test needs distinct table pointers")
	}
	ca, cb := Characterize(a), Characterize(b)
	if ca != cb {
		t.Fatal("identical tables got distinct characterizations")
	}
	if ca.ID() != cb.ID() {
		t.Fatal("shared characterization with distinct IDs")
	}
}

// TestClampActivityClampsProbability is the regression test for the
// missing probability clamp: a propagated p one ulp outside [0,1] made
// the old limit negative, so clampActivity returned a *negative*
// activity that then poisoned the pairwise joint distribution.
func TestClampActivityClampsProbability(t *testing.T) {
	over := 1 + 1e-12
	under := -1e-12
	// The fixed code treats out-of-range p as its nearest valid marginal:
	// both degenerate marginals admit zero switching.
	if got := clampActivity(over, 0.5); got != 0 {
		t.Fatalf("clampActivity(1+eps, 0.5) = %v, want 0", got)
	}
	if got := clampActivity(under, 0.5); got != 0 {
		t.Fatalf("clampActivity(-eps, 0.5) = %v, want 0", got)
	}
	// The reference still reproduces the bug; if it stops failing this
	// way the regression test has lost its subject.
	if ref := refClampActivity(over, 0.5); ref >= 0 {
		t.Fatalf("reference clamp no longer negative (%v); update this test", ref)
	}
	// In-range behavior is unchanged.
	for _, tc := range []struct{ p, s, want float64 }{
		{0.5, 0.3, 0.3},
		{0.5, 1.5, 1.0},
		{0.25, 0.9, 0.5},
		{0.5, -0.2, 0},
		{0, 0.7, 0},
		{1, 0.7, 0},
	} {
		if got := clampActivity(tc.p, tc.s); got != tc.want {
			t.Fatalf("clampActivity(%v, %v) = %v, want %v", tc.p, tc.s, got, tc.want)
		}
		if ref := refClampActivity(tc.p, tc.s); ref != tc.want {
			t.Fatalf("reference clampActivity(%v, %v) = %v, want %v", tc.p, tc.s, ref, tc.want)
		}
	}
}
