package prob

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/cuts"
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

// randomPS draws p and s vectors shaped like waveform steps: about 40%
// quiet inputs (s = 0), a healthy share of exact 0/1 entries — the
// degenerate marginals where the joint distribution collapses and the
// prod==0 early-out triggers — and an occasional NaN.
func randomPS(rng *rand.Rand, n int) (p, s []float64) {
	p = make([]float64, n)
	s = make([]float64, n)
	for i := range p {
		switch r := rng.Intn(100); {
		case r < 10:
			p[i] = 0
		case r < 20:
			p[i] = 1
		case r < 22:
			p[i] = math.NaN()
		default:
			p[i] = rng.Float64()
		}
		switch r := rng.Intn(100); {
		case r < 40:
			s[i] = 0
		case r < 48:
			s[i] = 1
		case r < 50:
			s[i] = math.NaN()
		default:
			s[i] = rng.Float64()
		}
	}
	return p, s
}

// TestCharMatchesScalarReference is the bit-identity property test: for
// random truth tables of 0 to 7 variables (7 is past pairCodeMaxVars,
// covering the uncached pair path) and random p/s vectors with quiet,
// degenerate 0/1 and NaN entries, every characterized estimator must
// return exactly the bits the scalar enumeration returned — on the
// first (cold) evaluation and again against warm caches.
func TestCharMatchesScalarReference(t *testing.T) {
	rng := rand.New(rand.NewSource(424242))
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for trial := 0; trial < 20000; trial++ {
		n := rng.Intn(pairCodeMaxVars + 2)
		tt := randomTable(rng, n)
		p, s := randomPS(rng, n)
		for round := 0; round < 2; round++ {
			if got, want := Characterize(tt).SignalProb(p, NewScratch()), refSignalProb(tt, p); !same(got, want) {
				t.Fatalf("trial %d round %d n=%d: SignalProb %v != scalar %v", trial, round, n, got, want)
			}
			if got, want := Characterize(tt).NajmActivity(p, s, NewScratch()), refNajmActivity(tt, p, s); !same(got, want) {
				t.Fatalf("trial %d round %d n=%d: NajmActivity %v != scalar %v", trial, round, n, got, want)
			}
			if got, want := Characterize(tt).PairProb(p, s, NewScratch()), refPairProb(tt, p, s); !same(got, want) {
				t.Fatalf("trial %d round %d n=%d p=%v s=%v: PairProb %v != scalar %v", trial, round, n, p, s, got, want)
			}
			if got, want := Characterize(tt).ChouRoyActivity(p, s, NewScratch()), refChouRoyActivity(tt, p, s); !same(got, want) {
				t.Fatalf("trial %d round %d n=%d: ChouRoyActivity %v != scalar %v", trial, round, n, got, want)
			}
		}
	}
}

// refPairTableProb is Char.PairProb as it stood before the prefix-product
// pair sum, verbatim: the pair-table loop with its prod==0 early-out.
func refPairTableProb(c *Char, p, s []float64, sc *Scratch) float64 {
	if len(p) != c.n || len(s) != c.n {
		panic("prob: vector length mismatch")
	}
	c.fillJoints(p, s, sc)
	js := sc.js
	total := 0.0
	if codes := c.pairTable(); codes != nil {
		k := len(c.onset)
		for ui := 0; ui < k; ui++ {
			row := codes[ui*k : ui*k+k]
			for _, code := range row {
				prod := 1.0
				for i := 0; i < c.n; i++ {
					prod *= js[4*i+int(code>>uint(2*i))&3]
					if prod == 0 {
						break
					}
				}
				total += prod
			}
		}
		return total
	}
	panic("refPairTableProb: no pair table")
}

// FuzzPairProb checks the prefix-product pair sum against the
// pair-table loop it replaced (refPairTableProb) bit for bit. The input
// gives n in [0, 6], one table
// word (bits past minterm 2^n are dropped) and 2n float64s, p then s,
// in little-endian order (missing ones read as 0); any bit pattern is
// allowed, NaN and ±Inf included.
func FuzzPairProb(f *testing.F) {
	enc := func(xs ...float64) []byte {
		var b []byte
		for _, x := range xs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		return b
	}
	nan, inf := math.NaN(), math.Inf(1)
	f.Add(uint8(0), uint64(1), []byte(nil))
	f.Add(uint8(2), uint64(0x8), enc(0.5, 0.5, 0.5, 0.5))
	f.Add(uint8(3), uint64(0x96), enc(0.5, 0, 1, 0.5, 0, 0.3))
	f.Add(uint8(4), uint64(0xe8e8), enc(0.5, nan, 0.25, 1, 0, 0.5, 0.1, nan))
	f.Add(uint8(5), uint64(0x6996_9669), enc(inf, -inf, 0.5, 1e-300, 0.7, 0.2, inf, -inf, 5e-324, 0.9))
	f.Add(uint8(6), uint64(0xfeed_f00d_dead_beef), enc(0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0, 0.5, 0, 0.5, 0))
	f.Fuzz(func(t *testing.T, nb uint8, word uint64, data []byte) {
		n := int(nb % (pairCodeMaxVars + 1))
		if n < 6 {
			word &= 1<<(1<<n) - 1
		}
		tt, err := bitvec.FromWords(n, []uint64{word})
		if err != nil {
			t.Fatal(err)
		}
		vals := make([]float64, 2*n)
		for i := range vals {
			if len(data) >= 8*(i+1) {
				vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
			}
		}
		p, s := vals[:n], vals[n:]
		c := Characterize(tt)
		got := c.PairProb(p, s, NewScratch())
		want := refPairTableProb(c, p, s, NewScratch())
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("n=%d word=%#x p=%v s=%v: PairProb %v (%#x), pair-table loop %v (%#x)",
				n, word, p, s, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	})
}

// TestCharacterizeInternsByContent checks that structurally identical
// tables share one characterization (pointer equality == functional
// equality, the property network-level memo keys rely on) at every
// one-word arity, whichever constructor built them, and that different
// content — the same backing word at another arity included — gets a
// different one.
func TestCharacterizeInternsByContent(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	seen := make(map[*Char]string)
	for n := 0; n <= bitvec.WordVars; n++ {
		a := randomTable(rng, n)
		b := bitvec.New(n)
		for m := 0; m < 1<<n; m++ {
			b.Set(uint(m), a.Get(uint(m)))
		}
		c := bitvec.FromFunc(n, func(m uint) bool { return a.Get(m) })
		d, err := bitvec.FromWords(n, a.Words())
		if err != nil {
			t.Fatal(err)
		}
		ca := Characterize(a)
		for _, o := range []*bitvec.TruthTable{b, c, d} {
			if o == a {
				t.Fatal("test needs distinct table pointers")
			}
			co := Characterize(o)
			if co != ca {
				t.Fatalf("n=%d: identical tables got distinct characterizations", n)
			}
			if co.ID() != ca.ID() {
				t.Fatalf("n=%d: shared characterization with distinct IDs", n)
			}
		}
		key := fmt.Sprintf("n=%d %s", n, a)
		if prev, ok := seen[ca]; ok && prev != key {
			t.Fatalf("%s and %s share a characterization", prev, key)
		}
		seen[ca] = key
		// Flip one minterm of a copy (an interned table must not
		// change): different content, different *Char.
		flipped := a.Clone()
		flipped.Set(0, !a.Get(0))
		if Characterize(flipped) == ca {
			t.Fatalf("n=%d: different content shares a characterization", n)
		}
	}
	// The same backing word at every arity that admits it.
	byN := make(map[*Char]int)
	for n := 1; n <= bitvec.WordVars; n++ {
		tt, err := bitvec.FromWords(n, []uint64{0b10})
		if err != nil {
			t.Fatal(err)
		}
		c := Characterize(tt)
		if m, ok := byN[c]; ok {
			t.Fatalf("word 0b10 at n=%d and n=%d share a characterization", m, n)
		}
		byN[c] = n
	}
	// A cut function composed by the cut enumerator: AND(a, OR(b, c))
	// over leaves {a, b, c}, characterized like a table built directly.
	x := cuts.Cut{Leaves: []int{2, 3}, Func: bitvec.FromFunc(2, func(m uint) bool { return m != 0 })}
	cut, ok := cuts.Merge(bitvec.FromFunc(2, func(m uint) bool { return m == 3 }),
		[]cuts.Cut{cuts.Trivial(1), x}, 3)
	if !ok {
		t.Fatal("cut merge rejected a 3-leaf union")
	}
	direct := bitvec.FromFunc(3, func(m uint) bool { return m&1 != 0 && m&6 != 0 })
	if Characterize(cut.Func) != Characterize(direct) {
		t.Fatalf("composed cut %s and direct table %s got distinct characterizations", cut.Func, direct)
	}
}

// TestCharacterizeConcurrentInterning characterizes the same contents
// from 8 goroutines, each through its own fresh table pointers, and
// requires one *Char per content (run under -race in CI).
func TestCharacterizeConcurrentInterning(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const contents = 64
	words := make([]uint64, contents)
	ns := make([]int, contents)
	for i := range words {
		ns[i] = i % (bitvec.WordVars + 1)
		words[i] = randomTable(rng, ns[i]).Words()[0]
	}
	got := make([][]*Char, 8)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = make([]*Char, contents)
			for i := range words {
				tt, err := bitvec.FromWords(ns[i], []uint64{words[i]})
				if err != nil {
					panic(err)
				}
				got[g][i] = Characterize(tt)
			}
		}(g)
	}
	wg.Wait()
	for i := range words {
		for g := range got {
			if got[g][i] != got[0][i] {
				t.Fatalf("content %d (n=%d, %#x): goroutines 0 and %d got distinct characterizations", i, ns[i], words[i], g)
			}
		}
	}
}

// TestCharacterizeFreshPointerAllocationFree pins that a lookup of
// known content through a table pointer never seen before renders no
// key and allocates nothing — every cut the mapper composes is such a
// pointer.
func TestCharacterizeFreshPointerAllocationFree(t *testing.T) {
	const runs = 100
	known := randomTable(rand.New(rand.NewSource(5)), 4)
	Characterize(known)
	fresh := make([]*bitvec.TruthTable, runs+1) // AllocsPerRun adds a warm-up call
	for i := range fresh {
		fresh[i] = known.Clone()
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		Characterize(fresh[next])
		next++
	})
	if allocs != 0 {
		t.Fatalf("Characterize on a fresh pointer to known content allocates %.1f objects per call, want 0", allocs)
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
