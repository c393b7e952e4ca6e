package sim

import "math/rand"

// This file is the single source of random stimulus. Every engine —
// the scalar Simulator, the word-parallel WordSimulator, and callers
// materializing shared .vwf-equivalent vector sets — draws vectors
// through one generator, so the scalar and word paths can never drift
// on stimulus: same (numInputs, seed) means bit-identical vectors
// everywhere.

// vectorSource streams the reproducible random vector sequence for a
// given input count and seed, reusing one buffer across cycles.
type vectorSource struct {
	rng *rand.Rand
	buf []bool
}

func newVectorSource(numInputs int, seed int64) *vectorSource {
	return &vectorSource{
		rng: rand.New(rand.NewSource(seed)),
		buf: make([]bool, numInputs),
	}
}

// next returns the next vector of the sequence. The returned slice is
// reused by the following call. Each bit is the draw rng.Intn(2) == 0,
// read straight from bit 32 of Int63: for a power of two, Intn masks
// Int31, which is Int63 >> 32 (TestVectorSourceMatchesIntn).
func (v *vectorSource) next() []bool {
	for i := range v.buf {
		v.buf[i] = v.rng.Int63()&(1<<32) == 0
	}
	return v.buf
}

// RandomVectors generates n reproducible input vectors for a network,
// shared between designs under comparison (the paper reuses one .vwf
// for LOPASS and HLPower solutions). The sequence is identical to what
// Simulator.RunRandom and WordSimulator.RunRandom apply for the same
// seed.
func RandomVectors(numInputs, n int, seed int64) [][]bool {
	vs := newVectorSource(numInputs, seed)
	out := make([][]bool, n)
	for c := range out {
		out[c] = append([]bool(nil), vs.next()...)
	}
	return out
}
