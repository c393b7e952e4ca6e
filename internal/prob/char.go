package prob

import (
	"sync"
	"sync/atomic"

	"repro/internal/bitvec"
)

// This file implements the vectorized estimator core: a per-truth-table
// precomputed characterization (Char) that EstimateNetwork and the
// glitch package evaluate against, instead of re-enumerating 2^n
// minterms and re-deriving BooleanDiff tables on every call.
//
// A Char caches three things:
//
//   - the on-set minterm list (ascending), so SignalProb and PairProb
//     iterate exactly the terms the scalar summation added and skip the
//     off-set entirely;
//   - the per-variable Boolean-difference characterizations driving
//     Najm's formula (Eq. 1), derived once instead of per call;
//   - the factored per-input joint codes of the Chou–Roy pairwise sum
//     (Eq. 2): for every on-set pair (u, v) and input i, the 2-bit
//     index (u_i, v_i) into input i's 2×2 joint distribution, packed
//     into one uint32 per pair.
//
// Chars are interned by table content in package-global caches, so two
// structurally identical LUTs (ubiquitous in bit-sliced datapaths)
// share one characterization and pointer equality on *Char means
// functional equality — which is what makes (char, p, s) memoization in
// the network estimators sound. Every LUT function fits one backing
// word (at most 6 variables), so the mapper's per-cut lookups key a map
// on that word and render nothing.
//
// Every evaluation keeps the scalar implementation's summation and
// multiplication order exactly, so results are bit-identical to the
// historical per-call enumeration (asserted by TestCharMatchesScalar*).

// pairCodeMaxVars bounds the precomputed pair-code table: beyond 6
// variables the on-set can reach 2^n entries and the pair table grows
// as its square, so wider tables fall back to extracting the joint
// indexes on the fly (same arithmetic, no cache).
const pairCodeMaxVars = 6

// Char is the precomputed characterization of one Boolean function.
// Obtain one with Characterize; the zero value is not usable. A Char is
// immutable after construction and safe for concurrent use.
type Char struct {
	tt    *bitvec.TruthTable
	n     int
	onset []uint16 // ascending on-set minterms

	// id is the process-unique characterization identity memoization
	// keys embed (pointer identity without unsafe).
	id uint64

	pairOnce  sync.Once
	pairCodes []uint32 // len(onset)^2 packed joint indexes; nil if n > pairCodeMaxVars

	diffOnce sync.Once
	diffs    []*Char // per-variable BooleanDiff characterizations
}

// charSeq allocates Char identities.
var charSeq atomic.Uint64

// byWord interns the characterizations of functions of at most
// bitvec.WordVars variables, keyed by (variable count, the table's one
// backing word). Tables are canonical (no bits set past minterm 2^n),
// so equal keys mean equal functions; n = 0 is a valid table too. A
// repeat lookup takes the read lock only and allocates nothing.
var (
	byWordMu sync.RWMutex
	byWord   = make(map[[2]uint64]*Char)
)

// interns is the content-keyed cache of the wider characterizations.
var interns sync.Map // string -> *Char

// internKey renders the table content (variable count + backing words)
// as a map key.
func internKey(f *bitvec.TruthTable) string {
	words := f.Words()
	b := make([]byte, 0, 1+8*len(words))
	b = append(b, byte(f.NumVars()))
	for _, w := range words {
		b = append(b,
			byte(w), byte(w>>8), byte(w>>16), byte(w>>24),
			byte(w>>32), byte(w>>40), byte(w>>48), byte(w>>56))
	}
	return string(b)
}

// Characterize returns the interned characterization of f. Two tables
// computing the same function of the same arity share one *Char, so
// pointer equality on the result is functional equality.
func Characterize(f *bitvec.TruthTable) *Char {
	if f.NumVars() > bitvec.WordVars {
		key := internKey(f)
		if v, loaded := interns.Load(key); loaded {
			return v.(*Char)
		}
		v, _ := interns.LoadOrStore(key, newChar(f))
		return v.(*Char)
	}
	key := [2]uint64{uint64(f.NumVars()), f.Words()[0]}
	byWordMu.RLock()
	c, ok := byWord[key]
	byWordMu.RUnlock()
	if ok {
		return c
	}
	byWordMu.Lock()
	defer byWordMu.Unlock()
	if c, ok := byWord[key]; ok {
		return c
	}
	c = newChar(f)
	byWord[key] = c
	return c
}

// newChar builds a characterization without interning (used for the
// per-variable difference tables, which are reachable only from their
// parent).
func newChar(f *bitvec.TruthTable) *Char {
	return &Char{
		tt:    f,
		n:     f.NumVars(),
		onset: f.AppendOnSet(nil),
		id:    charSeq.Add(1),
	}
}

// NumVars returns the characterized function's variable count.
func (c *Char) NumVars() int { return c.n }

// ID returns the process-unique characterization identity. Memoization
// keys embed it: equal IDs imply the same function.
func (c *Char) ID() uint64 { return c.id }

// pairTable returns the packed joint-index table for the on-set pair
// sum, building it on first use. Returns nil when the function is too
// wide to cache (n > pairCodeMaxVars).
func (c *Char) pairTable() []uint32 {
	if c.n > pairCodeMaxVars {
		return nil
	}
	c.pairOnce.Do(func() {
		k := len(c.onset)
		codes := make([]uint32, k*k)
		for ui, u := range c.onset {
			for vi, v := range c.onset {
				var code uint32
				for i := 0; i < c.n; i++ {
					a := uint32(u>>uint(i)) & 1
					b := uint32(v>>uint(i)) & 1
					code |= (a<<1 | b) << uint(2*i)
				}
				codes[ui*k+vi] = code
			}
		}
		c.pairCodes = codes
	})
	return c.pairCodes
}

// diffChars returns the per-variable Boolean-difference
// characterizations, deriving them on first use.
func (c *Char) diffChars() []*Char {
	c.diffOnce.Do(func() {
		diffs := make([]*Char, c.n)
		for i := 0; i < c.n; i++ {
			diffs[i] = newChar(c.tt.BooleanDiff(i))
		}
		c.diffs = diffs
	})
	return c.diffs
}

// Scratch holds the reusable evaluation buffers a characterized
// estimation threads through its calls. One Scratch serves any function
// arity (buffers grow on demand and are reused); it is not safe for
// concurrent use — give each goroutine its own.
type Scratch struct {
	pq []float64 // [2i] = 1-p[i], [2i+1] = p[i]
	js []float64 // [4i+code] = input i's joint entry for 2-bit code
}

// NewScratch returns an empty evaluation scratch.
func NewScratch() *Scratch { return &Scratch{} }

// grow returns s sized to at least n entries of width per variable.
func growF(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// SignalProb returns P(f = 1) for the characterized function given
// independent input probabilities p — same summation order as the
// scalar enumeration, restricted to the cached on-set.
func (c *Char) SignalProb(p []float64, sc *Scratch) float64 {
	if len(p) != c.n {
		panic("prob: probability vector length mismatch")
	}
	sc.pq = growF(sc.pq, 2*c.n)
	pq := sc.pq
	for i, pi := range p {
		pq[2*i] = 1 - pi
		pq[2*i+1] = pi
	}
	total := 0.0
	for _, m := range c.onset {
		prod := 1.0
		for i := 0; i < c.n; i++ {
			prod *= pq[2*i+int(m>>uint(i))&1]
		}
		total += prod
	}
	return total
}

// NajmActivity returns the transition density under Najm's model
// (Eq. 1), s(y) = sum_i P(df/dx_i) * s(x_i), evaluated against the
// cached per-variable difference characterizations. It ignores
// simultaneous switching and so overestimates activity for wide gates.
func (c *Char) NajmActivity(p, s []float64, sc *Scratch) float64 {
	if len(p) != c.n || len(s) != c.n {
		panic("prob: vector length mismatch")
	}
	diffs := c.diffChars()
	total := 0.0
	for i := 0; i < c.n; i++ {
		if s[i] == 0 {
			continue
		}
		total += diffs[i].SignalProb(p, sc) * s[i]
	}
	return total
}

// fillJoints builds the per-input 2×2 joint distributions into the
// scratch: js[4i+(a<<1|b)] = P(x_i(t) = a, x_i(t+T) = b). Marginals are
// clamped into [0,1] first (see clampActivity) so the joint is a valid
// distribution even when a propagated probability overshoots 1 by
// rounding.
func (c *Char) fillJoints(p, s []float64, sc *Scratch) {
	sc.js = growF(sc.js, 4*c.n)
	js := sc.js
	for i := 0; i < c.n; i++ {
		pi := clamp01(p[i])
		si := clampActivity(pi, s[i])
		half := si / 2
		js[4*i+0] = 1 - pi - half // (0,0)
		js[4*i+1] = half          // (0,1)
		js[4*i+2] = half          // (1,0)
		js[4*i+3] = pi - half     // (1,1)
	}
}

// prefixVars is the number of leading inputs whose joint-factor
// products PairProb tabulates once per call (4^prefixVars entries).
const prefixVars = 3

// PairProb returns P(y(t) = 1 AND y(t+T) = 1) under the Chou–Roy model,
// where input i is a two-state process with marginal p[i] and
// transition probability s[i] per unit period, independent across
// inputs — the scalar double sum over on-set pairs, evaluated through
// the precomputed joint-index codes when available.
//
// On the code path, the product of the first min(n, prefixVars) inputs'
// joint factors is tabulated for every code prefix, multiplied in the
// scalar order, so each pair costs one lookup plus the remaining
// factors. The scalar loop stops a pair at a zero product; this one
// does not, which keeps the scalar bits: 1.0·x = x, every factor is
// finite, so a product that reaches zero stays ±0, and ±0 cannot change
// a sum that starts at +0. A NaN operand is the exception (0·NaN is
// NaN), so NaN inputs take the scalar loop.
func (c *Char) PairProb(p, s []float64, sc *Scratch) float64 {
	if len(p) != c.n || len(s) != c.n {
		panic("prob: vector length mismatch")
	}
	c.fillJoints(p, s, sc)
	js := sc.js
	if codes := c.pairTable(); codes != nil && !hasNaN(p) && !hasNaN(s) {
		m := min(c.n, prefixVars)
		var pre [1 << (2 * prefixVars)]float64
		pre[0] = 1
		size := 1
		for i := 0; i < m; i++ {
			// Extend every prefix over inputs < i by input i's code,
			// which sits at bits 2i: entry e + b·size is entry e times
			// factor b. Entry e itself is overwritten last.
			f := js[4*i : 4*i+4]
			for e := 0; e < size; e++ {
				v := pre[e]
				pre[e+size] = v * f[1]
				pre[e+2*size] = v * f[2]
				pre[e+3*size] = v * f[3]
				pre[e] = v * f[0]
			}
			size *= 4
		}
		mask := uint32(size - 1)
		total := 0.0
		for _, code := range codes {
			prod := pre[code&mask]
			for i := m; i < c.n; i++ {
				prod *= js[4*i+int(code>>uint(2*i))&3]
			}
			total += prod
		}
		return total
	}
	total := 0.0
	for _, u := range c.onset {
		for _, v := range c.onset {
			prod := 1.0
			for i := 0; i < c.n; i++ {
				a := int(u>>uint(i)) & 1
				b := int(v>>uint(i)) & 1
				prod *= js[4*i+(a<<1|b)]
				if prod == 0 {
					break
				}
			}
			total += prod
		}
	}
	return total
}

// hasNaN reports whether any entry of x is NaN.
func hasNaN(x []float64) bool {
	for _, v := range x {
		if v != v {
			return true
		}
	}
	return false
}

// ChouRoyActivity returns the normalized Chou–Roy switching activity
// (Eq. 2) of the characterized function.
func (c *Char) ChouRoyActivity(p, s []float64, sc *Scratch) float64 {
	return c.ChouRoyFromProb(c.SignalProb(p, sc), p, s, sc)
}

// ChouRoyFromProb is ChouRoyActivity with the signal probability
// already in hand — the glitch propagator's per-time-step entry point:
// P(y) depends only on the settled input probabilities, so one
// evaluation serves every time step of a waveform.
func (c *Char) ChouRoyFromProb(py float64, p, s []float64, sc *Scratch) float64 {
	pp := c.PairProb(p, s, sc)
	a := 2 * (py - pp)
	if a < 0 {
		return 0
	}
	if a > 1 {
		return 1
	}
	return a
}
