// Package bitvec implements truth tables stored as bit vectors.
//
// A TruthTable over n variables stores 2^n function values, one bit per
// input minterm. Variable 0 is the fastest-toggling input (bit 0 of the
// minterm index). Truth tables are the workhorse of the logic network,
// the BLIF SOP translator, the cut evaluator, and the probability engine,
// so the operations here are kept allocation-light.
package bitvec

import (
	"fmt"
	"math/bits"
	"strings"
)

// MaxVars bounds the supported truth-table width. 2^16 bits = 8 KiB per
// table; nothing in the mapper or the estimator needs more (cuts are
// K-feasible with K <= 6 and library gates are small).
const MaxVars = 16

// varMask holds the canonical projection pattern of variable i within a
// 64-bit word for i < 6: the bit pattern of x_i over minterms 0..63.
var varMask = [6]uint64{
	0xAAAAAAAAAAAAAAAA,
	0xCCCCCCCCCCCCCCCC,
	0xF0F0F0F0F0F0F0F0,
	0xFF00FF00FF00FF00,
	0xFFFF0000FFFF0000,
	0xFFFFFFFF00000000,
}

// TruthTable is a Boolean function of NumVars variables represented as a
// 2^NumVars-bit vector. The zero value is not usable; construct with New.
type TruthTable struct {
	n     int
	words []uint64
}

// wordCount returns the number of 64-bit words needed for n variables.
func wordCount(n int) int {
	if n <= 6 {
		return 1
	}
	return 1 << (n - 6)
}

// tailMask returns the mask of valid bits in the (single) word when n < 6.
func tailMask(n int) uint64 {
	if n >= 6 {
		return ^uint64(0)
	}
	return (uint64(1) << (1 << n)) - 1
}

// New returns the constant-false function of n variables.
func New(n int) *TruthTable {
	if n < 0 || n > MaxVars {
		panic(fmt.Sprintf("bitvec: variable count %d out of range [0,%d]", n, MaxVars))
	}
	return &TruthTable{n: n, words: make([]uint64, wordCount(n))}
}

// Const returns the constant function of n variables with the given value.
func Const(n int, v bool) *TruthTable {
	t := New(n)
	if v {
		for i := range t.words {
			t.words[i] = ^uint64(0)
		}
		t.words[len(t.words)-1] &= tailMask(n)
	}
	return t
}

// Var returns the projection function x_i of n variables.
func Var(n, i int) *TruthTable {
	if i < 0 || i >= n {
		panic(fmt.Sprintf("bitvec: variable %d out of range for %d-var table", i, n))
	}
	t := New(n)
	if i < 6 {
		m := varMask[i] & tailMask(n)
		for w := range t.words {
			t.words[w] = m
		}
		return t
	}
	stride := 1 << (i - 6) // words per half-period
	for w := range t.words {
		if (w/stride)%2 == 1 {
			t.words[w] = ^uint64(0)
		}
	}
	return t
}

// FromFunc builds a truth table by evaluating f on every minterm.
// f receives the input assignment as a bit mask (bit i = variable i).
func FromFunc(n int, f func(assign uint) bool) *TruthTable {
	t := New(n)
	size := 1 << n
	for m := 0; m < size; m++ {
		if f(uint(m)) {
			t.words[m>>6] |= 1 << (uint(m) & 63)
		}
	}
	return t
}

// FromWords reconstructs an n-variable table from backing words as
// exposed by Words(). It validates shape (word count, tail bits) so it
// is safe on untrusted input — deserialized cache artifacts use it and
// treat an error as a cache miss. The words are copied.
func FromWords(n int, words []uint64) (*TruthTable, error) {
	if n < 0 || n > MaxVars {
		return nil, fmt.Errorf("bitvec: variable count %d out of range [0,%d]", n, MaxVars)
	}
	if len(words) != wordCount(n) {
		return nil, fmt.Errorf("bitvec: %d-var table needs %d words, got %d", n, wordCount(n), len(words))
	}
	if n < 6 && words[0]&^tailMask(n) != 0 {
		return nil, fmt.Errorf("bitvec: %d-var table has bits set beyond minterm %d", n, 1<<n)
	}
	t := &TruthTable{n: n, words: make([]uint64, len(words))}
	copy(t.words, words)
	return t, nil
}

// NumVars returns the number of variables.
func (t *TruthTable) NumVars() int { return t.n }

// Size returns the number of minterms, 2^NumVars.
func (t *TruthTable) Size() int { return 1 << t.n }

// Words exposes the backing words (read-only by convention); used by
// hashing and serialization.
func (t *TruthTable) Words() []uint64 { return t.words }

// Get reports the function value on the given minterm.
func (t *TruthTable) Get(minterm uint) bool {
	return t.words[minterm>>6]&(1<<(minterm&63)) != 0
}

// Set assigns the function value on the given minterm.
func (t *TruthTable) Set(minterm uint, v bool) {
	if v {
		t.words[minterm>>6] |= 1 << (minterm & 63)
	} else {
		t.words[minterm>>6] &^= 1 << (minterm & 63)
	}
}

// AppendOnSet appends the function's on-set minterms to dst in
// ascending order and returns the extended slice. Minterms fit uint16
// because MaxVars = 16. The word-level scan (trailing-zeros over the
// backing words) visits on-set bits only, so enumerating a sparse
// on-set costs O(ones), not O(2^n) — the probability engine's
// characterization pass is built on this.
func (t *TruthTable) AppendOnSet(dst []uint16) []uint16 {
	for wi, w := range t.words {
		base := uint(wi) << 6
		for w != 0 {
			dst = append(dst, uint16(base+uint(bits.TrailingZeros64(w))))
			w &= w - 1
		}
	}
	return dst
}

// Clone returns a deep copy of t.
func (t *TruthTable) Clone() *TruthTable {
	c := &TruthTable{n: t.n, words: make([]uint64, len(t.words))}
	copy(c.words, t.words)
	return c
}

func (t *TruthTable) checkSame(o *TruthTable) {
	if t.n != o.n {
		panic(fmt.Sprintf("bitvec: mismatched variable counts %d and %d", t.n, o.n))
	}
}

// And stores a AND b into t (t may alias either operand) and returns t.
func (t *TruthTable) And(a, b *TruthTable) *TruthTable {
	a.checkSame(b)
	t.checkSame(a)
	for i := range t.words {
		t.words[i] = a.words[i] & b.words[i]
	}
	return t
}

// Or stores a OR b into t and returns t.
func (t *TruthTable) Or(a, b *TruthTable) *TruthTable {
	a.checkSame(b)
	t.checkSame(a)
	for i := range t.words {
		t.words[i] = a.words[i] | b.words[i]
	}
	return t
}

// Xor stores a XOR b into t and returns t.
func (t *TruthTable) Xor(a, b *TruthTable) *TruthTable {
	a.checkSame(b)
	t.checkSame(a)
	for i := range t.words {
		t.words[i] = a.words[i] ^ b.words[i]
	}
	return t
}

// Not stores NOT a into t and returns t.
func (t *TruthTable) Not(a *TruthTable) *TruthTable {
	t.checkSame(a)
	for i := range t.words {
		t.words[i] = ^a.words[i]
	}
	t.words[len(t.words)-1] &= tailMask(t.n)
	return t
}

// Equal reports whether t and o compute the same function.
func (t *TruthTable) Equal(o *TruthTable) bool {
	if t.n != o.n {
		return false
	}
	for i := range t.words {
		if t.words[i] != o.words[i] {
			return false
		}
	}
	return true
}

// IsConst reports whether t is constant; v is the constant value if so.
func (t *TruthTable) IsConst() (v, ok bool) {
	allZero, allOne := true, true
	last := len(t.words) - 1
	for i, w := range t.words {
		want := ^uint64(0)
		if i == last {
			want = tailMask(t.n)
		}
		if w != 0 {
			allZero = false
		}
		if w != want {
			allOne = false
		}
	}
	switch {
	case allZero:
		return false, true
	case allOne:
		return true, true
	}
	return false, false
}

// CountOnes returns the number of minterms on which t is true.
func (t *TruthTable) CountOnes() int {
	c := 0
	for _, w := range t.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Cofactor returns the cofactor of t with respect to variable i set to
// val. The result still has NumVars variables (variable i is redundant).
func (t *TruthTable) Cofactor(i int, val bool) *TruthTable {
	if i < 0 || i >= t.n {
		panic(fmt.Sprintf("bitvec: cofactor variable %d out of range", i))
	}
	r := New(t.n)
	if i < 6 {
		shift := uint(1) << i
		m := varMask[i]
		for w := range t.words {
			if val {
				hi := t.words[w] & m
				r.words[w] = hi | (hi >> shift)
			} else {
				lo := t.words[w] &^ m
				r.words[w] = lo | (lo << shift)
			}
		}
		r.words[len(r.words)-1] &= tailMask(t.n)
		return r
	}
	stride := 1 << (i - 6)
	for w := range t.words {
		src := w
		if val {
			src = w | stride
		} else {
			src = w &^ stride
		}
		r.words[w] = t.words[src]
	}
	return r
}

// BooleanDiff returns the Boolean difference df/dx_i = f|x_i=1 XOR f|x_i=0.
// The probability of the Boolean difference drives Najm's transition
// density propagation (paper Eq. 1).
func (t *TruthTable) BooleanDiff(i int) *TruthTable {
	c1 := t.Cofactor(i, true)
	c0 := t.Cofactor(i, false)
	return c1.Xor(c1, c0)
}

// DependsOn reports whether t actually depends on variable i.
func (t *TruthTable) DependsOn(i int) bool {
	d := t.BooleanDiff(i)
	v, ok := d.IsConst()
	return !ok || v
}

// SupportSize returns the number of variables t actually depends on.
func (t *TruthTable) SupportSize() int {
	c := 0
	for i := 0; i < t.n; i++ {
		if t.DependsOn(i) {
			c++
		}
	}
	return c
}

// Expand returns an m-variable table computing t applied to the inputs
// selected by mapVars: new variable mapVars[j] supplies old variable j.
// All entries of mapVars must be distinct and < m.
func (t *TruthTable) Expand(m int, mapVars []int) *TruthTable {
	if len(mapVars) != t.n {
		panic("bitvec: Expand mapping length mismatch")
	}
	return FromFunc(m, func(assign uint) bool {
		var old uint
		for j, v := range mapVars {
			if assign&(1<<uint(v)) != 0 {
				old |= 1 << uint(j)
			}
		}
		return t.Get(old)
	})
}

// Eval evaluates the function on an input assignment given as a bit mask.
func (t *TruthTable) Eval(assign uint) bool { return t.Get(assign) }

// String renders the truth table as a hex string, most significant
// minterms first, e.g. "0x8" for 2-input AND.
func (t *TruthTable) String() string {
	var sb strings.Builder
	sb.WriteString("0x")
	digits := (1 << t.n) / 4
	if digits == 0 {
		digits = 1
	}
	for i := digits - 1; i >= 0; i-- {
		nib := (t.words[i/16] >> (uint(i%16) * 4)) & 0xF
		fmt.Fprintf(&sb, "%x", nib)
	}
	return sb.String()
}

// OnesProbability returns the fraction of minterms on which t is true,
// i.e. the signal probability of the output under uniform independent
// inputs with P = 0.5.
func (t *TruthTable) OnesProbability() float64 {
	return float64(t.CountOnes()) / float64(t.Size())
}
