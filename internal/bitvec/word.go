package bitvec

// WordVars is the most variables a truth table held in one uint64 can
// have. Mapped LUTs and K-feasible cuts have at most 6 inputs, so their
// tables fit one word, and the word kernels below evaluate them 64
// assignments at a time.
const WordVars = 6

// VarWord returns the projection x_i of WordVars variables as one word:
// bit m is bit i of m. Evaluating a one-word table by Shannon over such
// words re-indexes its variables (see Shannon).
func VarWord(i int) uint64 { return varMask[i] }

// WordMask returns the bits of the 2^n minterms of an n-variable table,
// n <= WordVars, within its one word. A table is canonical when no bit
// outside the mask is set.
func WordMask(n int) uint64 { return tailMask(n) }

// Mux returns a where s is 0 and b where s is 1, bit by bit.
func Mux(a, b, s uint64) uint64 { return a ^ ((a ^ b) & s) }

// Shannon evaluates a table of k <= WordVars variables, held in the
// word tt, over the input words x[:k] by Shannon expansion, without
// data-dependent branches: bit L of the result is the table's value at
// the minterm whose bit i is bit L of x[i]. Minterms 2m and 2m+1 differ
// only in x0, so their two table bits pick leaf m from {0, ¬x0, x0, 1};
// the 2^(k-1) leaves then merge through x1..x(k-1): t_i is the tree of
// the low 2^i bits of its table over x0..x(i-1).
//
// The word simulator passes one signal word per fanin, 64 clock cycles
// in the bit lanes. The cut enumerator composes functions with it:
// evaluated at VarWord projections, a table is re-indexed onto the
// projected variables, and a gate's table evaluated at such re-indexed
// tables is their composition.
func Shannon(tt uint64, x *[WordVars]uint64, k int) uint64 {
	x0 := x[0]
	pick := [4]uint64{0, ^x0, x0, ^uint64(0)}
	t2 := func(t uint64) uint64 { return Mux(pick[t&3], pick[t>>2&3], x[1]) }
	t3 := func(t uint64) uint64 { return Mux(t2(t), t2(t>>4), x[2]) }
	t4 := func(t uint64) uint64 { return Mux(t3(t), t3(t>>8), x[3]) }
	t5 := func(t uint64) uint64 { return Mux(t4(t), t4(t>>16), x[4]) }
	switch k {
	case 0:
		return -(tt & 1)
	case 1:
		return pick[tt&3]
	case 2:
		return t2(tt)
	case 3:
		return t3(tt)
	case 4:
		return t4(tt)
	case 5:
		return t5(tt)
	}
	return Mux(t5(tt), t5(tt>>32), x[5])
}
