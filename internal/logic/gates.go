package logic

import "repro/internal/bitvec"

// Canonical small-gate truth tables shared by the library generators and
// the BLIF front end. Variable 0 is the first fanin.
//
// Each function returns one immutable instance, built once: every gate
// of that type in every network points at the same table. Callers must
// not modify a returned table (or a Node.Func, which may be one of
// them); build a fresh table instead.

var (
	ttBuf   = bitvec.Var(1, 0)
	ttNot   = bitvec.New(1).Not(bitvec.Var(1, 0))
	ttAnd2  = bitvec.FromFunc(2, func(a uint) bool { return a == 3 })
	ttOr2   = bitvec.FromFunc(2, func(a uint) bool { return a != 0 })
	ttXor2  = bitvec.FromFunc(2, func(a uint) bool { return a == 1 || a == 2 })
	ttNand2 = bitvec.FromFunc(2, func(a uint) bool { return a != 3 })
	ttNor2  = bitvec.FromFunc(2, func(a uint) bool { return a == 0 })
	ttXor3  = bitvec.FromFunc(3, func(a uint) bool {
		return ((a>>0)&1 ^ (a>>1)&1 ^ (a>>2)&1) == 1
	})
	ttMaj3 = bitvec.FromFunc(3, func(a uint) bool {
		ones := (a & 1) + ((a >> 1) & 1) + ((a >> 2) & 1)
		return ones >= 2
	})
	// ttMux2 has fanins (sel, d0, d1): out = d1 if sel else d0.
	ttMux2 = bitvec.FromFunc(3, func(a uint) bool {
		sel := a&1 != 0
		d0 := a&2 != 0
		d1 := a&4 != 0
		if sel {
			return d1
		}
		return d0
	})
)

// TTBuf returns the 1-input identity function.
func TTBuf() *bitvec.TruthTable { return ttBuf }

// TTNot returns the 1-input inverter.
func TTNot() *bitvec.TruthTable { return ttNot }

// TTAnd2 returns the 2-input AND.
func TTAnd2() *bitvec.TruthTable { return ttAnd2 }

// TTOr2 returns the 2-input OR.
func TTOr2() *bitvec.TruthTable { return ttOr2 }

// TTXor2 returns the 2-input XOR.
func TTXor2() *bitvec.TruthTable { return ttXor2 }

// TTNand2 returns the 2-input NAND.
func TTNand2() *bitvec.TruthTable { return ttNand2 }

// TTNor2 returns the 2-input NOR.
func TTNor2() *bitvec.TruthTable { return ttNor2 }

// TTXor3 returns the 3-input XOR (full-adder sum).
func TTXor3() *bitvec.TruthTable { return ttXor3 }

// TTMaj3 returns the 3-input majority (full-adder carry).
func TTMaj3() *bitvec.TruthTable { return ttMaj3 }

// TTMux2 returns the 2:1 multiplexer with fanins (sel, d0, d1):
// out = d1 if sel else d0.
func TTMux2() *bitvec.TruthTable { return ttMux2 }
