package mapper

import (
	"math/rand"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/logic"
	"repro/internal/verify"
)

// TestMapRandomNetworksFormallyEquivalent fuzzes the mapper (all three
// modes) over random combinational networks and proves equivalence of
// every cover with a BDD miter — stronger than the simulation-based
// checks elsewhere.
func TestMapRandomNetworksFormallyEquivalent(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		net := logic.NewNetwork("fz")
		var pool []int
		for i := 0; i < 3+rng.Intn(4); i++ {
			pool = append(pool, net.AddInput("i"+string(rune('0'+i))))
		}
		if rng.Intn(2) == 0 {
			pool = append(pool, net.AddConst("c", rng.Intn(2) == 0))
		}
		fns := []*bitvec.TruthTable{
			logic.TTAnd2(), logic.TTOr2(), logic.TTXor2(), logic.TTNand2(),
			logic.TTNot(), logic.TTMaj3(), logic.TTXor3(), logic.TTMux2(),
		}
		for g := 0; g < 8+rng.Intn(25); g++ {
			fn := fns[rng.Intn(len(fns))]
			fanins := make([]int, fn.NumVars())
			for j := range fanins {
				fanins[j] = pool[rng.Intn(len(pool))]
			}
			pool = append(pool, net.AddGate("", fn, fanins...))
		}
		for o := 0; o < 1+rng.Intn(3); o++ {
			net.MarkOutput("o"+string(rune('0'+o)), pool[len(pool)-1-rng.Intn(4)])
		}

		for _, k := range []int{4, 6} {
			for _, mode := range []Mode{ModePower, ModeDepth, ModeArea} {
				opt := DefaultOptions()
				opt.K = k
				opt.Mode = mode
				res, err := Map(net, opt)
				if err != nil {
					t.Fatalf("seed %d K=%d mode %v: %v", seed, k, mode, err)
				}
				if s := res.Mapped.Stats(); s.MaxFanin > k {
					t.Fatalf("seed %d K=%d mode %v: max fanin %d", seed, k, mode, s.MaxFanin)
				}
				eq, err := verify.Equivalent(net, res.Mapped, verify.Options{})
				if err != nil {
					t.Fatalf("seed %d K=%d mode %v: %v", seed, k, mode, err)
				}
				if !eq.Equivalent {
					t.Fatalf("seed %d K=%d mode %v: cover differs at %s (counterexample %v)",
						seed, k, mode, eq.FailedOutput, eq.Counterexample)
				}
			}
		}
	}
}
