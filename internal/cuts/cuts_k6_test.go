package cuts_test

// K=6 property tests for the cut enumerator and the mapper built on it,
// in an external test package so the netgen/mapper imports cannot cycle.
// They back the 6-LUT target (arch.StratixLike6LUT): every enumerated
// cut respects the K bound, and a depth-oriented K=6 cover is never
// deeper than the K=4 cover of the same network — wider LUTs can only
// absorb more logic per level.

import (
	"math/rand"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/cuts"
	"repro/internal/logic"
	"repro/internal/mapper"
	"repro/internal/netgen"
)

// randomNet builds a seeded random combinational network with gate
// fanins up to 3, the same shape the mapper's formal fuzz uses.
func randomNet(seed int64) *logic.Network {
	rng := rand.New(rand.NewSource(seed))
	net := logic.NewNetwork("k6fz")
	var pool []int
	for i := 0; i < 3+rng.Intn(5); i++ {
		pool = append(pool, net.AddInput("i"+string(rune('0'+i))))
	}
	fns := []*bitvec.TruthTable{
		logic.TTAnd2(), logic.TTOr2(), logic.TTXor2(), logic.TTNand2(),
		logic.TTNot(), logic.TTMaj3(), logic.TTXor3(), logic.TTMux2(),
	}
	for g := 0; g < 10+rng.Intn(30); g++ {
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
	return net
}

// TestEnumerateRespectsK checks no enumerated cut ever exceeds the K
// bound, at every supported K, on random and library networks.
func TestEnumerateRespectsK(t *testing.T) {
	nets := []*logic.Network{
		netgen.AdderNetwork(8),
		netgen.MultiplierNetwork(6),
	}
	for seed := int64(0); seed < 10; seed++ {
		nets = append(nets, randomNet(seed))
	}
	for ni, net := range nets {
		for k := 2; k <= 6; k++ {
			if k < net.Stats().MaxFanin {
				continue // not coverable at this K
			}
			sets := cuts.EnumerateNet(net, k, 8)
			for node, set := range sets {
				for _, c := range set {
					if len(c.Leaves) > k {
						t.Fatalf("net %d K=%d: node %d has a %d-leaf cut %v",
							ni, k, node, len(c.Leaves), c.Leaves)
					}
				}
			}
		}
	}
}

// TestDepthMonotoneK4ToK6 maps the same networks depth-oriented at K=4
// and K=6 and requires the 6-LUT cover never be deeper (and never use
// more LUTs): each 6-cut set is a superset of the 4-cut set, so the
// optimal depth cannot increase.
func TestDepthMonotoneK4ToK6(t *testing.T) {
	nets := []*logic.Network{
		netgen.AdderNetwork(8),
		netgen.SubtractorNetwork(8),
		netgen.MultiplierNetwork(6),
		netgen.MuxNetwork(4, 8),
	}
	for seed := int64(0); seed < 15; seed++ {
		nets = append(nets, randomNet(seed))
	}
	for ni, net := range nets {
		opt4 := mapper.DefaultOptions()
		opt4.Mode = mapper.ModeDepth
		opt6 := opt4
		opt6.K = 6
		r4, err := mapper.Map(net, opt4)
		if err != nil {
			t.Fatalf("net %d K=4: %v", ni, err)
		}
		r6, err := mapper.Map(net, opt6)
		if err != nil {
			t.Fatalf("net %d K=6: %v", ni, err)
		}
		if r6.Depth > r4.Depth {
			t.Errorf("net %d: K=6 depth %d exceeds K=4 depth %d", ni, r6.Depth, r4.Depth)
		}
		if r6.LUTs > r4.LUTs {
			t.Errorf("net %d: K=6 area %d exceeds K=4 area %d under depth mapping", ni, r6.LUTs, r4.LUTs)
		}
	}
}
