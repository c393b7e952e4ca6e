package mapper

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/logic"
	"repro/internal/netgen"
	"repro/internal/pipeline"
)

// resultFingerprint hashes every observable field of a mapping result:
// the full mapped netlist (IDs, names, truth tables, fanins, latch
// wiring), the node map, and all metrics down to the float bits. Equal
// fingerprints mean bit-identical results.
func resultFingerprint(res *Result) string {
	h := pipeline.NewHasher()
	net := res.Mapped
	h.Str(net.Name).Int(len(net.Nodes))
	for _, nd := range net.Nodes {
		h.Int(nd.ID).Int(int(nd.Kind)).Str(nd.Name).Ints(nd.Fanins)
		h.Bool(nd.ConstVal).Int(nd.LatchInput).Bool(nd.LatchInit)
		if nd.Func != nil {
			h.Int(nd.Func.NumVars())
			for _, w := range nd.Func.Words() {
				h.U64(w)
			}
		}
	}
	h.Ints(net.Inputs).Ints(net.Latches)
	for _, o := range net.Outputs {
		h.Str(o.Name).Int(o.Node)
	}
	h.Ints(res.NodeMap).Int(res.LUTs).Int(res.Depth)
	h.U64(math.Float64bits(res.EstSA)).U64(math.Float64bits(res.EstGlitch))
	h.Int(res.MacroInstances).Int(res.MacroDistinct).Int(res.MacroGates)
	return h.Sum()
}

// randomNet builds a seeded random combinational network (the
// formal_test generator shape).
func randomNet(seed int64) *logic.Network {
	rng := rand.New(rand.NewSource(seed))
	net := logic.NewNetwork("rnd")
	var pool []int
	for i := 0; i < 4+rng.Intn(4); i++ {
		pool = append(pool, net.AddInput("i"+string(rune('0'+i))))
	}
	fns := []*bitvec.TruthTable{
		logic.TTAnd2(), logic.TTOr2(), logic.TTXor2(), logic.TTNand2(),
		logic.TTNot(), logic.TTMaj3(), logic.TTXor3(), logic.TTMux2(),
	}
	for g := 0; g < 30+rng.Intn(40); g++ {
		fn := fns[rng.Intn(len(fns))]
		fanins := make([]int, fn.NumVars())
		for j := range fanins {
			fanins[j] = pool[rng.Intn(len(pool))]
		}
		pool = append(pool, net.AddGate("", fn, fanins...))
	}
	for o := 0; o < 2+rng.Intn(3); o++ {
		net.MarkOutput("o"+string(rune('0'+o)), pool[len(pool)-1-rng.Intn(6)])
	}
	return net
}

// TestMapWorkerInvariance is the determinism property test for the
// level-parallel mapper: at worker counts 1 through 8 the full Result —
// mapped netlist, node map, LUT/depth counts, and the float SA
// estimates to the bit — is identical, on random nets, on macro-tagged
// generator nets with macro reuse forced on, and in every mapping mode.
func TestMapWorkerInvariance(t *testing.T) {
	nets := []*logic.Network{
		netgen.MuxNetwork(6, 8),
		netgen.AdderNetwork(8),
		netgen.MultiplierNetwork(5),
	}
	for seed := int64(0); seed < 6; seed++ {
		nets = append(nets, randomNet(seed))
	}
	for _, mode := range []Mode{ModePower, ModeDepth, ModeArea} {
		for _, macro := range []MacroPolicy{MacroOff, MacroOn} {
			for ni, net := range nets {
				opt := DefaultOptions()
				opt.Mode = mode
				opt.MacroReuse = macro
				opt.MacroMinGates = 1
				ref, err := Map(net, opt)
				if err != nil {
					t.Fatalf("net %d mode %v macro %v: %v", ni, mode, macro, err)
				}
				refFP := resultFingerprint(ref)
				for jobs := 2; jobs <= 8; jobs++ {
					o := opt
					o.Jobs = jobs
					got, err := Map(net, o)
					if err != nil {
						t.Fatalf("net %d mode %v macro %v jobs %d: %v", ni, mode, macro, jobs, err)
					}
					if fp := resultFingerprint(got); fp != refFP {
						t.Fatalf("net %d mode %v macro %v: jobs=%d result differs from serial", ni, mode, macro, jobs)
					}
				}
			}
		}
	}
}

// TestMacroReuseSharesCovers maps the same macro-tagged network twice
// through one MacroCache — over a shared pipeline.Cache and over the
// private one NewMacroCache(nil, ...) builds: the second run must hit
// the memo for every distinct macro, and both results must be
// bit-identical.
func TestMacroReuseSharesCovers(t *testing.T) {
	net := netgen.MuxNetwork(8, 8)
	for _, tc := range []struct {
		name   string
		stages *pipeline.Cache
	}{
		{"shared", pipeline.NewCache()},
		{"private", nil},
	} {
		opt := DefaultOptions()
		opt.MacroReuse = MacroOn
		opt.MacroMinGates = 1
		opt.Macros = NewMacroCache(tc.stages, "macro-test")

		first, err := Map(net, opt)
		if err != nil {
			t.Fatal(err)
		}
		if first.MacroInstances == 0 {
			t.Fatalf("%s: macro reuse did not engage on a tagged mux network", tc.name)
		}
		h0, m0 := opt.Macros.Stats()
		if m0 != int64(first.MacroDistinct) {
			t.Fatalf("%s: first run misses = %d, want %d (one per distinct macro)", tc.name, m0, first.MacroDistinct)
		}
		second, err := Map(net, opt)
		if err != nil {
			t.Fatal(err)
		}
		h1, m1 := opt.Macros.Stats()
		if m1 != m0 {
			t.Fatalf("%s: second run recomputed covers: misses %d -> %d", tc.name, m0, m1)
		}
		if h1-h0 != int64(second.MacroInstances) {
			t.Fatalf("%s: second run hits = %d, want %d (every instance served from memo)", tc.name, h1-h0, second.MacroInstances)
		}
		if resultFingerprint(first) != resultFingerprint(second) {
			t.Fatalf("%s: memo-served mapping differs from fresh mapping", tc.name)
		}
	}
}

// TestMacroModeQualityAndCorrectness forces macro covering on and
// checks the covered result is functionally equivalent to the input and
// within a bounded LUT-count distance of the flat cover (the macro cut
// barrier may cost a little area; it must not cost much).
func TestMacroModeQualityAndCorrectness(t *testing.T) {
	for _, net := range []*logic.Network{
		netgen.MuxNetwork(6, 8),
		netgen.AdderNetwork(8),
	} {
		flatOpt := DefaultOptions()
		flatOpt.MacroReuse = MacroOff
		flat, err := Map(net, flatOpt)
		if err != nil {
			t.Fatal(err)
		}
		macroOpt := DefaultOptions()
		macroOpt.MacroReuse = MacroOn
		macroOpt.MacroMinGates = 1
		covered, err := Map(net, macroOpt)
		if err != nil {
			t.Fatal(err)
		}
		assertEquivalent(t, net, covered.Mapped, 64, 77)
		if covered.LUTs > flat.LUTs*13/10 {
			t.Fatalf("%s: macro cover %d LUTs vs flat %d (> +30%%)", net.Name, covered.LUTs, flat.LUTs)
		}
	}
}
