package sim

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/arch"
	"repro/internal/bitvec"
	"repro/internal/logic"
	"repro/internal/mapper"
	"repro/internal/netgen"
)

// randomNetwork builds a random DAG of 1..8-input gates with random
// truth tables, optionally latched (latch D inputs wired to arbitrary
// nodes, including forward references), for scalar-vs-word property
// testing. Gates of 5 and 6 inputs fill a whole table word, and gates
// of 7 and 8 inputs take the evaluators' multi-word paths.
func randomNetwork(rng *rand.Rand, inputs, latches, gates int) *logic.Network {
	net := logic.NewNetwork("rand")
	for i := 0; i < inputs; i++ {
		net.AddInput(fmt.Sprintf("i%d", i))
	}
	var qs []int
	for i := 0; i < latches; i++ {
		qs = append(qs, net.AddLatch(fmt.Sprintf("q%d", i), rng.Intn(2) == 0))
	}
	net.AddConst("c0", rng.Intn(2) == 0)
	for i := 0; i < gates; i++ {
		k := 1 + rng.Intn(8)
		fanins := make([]int, k)
		for j := range fanins {
			fanins[j] = rng.Intn(net.NumNodes())
		}
		tt := bitvec.FromFunc(k, func(uint) bool { return rng.Intn(2) == 0 })
		net.AddGate(fmt.Sprintf("g%d", i), tt, fanins...)
	}
	for _, q := range qs {
		net.ConnectLatch(q, rng.Intn(net.NumNodes()))
	}
	net.MarkOutput("out", net.NumNodes()-1)
	return net
}

// everyWorkerCount is the worker sweep of the equivalence tests.
var everyWorkerCount = []int{1, 2, 3, 4, 5, 6, 7, 8}

// requireSameRun asserts the word engine reproduces the scalar engine's
// Counts and NodeTransitions exactly on the given stimulus, at every
// listed worker count and lane-group width.
func requireSameRun(t *testing.T, net *logic.Network, model DelayModel, delaySeed int64, vectors [][]bool, label string, workerCounts, widths []int) {
	t.Helper()
	sc, err := NewWithDelays(net, model, delaySeed)
	if err != nil {
		t.Fatal(err)
	}
	want := sc.RunVectors(vectors)
	for _, workers := range workerCounts {
		for _, wide := range widths {
			w, err := NewWordWithDelays(net, model, delaySeed)
			if err != nil {
				t.Fatal(err)
			}
			w.SetWide(wide)
			got := w.RunVectors(vectors, workers)
			if got != want {
				t.Fatalf("%s workers=%d wide=%d: word counts %+v, scalar %+v", label, workers, wide, got, want)
			}
			for id := range sc.NodeTransitions {
				if w.NodeTransitions[id] != sc.NodeTransitions[id] {
					t.Fatalf("%s workers=%d wide=%d: node %d transitions %d, scalar %d",
						label, workers, wide, id, w.NodeTransitions[id], sc.NodeTransitions[id])
				}
			}
		}
	}
}

// TestWordMatchesScalarRandomNetworks is the core equivalence property:
// random combinational and latched networks, both delay models, Counts
// and NodeTransitions identical to the scalar engine at workers 1..8.
func TestWordMatchesScalarRandomNetworks(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	trials := 12
	if testing.Short() {
		trials = 4
	}
	for trial := 0; trial < trials; trial++ {
		latches := 0
		if trial%2 == 1 {
			latches = 2 + rng.Intn(5)
		}
		net := randomNetwork(rng, 3+rng.Intn(6), latches, 20+rng.Intn(60))
		vectors := RandomVectors(len(net.Inputs), 100, int64(trial))
		for _, model := range []DelayModel{DelayUnit, DelayHeterogeneous} {
			requireSameRun(t, net, model, 5, vectors,
				fmt.Sprintf("trial=%d latches=%d model=%d", trial, latches, model),
				everyWorkerCount, []int{DefaultWide})
		}
	}
}

// counterDatapathNetwork builds the latch structure every elaborated
// flow datapath has: a step counter wrapping over 0..steps-1 whose
// latches read their own Q, steering a w-bit register that reads its
// own Q too (it loads a*b at step 0 and accumulates a otherwise).
func counterDatapathNetwork(w, steps int) *logic.Network {
	net := logic.NewNetwork("ctrdp")
	a := make([]int, w)
	b := make([]int, w)
	for i := range a {
		a[i] = net.AddInput(fmt.Sprintf("a%d", i))
		b[i] = net.AddInput(fmt.Sprintf("b%d", i))
	}
	var ctr []int
	for 1<<len(ctr) < steps {
		ctr = append(ctr, net.AddLatch(fmt.Sprintf("ctr%d", len(ctr)), false))
	}
	// match is the AND of the counter literals of value v.
	match := func(prefix string, v int) int {
		m := -1
		for j, q := range ctr {
			lit := q
			if v>>uint(j)&1 == 0 {
				lit = net.AddGate(fmt.Sprintf("%s_n%d", prefix, j), logic.TTNot(), q)
			}
			if m < 0 {
				m = lit
			} else {
				m = net.AddGate(fmt.Sprintf("%s_a%d", prefix, j), logic.TTAnd2(), m, lit)
			}
		}
		return m
	}
	notLast := net.AddGate("notlast", logic.TTNot(), match("last", steps-1))
	carry := net.AddConst("one", true)
	for j, q := range ctr {
		inc := net.AddGate(fmt.Sprintf("inc%d", j), logic.TTXor2(), q, carry)
		carry = net.AddGate(fmt.Sprintf("carry%d", j), logic.TTAnd2(), q, carry)
		net.ConnectLatch(q, net.AddGate(fmt.Sprintf("next%d", j), logic.TTAnd2(), inc, notLast))
	}
	acc := make([]int, w)
	for i := range acc {
		acc[i] = net.AddLatch(fmt.Sprintf("acc%d", i), false)
	}
	prod := netgen.BuildMultiplier(net, "mul", a, b)
	sum, _ := netgen.BuildAdder(net, "add", acc, a, -1)
	next := netgen.BuildMux(net, "sel", []int{match("first", 0)}, [][]int{sum, prod})
	for i, q := range acc {
		net.ConnectLatch(q, next[i])
		net.MarkOutput(fmt.Sprintf("y%d", i), q)
	}
	return net
}

// TestWordMatchesScalarMapped covers 4-LUT technology-mapped netlists
// under both delay models: combinational (array multiplier), an acyclic
// latch graph (pipelined multiplier), and the flow's actual workload
// shape — latch feedback through a wrapping step counter, as in every
// elaborated datapath — mapped to 6-LUTs as well, whose tables fill a
// whole word.
func TestWordMatchesScalarMapped(t *testing.T) {
	k4 := mapper.DefaultOptions()
	k6 := mapper.OptionsForArch(arch.StratixLike6LUT())
	for _, tc := range []struct {
		name string
		net  *logic.Network
		opt  mapper.Options
	}{
		{"mult6", netgen.MultiplierNetwork(6), k4},
		{"pipemult6", netgen.PipelinedMultiplierNetwork(6, 2), k4},
		{"counterdp6", counterDatapathNetwork(6, 5), k4},
		{"counterdp6/k6", counterDatapathNetwork(6, 5), k6},
	} {
		res, err := mapper.Map(tc.net, tc.opt)
		if err != nil {
			t.Fatal(err)
		}
		vectors := RandomVectors(len(res.Mapped.Inputs), 200, 17)
		for _, model := range []DelayModel{DelayUnit, DelayHeterogeneous} {
			requireSameRun(t, res.Mapped, model, 7, vectors,
				fmt.Sprintf("%s model=%d", tc.name, model), everyWorkerCount, []int{DefaultWide})
		}
	}
}

// TestWordTailGroups exercises partial lane groups: vector counts
// around the 64-lane boundary must mask inactive tail lanes out of
// every count.
func TestWordTailGroups(t *testing.T) {
	net := netgen.PipelinedMultiplierNetwork(4, 2)
	for _, n := range []int{1, 63, 64, 65, 128, 130} {
		vectors := RandomVectors(len(net.Inputs), n, 3)
		requireSameRun(t, net, DelayHeterogeneous, 11, vectors, fmt.Sprintf("n=%d", n),
			everyWorkerCount, []int{DefaultWide})
	}
}

// TestWordWideMatchesScalar sweeps the lane-group width: every setting
// must reproduce the scalar engine's Counts and NodeTransitions exactly,
// including blocks with partial and missing tail groups (vector counts
// straddling the width×64 boundary).
func TestWordWideMatchesScalar(t *testing.T) {
	nets := []struct {
		name string
		net  *logic.Network
	}{
		{"pipemult4", netgen.PipelinedMultiplierNetwork(4, 2)},
		{"mult5", netgen.MultiplierNetwork(5)},
	}
	for _, tc := range nets {
		for _, n := range []int{1, 64, 100, 257, 520} {
			vectors := RandomVectors(len(tc.net.Inputs), n, 3)
			requireSameRun(t, tc.net, DelayHeterogeneous, 11, vectors, fmt.Sprintf("%s n=%d", tc.name, n),
				[]int{2}, []int{1, 2, 3, 4, 8})
		}
	}
}

// TestWordRunRandomSharesStimulus asserts the scalar and word engines
// draw the identical random vector sequence for a seed (the shared
// generator contract).
func TestWordRunRandomSharesStimulus(t *testing.T) {
	net := netgen.MultiplierNetwork(5)
	sc, err := New(net)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWordWithDelays(net, DelayUnit, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := sc.RunRandom(150, 23)
	got := w.RunRandom(150, 23, 4)
	if got != want {
		t.Fatalf("RunRandom diverged: word %+v, scalar %+v", got, want)
	}
}

// TestWordRerunResets asserts back-to-back runs on one WordSimulator
// start from clean counters and the power-on state.
func TestWordRerunResets(t *testing.T) {
	net := netgen.PipelinedMultiplierNetwork(4, 2)
	w, err := NewWordWithDelays(net, DelayHeterogeneous, 7)
	if err != nil {
		t.Fatal(err)
	}
	a := w.RunRandom(100, 9, 2)
	b := w.RunRandom(100, 9, 2)
	if a != b {
		t.Fatalf("rerun diverged: %+v vs %+v", a, b)
	}
}

// TestWordCancellation asserts a cancelled context stops the run and
// surfaces the context error.
func TestWordCancellation(t *testing.T) {
	net := netgen.MultiplierNetwork(6)
	w, err := NewWordWithDelays(net, DelayUnit, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := w.RunRandomCtx(ctx, 500, 1, 4); err == nil {
		t.Fatal("cancelled run returned no error")
	}
}

// TestVectorSourceMatchesIntn pins the stimulus draw to rng.Intn(2) == 0,
// the sequence every engine has always applied for a seed.
func TestVectorSourceMatchesIntn(t *testing.T) {
	for _, seed := range []int64{0, 1, 2009, 2010, -7} {
		rng := rand.New(rand.NewSource(seed))
		vs := newVectorSource(37, seed)
		for c := 0; c < 200; c++ {
			for i, got := range vs.next() {
				if want := rng.Intn(2) == 0; got != want {
					t.Fatalf("seed %d cycle %d input %d: drew %v, Intn drew %v", seed, c, i, got, want)
				}
			}
		}
	}
}
