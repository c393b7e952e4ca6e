package glitch

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/logic"
	"repro/internal/netgen"
	"repro/internal/prob"
)

// refPropagate is the pre-rewrite propagation verbatim: collect distinct
// times into a map, sort them, rescan every fanin component list per
// time step. It is the bit-identity oracle for the k-way merge (the
// prob estimators it calls are themselves oracle-checked in that
// package's TestCharMatchesScalarReference).
func refPropagate(f *bitvec.TruthTable, ins []Waveform) Waveform {
	n := f.NumVars()
	if len(ins) != n {
		panic("glitch: fanin waveform count mismatch")
	}
	p := make([]float64, n)
	for i, w := range ins {
		p[i] = w.P
	}
	out := Waveform{P: prob.Characterize(f).SignalProb(p, prob.NewScratch())}

	var times []int
	seen := make(map[int]bool)
	for _, w := range ins {
		for _, c := range w.Comps {
			if !seen[c.Time] {
				seen[c.Time] = true
				times = append(times, c.Time)
			}
		}
	}
	if len(times) == 0 {
		return out
	}
	sort.Ints(times)

	s := make([]float64, n)
	for _, t := range times {
		for i, w := range ins {
			s[i] = 0
			for _, c := range w.Comps {
				if c.Time == t {
					s[i] = c.S
					break
				}
			}
		}
		a := prob.Characterize(f).ChouRoyActivity(p, s, prob.NewScratch())
		if a > 0 {
			out.Comps = append(out.Comps, Component{Time: t + 1, S: a})
		}
	}
	return out
}

func randomTable(rng *rand.Rand, n int) *bitvec.TruthTable {
	tt := bitvec.New(n)
	for m := 0; m < 1<<n; m++ {
		if rng.Intn(2) == 0 {
			tt.Set(uint(m), true)
		}
	}
	return tt
}

// randomWaveform draws a waveform with up to four components at
// non-decreasing times — repeats included, so the first-component-wins
// duplicate handling is exercised — plus occasional degenerate P.
func randomWaveform(rng *rand.Rand) Waveform {
	w := Waveform{P: rng.Float64()}
	if rng.Intn(6) == 0 {
		w.P = float64(rng.Intn(2))
	}
	t := 0
	for j := rng.Intn(5); j > 0; j-- {
		t += rng.Intn(3) // step 0 duplicates the previous time
		w.Comps = append(w.Comps, Component{Time: t, S: rng.Float64()})
	}
	return w
}

// TestPropagateMatchesScalarReference: for random functions and random
// fanin waveforms, the merged propagation must emit exactly the scalar
// rescan's components — same times, bit-identical activities — through
// a reused Estimator, cold and from the memo.
func TestPropagateMatchesScalarReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20260807))
	est := NewEstimator()
	check := func(trial int, label string, got, want Waveform) {
		t.Helper()
		if got.P != want.P {
			t.Fatalf("trial %d %s: P %v != scalar %v", trial, label, got.P, want.P)
		}
		if len(got.Comps) != len(want.Comps) {
			t.Fatalf("trial %d %s: %d components, scalar has %d", trial, label, len(got.Comps), len(want.Comps))
		}
		for k := range want.Comps {
			if got.Comps[k] != want.Comps[k] {
				t.Fatalf("trial %d %s: comp %d = %+v, scalar %+v", trial, label, k, got.Comps[k], want.Comps[k])
			}
		}
	}
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(4)
		tt := randomTable(rng, n)
		ins := make([]Waveform, n)
		for i := range ins {
			ins[i] = randomWaveform(rng)
		}
		want := refPropagate(tt, ins)
		check(trial, "cold", est.Propagate(tt, ins), want)
		check(trial, "memo", est.Propagate(tt, ins), want)
	}
}

// TestEstimatorReuseAcrossNetworks checks that the pooled estimator
// behind EstimateNetwork, its memo warm from other networks, gives the
// same waveforms as a fresh estimator propagating each gate from its
// fanins' waveforms.
func TestEstimatorReuseAcrossNetworks(t *testing.T) {
	src := prob.DefaultSources()
	fresh := func(net *logic.Network) []Waveform {
		e := NewEstimator()
		waves := make([]Waveform, net.NumNodes())
		for id := range waves {
			switch nd := net.Node(id); nd.Kind {
			case logic.KindInput:
				waves[id] = SourceWaveform(src.InputP, src.InputS)
			case logic.KindLatchOut:
				waves[id] = SourceWaveform(src.LatchP, src.LatchS)
			case logic.KindConst:
				waves[id] = ConstWaveform(nd.ConstVal)
			case logic.KindGate:
				ins := make([]Waveform, len(nd.Fanins))
				for i, f := range nd.Fanins {
					ins[i] = waves[f]
				}
				waves[id] = e.Propagate(nd.Func, ins)
			}
		}
		return waves
	}
	nets := []*logic.Network{netgen.AdderNetwork(6), netgen.MultiplierNetwork(4)}
	wants := make([][]Waveform, len(nets))
	for i, net := range nets {
		wants[i] = fresh(net)
	}
	for round := 0; round < 3; round++ {
		for i, net := range nets {
			got := EstimateNetwork(net, src).Waves
			for id, want := range wants[i] {
				if !reflect.DeepEqual(got[id], want) {
					t.Fatalf("round %d net %s node %d: %+v, fresh estimator %+v",
						round, net.Name, id, got[id], want)
				}
			}
		}
	}
}
