// Package glitch implements the unit-delay, discrete-time switching
// model the paper adopts from GlitchMap [6] (§4): signal transitions
// occur only at integer time steps; a gate (or LUT) output may switch at
// time t+1 whenever any of its inputs switches at time t; the transition
// at the settling time D is the functional transition and every earlier
// one is a glitch. Per-time-step activities are computed with the
// Chou–Roy simultaneous-switching model (Eq. 2) and summed into an
// effective switching activity.
package glitch

import (
	"encoding/binary"
	"math"
	"sync"

	"repro/internal/bitvec"
	"repro/internal/logic"
	"repro/internal/prob"
)

// Component is one discrete-time activity contribution: the signal
// toggles at time Time with probability S per clock cycle.
type Component struct {
	Time int
	S    float64
}

// Waveform is the timed switching profile of one signal: its settled
// signal probability and its activity components sorted by time.
type Waveform struct {
	P     float64
	Comps []Component
}

// SourceWaveform models a combinational source (primary input or
// register output) that presents one potential transition at time 0.
func SourceWaveform(p, s float64) Waveform {
	if s == 0 {
		return Waveform{P: p}
	}
	return Waveform{P: p, Comps: []Component{{Time: 0, S: s}}}
}

// ConstWaveform models a constant driver: no transitions ever.
func ConstWaveform(v bool) Waveform {
	p := 0.0
	if v {
		p = 1.0
	}
	return Waveform{P: p}
}

// Total returns the effective switching activity: the sum over all time
// steps. With glitching this may exceed 1 transition per cycle.
func (w Waveform) Total() float64 {
	t := 0.0
	for _, c := range w.Comps {
		t += c.S
	}
	return t
}

// Settle returns the functional settling time: the last time step at
// which the signal may still switch (0 for static signals).
func (w Waveform) Settle() int {
	if len(w.Comps) == 0 {
		return 0
	}
	return w.Comps[len(w.Comps)-1].Time
}

// Functional returns the activity of the functional (final) transition.
func (w Waveform) Functional() float64 {
	if len(w.Comps) == 0 {
		return 0
	}
	return w.Comps[len(w.Comps)-1].S
}

// GlitchActivity returns the summed activity of the spurious (non-final)
// transitions.
func (w Waveform) GlitchActivity() float64 {
	return w.Total() - w.Functional()
}

// maxMemoEntries bounds an Estimator's propagation memo. The memo is a
// cross-call cache keyed by full waveform content, so a long-lived
// pooled estimator characterizing many unrelated networks could grow
// without bound; past the cap it is simply dropped and rebuilt.
const maxMemoEntries = 1 << 16

// Estimator carries the reusable scratch and memoization state for
// repeated waveform propagation. A fresh zero-cost instance comes from
// NewEstimator; one estimator is NOT safe for concurrent use
// (EstimateNetwork draws one from a pool and is).
//
// Waveforms returned by an estimator share their Comps slices with its
// internal memo — callers must treat them as read-only, which every
// consumer in this repository already does.
type Estimator struct {
	p, s []float64 // settled fanin probabilities / per-step activities
	pos  []int     // k-way merge cursor per fanin
	ins  []Waveform
	kbuf []byte
	sc   *prob.Scratch
	memo map[string]Waveform
}

// NewEstimator returns an empty estimator.
func NewEstimator() *Estimator {
	return &Estimator{sc: prob.NewScratch(), memo: make(map[string]Waveform)}
}

// estPool backs EstimateNetwork.
var estPool = sync.Pool{New: func() any { return NewEstimator() }}

// growVecs sizes the per-fanin scratch for n inputs.
func (e *Estimator) growVecs(n int) {
	if cap(e.p) < n {
		e.p = make([]float64, n)
		e.s = make([]float64, n)
		e.pos = make([]int, n)
	} else {
		e.p, e.s, e.pos = e.p[:n], e.s[:n], e.pos[:n]
	}
}

// waveKey renders (function identity, fanin waveforms) into the
// estimator's key buffer. Float bit patterns keep the key exact: a memo
// hit returns precisely what recomputation would.
func (e *Estimator) waveKey(id uint64, ins []Waveform) []byte {
	b := e.kbuf[:0]
	b = binary.LittleEndian.AppendUint64(b, id)
	for _, w := range ins {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(w.P))
		b = binary.LittleEndian.AppendUint64(b, uint64(len(w.Comps)))
		for _, c := range w.Comps {
			b = binary.LittleEndian.AppendUint64(b, uint64(c.Time))
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(c.S))
		}
	}
	e.kbuf = b
	return b
}

// Propagate computes the output waveform of a unit-delay gate or LUT
// with local function f whose fanins carry the given waveforms. For each
// time step t at which at least one input may switch, the output may
// switch at t+1 with the Chou–Roy activity computed from the inputs'
// component activities at t. The settled output probability comes from
// the settled input probabilities.
//
// The returned waveform may share storage with the estimator's memo;
// treat Comps as read-only.
func (e *Estimator) Propagate(f *bitvec.TruthTable, ins []Waveform) Waveform {
	return e.propagate(prob.Characterize(f), ins)
}

func (e *Estimator) propagate(c *prob.Char, ins []Waveform) Waveform {
	if len(ins) != c.NumVars() {
		panic("glitch: fanin waveform count mismatch")
	}
	key := e.waveKey(c.ID(), ins)
	if w, ok := e.memo[string(key)]; ok {
		return w
	}
	w := e.compute(c, ins)
	if len(e.memo) >= maxMemoEntries {
		e.memo = make(map[string]Waveform)
	}
	e.memo[string(key)] = w
	return w
}

// compute is the uncached propagation: a k-way pointer merge over the
// already-sorted fanin component lists replaces the historical
// map-collect + sort + per-time rescan. The merge visits the same
// ascending distinct times and gathers the same per-input activities
// (first component at each time wins), so the emitted components are
// bit-identical to the old code's.
func (e *Estimator) compute(c *prob.Char, ins []Waveform) Waveform {
	n := len(ins)
	e.growVecs(n)
	total := 0
	for i, w := range ins {
		e.p[i] = w.P
		e.pos[i] = 0
		total += len(w.Comps)
	}
	py := c.SignalProb(e.p, e.sc)
	out := Waveform{P: py}
	if total == 0 {
		return out
	}
	var comps []Component
	for {
		// Next distinct transition time = min over fanin cursors.
		t, any := 0, false
		for i, w := range ins {
			if e.pos[i] < len(w.Comps) {
				if ct := w.Comps[e.pos[i]].Time; !any || ct < t {
					t, any = ct, true
				}
			}
		}
		if !any {
			break
		}
		// Gather per-input activity at t: the first component at t
		// supplies S (matching the historical first-match scan), and
		// the cursor advances past any duplicates.
		for i, w := range ins {
			e.s[i] = 0
			j := e.pos[i]
			if j < len(w.Comps) && w.Comps[j].Time == t {
				e.s[i] = w.Comps[j].S
				for j < len(w.Comps) && w.Comps[j].Time == t {
					j++
				}
				e.pos[i] = j
			}
		}
		// P(y) depends only on settled probabilities — one evaluation
		// serves every time step.
		a := c.ChouRoyFromProb(py, e.p, e.s, e.sc)
		if a > 0 {
			comps = append(comps, Component{Time: t + 1, S: a})
		}
	}
	out.Comps = comps
	return out
}

// Estimate holds a waveform per network node.
type Estimate struct {
	Waves []Waveform
}

// EstimateNetwork propagates waveforms through every gate of the
// network under the unit-delay model on a pooled estimator. Sources
// follow src (paper: P = s = 0.5). Waveform Comps are read-only shared
// storage.
func EstimateNetwork(net *logic.Network, src prob.SourceValues) Estimate {
	e := estPool.Get().(*Estimator)
	defer estPool.Put(e)
	input := SourceWaveform(src.InputP, src.InputS)
	latch := SourceWaveform(src.LatchP, src.LatchS)
	waves := make([]Waveform, net.NumNodes())
	// Ascending node IDs are topological (Network.TopoOrder is the
	// identity permutation).
	for id := range waves {
		nd := net.Node(id)
		switch nd.Kind {
		case logic.KindInput:
			waves[id] = input
		case logic.KindLatchOut:
			waves[id] = latch
		case logic.KindConst:
			waves[id] = ConstWaveform(nd.ConstVal)
		case logic.KindGate:
			e.ins = e.ins[:0]
			for _, f := range nd.Fanins {
				e.ins = append(e.ins, waves[f])
			}
			waves[id] = e.propagate(prob.Characterize(nd.Func), e.ins)
		}
	}
	return Estimate{Waves: waves}
}

// TotalActivity sums effective switching activity over gate nodes
// (paper Eq. 3 at the gate level).
func (e Estimate) TotalActivity(net *logic.Network) float64 {
	t := 0.0
	for _, nd := range net.Nodes {
		if nd.Kind == logic.KindGate {
			t += e.Waves[nd.ID].Total()
		}
	}
	return t
}

// TotalGlitch sums glitch (spurious-transition) activity over gates.
func (e Estimate) TotalGlitch(net *logic.Network) float64 {
	t := 0.0
	for _, nd := range net.Nodes {
		if nd.Kind == logic.KindGate {
			t += e.Waves[nd.ID].GlitchActivity()
		}
	}
	return t
}

// TotalFunctional sums functional-transition activity over gates.
func (e Estimate) TotalFunctional(net *logic.Network) float64 {
	t := 0.0
	for _, nd := range net.Nodes {
		if nd.Kind == logic.KindGate {
			t += e.Waves[nd.ID].Functional()
		}
	}
	return t
}
