package mapper

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/cuts"
	"repro/internal/glitch"
	"repro/internal/logic"
	"repro/internal/netgen"
	"repro/internal/prob"
)

// refSelectFlow, refSelectDepth and refBetter are selectFlow,
// selectDepth and better as they stood before the flow-in bound,
// verbatim apart from their names and refSelectDepth's two per-call
// buffers, which lived on mapWorker: exhaustive ModePower selection,
// and ModeDepth selection that propagates every minimum-arrival
// candidate. Both keep the first-seen candidate on a full tie.

func refSelectFlow(id int, candidates []cuts.Cut, states []nodeState, fanout []int, mode Mode, w *mapWorker) (int, glitch.Waveform, int, float64) {
	bestIdx := -1
	var bestWave glitch.Waveform
	var bestArr int
	var bestFlow float64
	for i, c := range candidates {
		if len(c.Leaves) == 1 && c.Leaves[0] == id {
			continue // trivial self-cut is not implementable
		}
		arr, flowIn := candMeasure(c, states, fanout)
		wave := candWave(c, states, w)
		flow := wave.Total() + flowIn
		if bestIdx < 0 || refBetter(mode, flow, arr, len(c.Leaves), bestFlow, bestArr, len(candidates[bestIdx].Leaves)) {
			bestIdx, bestWave, bestArr, bestFlow = i, wave, arr, flow
		}
	}
	return bestIdx, bestWave, bestArr, bestFlow
}

func refSelectDepth(id int, candidates []cuts.Cut, states []nodeState, fanout []int, w *mapWorker) (int, glitch.Waveform, int, float64) {
	var arrs []int
	var flowIns []float64
	minArr := -1
	for _, c := range candidates {
		if len(c.Leaves) == 1 && c.Leaves[0] == id {
			arrs = append(arrs, -1) // trivial self-cut is not implementable
			flowIns = append(flowIns, 0)
			continue
		}
		arr, flowIn := candMeasure(c, states, fanout)
		arrs = append(arrs, arr)
		flowIns = append(flowIns, flowIn)
		if minArr < 0 || arr < minArr {
			minArr = arr
		}
	}
	bestIdx := -1
	var bestWave glitch.Waveform
	var bestFlow float64
	if minArr < 0 {
		return -1, bestWave, 0, 0
	}
	for i, c := range candidates {
		if arrs[i] != minArr { // arrivals are >= 1, so this also skips trivial cuts
			continue
		}
		wave := candWave(c, states, w)
		flow := wave.Total() + flowIns[i]
		if bestIdx < 0 || flow < bestFlow || (flow == bestFlow && len(c.Leaves) < len(candidates[bestIdx].Leaves)) {
			bestIdx, bestWave, bestFlow = i, wave, flow
		}
	}
	return bestIdx, bestWave, minArr, bestFlow
}

func refBetter(mode Mode, flow float64, arr, leaves int, bFlow float64, bArr, bLeaves int) bool {
	switch mode {
	case ModeDepth:
		if arr != bArr {
			return arr < bArr
		}
		if flow != bFlow {
			return flow < bFlow
		}
		return leaves < bLeaves
	default: // ModePower, ModeArea
		if flow != bFlow {
			return flow < bFlow
		}
		if arr != bArr {
			return arr < bArr
		}
		return leaves < bLeaves
	}
}

// sameWave reports whether two waveforms are equal to the bit.
func sameWave(a, b glitch.Waveform) bool {
	if math.Float64bits(a.P) != math.Float64bits(b.P) || len(a.Comps) != len(b.Comps) {
		return false
	}
	for i := range a.Comps {
		if a.Comps[i].Time != b.Comps[i].Time || math.Float64bits(a.Comps[i].S) != math.Float64bits(b.Comps[i].S) {
			return false
		}
	}
	return true
}

// TestSelectFlowMatchesExhaustive is the oracle for the flow-in bound.
// It runs the flat forward pass gate by gate, in power and depth mode
// at K=4 and K=6, and at every gate requires selectFlow to return the
// reference selector's index, arrival, flow bits and waveform. It also
// counts the gates where another candidate ties the winner on the whole
// key and is propagated first, because its flow-in is lower, so that
// only the lower-index rule keeps the reference's winner. It requires
// at least one, and fewer propagations in total than the reference ran.
func TestSelectFlowMatchesExhaustive(t *testing.T) {
	type tc struct {
		name string
		net  *logic.Network
	}
	var nets []tc
	for seed := int64(0); seed < 20; seed++ {
		nets = append(nets, tc{fmt.Sprintf("formal-%d", seed), formalNet(seed)})
	}
	// The larger nets of the same shape are where ties that only the
	// index rule breaks turn up (seeds 53 and 56 of these).
	for seed := int64(0); seed < 60; seed++ {
		nets = append(nets, tc{fmt.Sprintf("random-%d", seed), randomNet(seed)})
	}
	nets = append(nets,
		tc{"partial-add", netgen.PartialDatapathNetwork(netgen.FUAdd, 3, 2, 4)},
		tc{"partial-mult", netgen.PartialDatapathNetwork(netgen.FUMult, 2, 3, 4)},
		tc{"mult8", netgen.MultiplierNetwork(8)},
	)
	var gates, ties, indexTies, refProps, props int
	for _, c := range nets {
		for _, k := range []int{4, 6} {
			for _, mode := range []Mode{ModePower, ModeDepth} {
				opt := Options{K: k, Mode: mode}
				g, tie, itie, rp, p := compareSelection(t, c.name, c.net, opt)
				gates += g
				ties += tie
				indexTies += itie
				refProps += rp
				props += p
			}
		}
	}
	t.Logf("%d gates: %d with a full-key tie at the winner, %d of them decided by the index rule; %d propagations, reference %d",
		gates, ties, indexTies, props, refProps)
	if indexTies == 0 {
		t.Fatal("no full-key tie was propagated ahead of the winner: the lower-index rule went unexercised")
	}
	if props >= refProps {
		t.Fatalf("selectFlow propagated %d candidates, the reference %d: the bound skipped nothing", props, refProps)
	}
}

// compareSelection runs net's flat forward pass under opt, checking
// selectFlow against the reference at every gate. It returns the gate
// count, the gates with a full-key tie at the winner, those of them
// where a tied candidate has a lower flow-in than the winner (so
// selectFlow propagates it first), and both sides' propagation counts.
func compareSelection(t *testing.T, name string, net *logic.Network, opt Options) (gates, ties, indexTies, refProps, props int) {
	t.Helper()
	n := net.NumNodes()
	fanout := net.FanoutCounts()
	states := make([]nodeState, n)
	sets := make([][]cuts.Cut, n)
	src := prob.DefaultSources()
	for id := 0; id < n; id++ {
		nd := net.Node(id)
		switch nd.Kind {
		case logic.KindInput:
			states[id].wave = glitch.SourceWaveform(src.InputP, src.InputS)
		case logic.KindLatchOut:
			states[id].wave = glitch.SourceWaveform(src.LatchP, src.LatchS)
		case logic.KindConst:
			states[id].wave = glitch.ConstWaveform(nd.ConstVal)
		default:
			continue
		}
		sets[id] = []cuts.Cut{cuts.Trivial(id)}
	}
	w, rw := newMapWorker(), newMapWorker()
	for id := 0; id < n; id++ {
		nd := net.Node(id)
		if nd.Kind != logic.KindGate {
			continue
		}
		gates++
		var faninSets [][]cuts.Cut
		for _, f := range nd.Fanins {
			faninSets = append(faninSets, sets[f])
		}
		candidates := rw.scratch.EnumerateNode(nd, faninSets, opt.K)
		var (
			ri, ra int
			rwave  glitch.Waveform
			rf     float64
		)
		if opt.Mode == ModeDepth {
			ri, rwave, ra, rf = refSelectDepth(id, candidates, states, fanout, rw)
		} else {
			ri, rwave, ra, rf = refSelectFlow(id, candidates, states, fanout, opt.Mode, rw)
		}
		gi, gwave, ga, gf, gp := selectFlow(id, candidates, states, fanout, opt.Mode, w)
		at := fmt.Sprintf("%s K=%d %v gate %d", name, opt.K, opt.Mode, id)
		if gi != ri || ga != ra || math.Float64bits(gf) != math.Float64bits(rf) || !sameWave(gwave, rwave) {
			t.Fatalf("%s: selectFlow (idx %d, arr %d, flow %v, wave %+v) != reference (idx %d, arr %d, flow %v, wave %+v)",
				at, gi, ga, gf, gwave, ri, ra, rf, rwave)
		}
		props += gp

		// What the reference propagated, and whether another candidate
		// ties the winner on the whole key. The reference keeps the
		// first-seen candidate, so every tied one has a higher index.
		_, winFlowIn := candMeasure(candidates[ri], states, fanout)
		minArr := -1
		for _, c := range candidates {
			if len(c.Leaves) == 1 && c.Leaves[0] == id {
				continue
			}
			if arr, _ := candMeasure(c, states, fanout); minArr < 0 || arr < minArr {
				minArr = arr
			}
		}
		tied, indexTied := false, false
		for i, c := range candidates {
			if len(c.Leaves) == 1 && c.Leaves[0] == id {
				continue
			}
			arr, flowIn := candMeasure(c, states, fanout)
			if opt.Mode == ModeDepth && arr != minArr {
				continue
			}
			refProps++
			flow := candWave(c, states, rw).Total() + flowIn
			if i != ri && arr == ra && len(c.Leaves) == len(candidates[ri].Leaves) &&
				math.Float64bits(flow) == math.Float64bits(rf) {
				tied = true
				indexTied = indexTied || flowIn < winFlowIn
			}
		}
		if tied {
			ties++
		}
		if indexTied {
			indexTies++
		}

		// Publish the gate's state exactly as the forward pass does.
		if err := mapGate(net, id, states, sets, fanout, opt, w); err != nil {
			t.Fatalf("%s: %v", at, err)
		}
		if !sameCut(states[id].best, candidates[ri]) {
			t.Fatalf("%s: mapGate published a different cut", at)
		}
	}
	return gates, ties, indexTies, refProps, props
}

// sameCut reports whether two cuts have the same leaves and function.
func sameCut(a, b cuts.Cut) bool {
	if len(a.Leaves) != len(b.Leaves) || !a.Func.Equal(b.Func) {
		return false
	}
	for i := range a.Leaves {
		if a.Leaves[i] != b.Leaves[i] {
			return false
		}
	}
	return true
}
