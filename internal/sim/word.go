package sim

import (
	"context"
	"fmt"
	"math/bits"

	"repro/internal/bitvec"
	"repro/internal/logic"
	"repro/internal/par"
)

// WordSimulator is the word-parallel counterpart of Simulator: it packs
// 64 independent clock cycles into the bit lanes of one uint64 per
// signal and propagates events word-wise — and, with SetWide, N such
// words (N×64 cycles) per event pass — producing Counts and
// NodeTransitions bit-identical to the scalar engine at any worker
// count and any width.
//
// The engine exploits a structural property of transport-delay
// simulation over an acyclic network: each cycle settles to the
// zero-delay functional evaluation of its inputs and latch state
// (asserted by TestStepMatchesZeroDelayEval). The only cross-cycle
// dependency is therefore the latch trajectory, which a cheap
// sequential pre-pass tracks by evaluating just the latch D-input cone
// per cycle (nothing for combinational networks); each cycle's full
// start state is then derived word-parallel inside the workers by one
// levelized evaluation of the one-cycle-shifted stimulus, after which
// the expensive glitch-counting event simulations of the cycles are
// mutually independent and run 64 to a word, lane groups fanned across
// a worker pool.
//
// Per-lane equivalence with the scalar engine holds because lanes never
// mix under bitwise gate evaluation, the shared event times are a
// superset of each lane's own change times (an event in a lane whose
// inputs did not change carries that lane's current value and applies
// as a no-op), and transitions are counted per lane with
// popcount(new XOR old) masked to the group's active lanes.
//
// A WordSimulator holds no mutable simulation state between runs; each
// Run* call is self-contained. It is not safe for concurrent use (the
// run accumulates into shared counters), but a single run parallelizes
// internally.
type WordSimulator struct {
	net      *logic.Network
	fanouts  [][]int
	delays   []int
	maxDelay int
	plans    []gatePlan
	gateIDs  []int
	// cone is the compiled latch D-cone program the pre-pass evaluates
	// once per cycle to track the latch trajectory (empty for
	// combinational networks).
	cone coneProgram
	// constIDs/constVals list the constant sources once; their node
	// values never change.
	constIDs  []int
	constVals []bool
	// wide is the number of 64-cycle lane groups event-simulated per
	// block (see SetWide).
	wide int

	// NodeTransitions holds the per-node transition tallies of the most
	// recent run, indexed by node ID — same contract as
	// Simulator.NodeTransitions.
	NodeTransitions []int64

	counts Counts
}

// wordVars is the most variables a truth table held in one uint64 can
// have. A mapped LUT has at most 6 inputs, so its table fits one word.
const wordVars = 6

// coneProgram is the latch D-cone compiled for the pre-pass. Node
// values live in a []uint8 of 0s and 1s with one extra slot, at index
// NumNodes, that always holds 0. Narrow op k (a gate of at most
// wordVars inputs) writes node ids[k] with bit a of its table word
// tts[k], where bit i of a is the value of fanin slot i; a gate with
// fewer inputs pads its slots with the zero slot, so the unused address
// bits are 0. Ops run in ascending node order, which is topological.
type coneProgram struct {
	ids    []int32
	fanins [][wordVars]int32
	tts    []uint64
	// wide lists the gates of more than wordVars inputs in program
	// order; none occur in a mapped network.
	wide []wideConeOp
	// latchD is each latch's D node, indexed like Network.Latches.
	latchD []int32
}

// wideConeOp is a cone gate of more than wordVars inputs. It runs
// after the first at narrow ops and reads its bit from the table's
// words.
type wideConeOp struct {
	at     int
	id     int32
	fanins []int32
	words  []uint64
}

// gatePlan is the word-level evaluation plan of one gate: its fanins
// and the words of its truth table (see evalInto).
type gatePlan struct {
	isGate bool
	fanins []int
	words  []uint64
}

// MaxWide bounds the lane-group width of one event pass: up to
// MaxWide×64 cycles share each cone traversal. The cap keeps the
// per-event payload a small fixed array.
const MaxWide = 8

// DefaultWide is the width new simulators start with — wide enough to
// amortize fan-out walks and ring bookkeeping, narrow enough that the
// strided node state stays cache-resident for typical netlists.
const DefaultWide = 4

// SetWide sets the number of 64-cycle lane groups simulated per event
// pass (clamped to [1, MaxWide]). Width is a throughput knob only:
// counts and NodeTransitions are bit-identical at every setting,
// because blocks only union the groups' event times — an event in a
// group whose inputs did not change applies as a no-op and masked
// popcount counting charges it nothing.
func (w *WordSimulator) SetWide(n int) {
	if n < 1 {
		n = 1
	}
	if n > MaxWide {
		n = MaxWide
	}
	w.wide = n
}

// evalInto computes the gate's output words for wdt lane groups at
// once, reading fanin f's group-j word at val[f*wdt+j] and writing the
// wdt output words to out (which may alias val: the result is staged in
// a register array).
func (p *gatePlan) evalInto(val []uint64, wdt int, out []uint64) {
	var res [MaxWide]uint64
	k := len(p.fanins)
	if k > wordVars {
		var x [bitvec.MaxVars]uint64
		for j := 0; j < wdt; j++ {
			for i, f := range p.fanins {
				x[i] = val[f*wdt+j]
			}
			res[j] = shannonWide(p.words, x[:k])
		}
	} else {
		var x [wordVars]uint64
		for j := 0; j < wdt; j++ {
			for i, f := range p.fanins {
				x[i] = val[f*wdt+j]
			}
			res[j] = shannon(p.words[0], &x, k)
		}
	}
	copy(out, res[:wdt])
}

// mux returns a where s is 0 and b where s is 1, bit by bit.
func mux(a, b, s uint64) uint64 { return a ^ ((a ^ b) & s) }

// shannon evaluates a table of k <= wordVars variables, held in the
// word tt, over the fanin words x[:k] by Shannon expansion, without
// data-dependent branches. Minterms 2m and 2m+1 differ only in x0, so
// their two table bits pick leaf m from {0, ¬x0, x0, 1}; the 2^(k-1)
// leaves then merge through x1..x(k-1): t_i is the tree of the low 2^i
// bits of its table over x0..x(i-1).
func shannon(tt uint64, x *[wordVars]uint64, k int) uint64 {
	x0 := x[0]
	pick := [4]uint64{0, ^x0, x0, ^uint64(0)}
	t2 := func(t uint64) uint64 { return mux(pick[t&3], pick[t>>2&3], x[1]) }
	t3 := func(t uint64) uint64 { return mux(t2(t), t2(t>>4), x[2]) }
	t4 := func(t uint64) uint64 { return mux(t3(t), t3(t>>8), x[3]) }
	t5 := func(t uint64) uint64 { return mux(t4(t), t4(t>>16), x[4]) }
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
	return mux(t5(tt), t5(tt>>32), x[5])
}

// shannonWide evaluates a table of more than wordVars variables: each
// word is the sub-tree over x0..x5 for one assignment of the upper
// variables, and muxTree combines the sub-tree results through them.
func shannonWide(words []uint64, x []uint64) uint64 {
	var buf [1 << (bitvec.MaxVars - wordVars)]uint64
	sub := buf[:len(words)]
	var low [wordVars]uint64
	copy(low[:], x)
	for w, tt := range words {
		sub[w] = shannon(tt, &low, wordVars)
	}
	return muxTree(sub, x[wordVars:])
}

// muxTree folds the 2^len(x) words of buf through the variables x,
// lowest first, each level muxing pairs of words; buf is overwritten.
func muxTree(buf, x []uint64) uint64 {
	for _, xi := range x {
		half := len(buf) / 2
		for m := 0; m < half; m++ {
			buf[m] = mux(buf[2*m], buf[2*m+1], xi)
		}
		buf = buf[:half]
	}
	return buf[0]
}

// NewWordWithDelays creates a word-parallel simulator under the given
// delay model; (model, seed) select the same deterministic delay
// assignment as the scalar NewWithDelays.
func NewWordWithDelays(net *logic.Network, model DelayModel, seed int64) (*WordSimulator, error) {
	if err := net.Check(); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	w := &WordSimulator{
		net:             net,
		fanouts:         net.Fanouts(),
		NodeTransitions: make([]int64, net.NumNodes()),
		plans:           make([]gatePlan, net.NumNodes()),
		wide:            DefaultWide,
	}
	w.delays, w.maxDelay = assignDelays(net, model, seed)
	for _, nd := range net.Nodes {
		switch nd.Kind {
		case logic.KindGate:
			w.plans[nd.ID] = gatePlan{isGate: true, fanins: nd.Fanins, words: nd.Func.Words()}
			w.gateIDs = append(w.gateIDs, nd.ID)
		case logic.KindConst:
			w.constIDs = append(w.constIDs, nd.ID)
			w.constVals = append(w.constVals, nd.ConstVal)
		}
	}
	w.buildConeProgram()
	return w, nil
}

// buildConeProgram compiles the latch D-input cones — the only part of
// the network that stands between one cycle's latch state and the next —
// into the per-cycle program the pre-pass evaluates. The trajectory is
// inherently sequential for the flow's netlists: every elaborated
// datapath carries a step-counter FSM whose latches read their own Q,
// and the cone of its registers is the whole mapped network.
func (w *WordSimulator) buildConeProgram() {
	p := &w.cone
	zero := int32(w.net.NumNodes())
	for _, id := range w.net.LatchConeGates() {
		nd := w.net.Node(id)
		if len(nd.Fanins) > wordVars {
			op := wideConeOp{at: len(p.ids), id: int32(id), words: nd.Func.Words()}
			for _, f := range nd.Fanins {
				op.fanins = append(op.fanins, int32(f))
			}
			p.wide = append(p.wide, op)
			continue
		}
		var slots [wordVars]int32
		for i := range slots {
			slots[i] = zero
			if i < len(nd.Fanins) {
				slots[i] = int32(nd.Fanins[i])
			}
		}
		p.ids = append(p.ids, int32(id))
		p.fanins = append(p.fanins, slots)
		p.tts = append(p.tts, nd.Func.Words()[0])
	}
	for _, q := range w.net.Latches {
		p.latchD = append(p.latchD, int32(w.net.Node(q).LatchInput))
	}
}

// run evaluates the program over the node values v (len NumNodes+1),
// narrow ops in runs between the wide ones.
func (p *coneProgram) run(v []uint8) {
	lo := 0
	for i := range p.wide {
		op := &p.wide[i]
		p.runNarrow(v, lo, op.at)
		var a uint
		for j, f := range op.fanins {
			a |= uint(v[f]) << uint(j)
		}
		v[op.id] = uint8(op.words[a>>6] >> (a & 63) & 1)
		lo = op.at
	}
	p.runNarrow(v, lo, len(p.ids))
}

// runNarrow evaluates narrow ops lo..hi-1: one table-word shift per op.
func (p *coneProgram) runNarrow(v []uint8, lo, hi int) {
	tts := p.tts[lo:hi]
	fanins := p.fanins[lo:hi]
	for k, id := range p.ids[lo:hi] {
		f := &fanins[k]
		a := uint(v[f[0]]) | uint(v[f[1]])<<1 | uint(v[f[2]])<<2 |
			uint(v[f[3]])<<3 | uint(v[f[4]])<<4 | uint(v[f[5]])<<5
		v[id] = uint8(tts[k] >> (a & 63) & 1)
	}
}

// Counts returns the transition counts of the most recent run.
func (w *WordSimulator) Counts() Counts { return w.counts }

// laneGroup is the pre-pass product for one block of up to 64
// consecutive cycles: everything a lane-group event simulation needs,
// with cycle base+L in bit lane L. Only stimulus words are stored —
// per-node start words are derived inside the worker (see simGroup),
// so the sequential pre-pass never touches the full node array.
type laneGroup struct {
	base  int // index of the first cycle in the group
	lanes int // active lanes (1..64; the tail group may be partial)
	// inputs and latchQ hold the cycle's primary-input vector and the
	// latch outputs captured at its clock edge, indexed like
	// Network.Inputs / Network.Latches.
	inputs []uint64
	latchQ []uint64
	// startInputs and startLatch hold the same stimulus shifted one
	// cycle back (lane L carries cycle base+L-1; cycle -1 is the
	// power-on state: inputs low, latches at init). Zero-delay
	// evaluation of this shifted stimulus yields each lane's start
	// state — the previous cycle's settled values.
	startInputs []uint64
	startLatch  []uint64
}

// mask returns the active-lane mask transition counting applies.
// Inactive tail lanes still simulate (as harmless all-zero cycles) but
// never count.
func (g *laneGroup) mask() uint64 {
	if g.lanes >= 64 {
		return ^uint64(0)
	}
	return uint64(1)<<uint(g.lanes) - 1
}

// prepass runs the sequential cycle-independence pre-pass. The only
// true cross-cycle dependency is the latch trajectory, and the only
// logic between one cycle's state and the next is the latch D-input
// cone, so the sequential sweep evaluates just the cone program per
// cycle (nothing at all for combinational networks) while packing the
// stimulus words — both in-cycle (inputs, latchQ) and shifted one
// cycle back (startInputs, startLatch). Everything else, including
// each cycle's start-state derivation, runs lane-parallel in the
// workers.
func (w *WordSimulator) prepass(ctx context.Context, vectors [][]bool) ([]laneGroup, error) {
	numIn := len(w.net.Inputs)
	numL := len(w.net.Latches)
	groups := make([]laneGroup, (len(vectors)+63)/64)
	// v holds the node values of cycle c-1 — the cycle whose settled
	// values are the start state of cycle c — plus the cone program's
	// zero slot. Cycle -1 is the power-on state of Simulator.Reset:
	// inputs low, latches at their init values.
	latches := w.net.Latches
	v := make([]uint8, w.net.NumNodes()+1)
	for i, id := range w.constIDs {
		v[id] = b2u8(w.constVals[i])
	}
	for _, q := range latches {
		v[q] = b2u8(w.net.Node(q).LatchInit)
	}
	stCur := make([]uint8, numL)
	for c, in := range vectors {
		if len(in) != numIn {
			panic("sim: input vector length mismatch")
		}
		g := &groups[c/64]
		if c&63 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			g.base = c
			g.inputs = make([]uint64, numIn)
			g.startInputs = make([]uint64, numIn)
			g.latchQ = make([]uint64, numL)
			g.startLatch = make([]uint64, numL)
		}
		lane := uint(c & 63)
		g.lanes++
		if numL > 0 {
			// st_c is the D slice of cycle c-1's settled state — the
			// two-phase capture of Step: every D is read before any Q
			// takes its new value.
			w.cone.run(v)
			startLatch, latchQ := g.startLatch, g.latchQ
			for i, d := range w.cone.latchD {
				stCur[i] = v[d]
				startLatch[i] |= uint64(v[latches[i]]) << lane
				latchQ[i] |= uint64(stCur[i]) << lane
			}
			for i, q := range latches {
				v[q] = stCur[i]
			}
		}
		startInputs, inputs := g.startInputs, g.inputs
		for i, id := range w.net.Inputs {
			b := b2u8(in[i])
			startInputs[i] |= uint64(v[id]) << lane
			inputs[i] |= uint64(b) << lane
			v[id] = b
		}
	}
	return groups, nil
}

// b2u8 converts a bool to 0 or 1. In this form it compiles to no branch
// at all: a bool already is the byte 0 or 1.
func b2u8(b bool) uint8 {
	var u uint8
	if b {
		u = 1
	}
	return u
}

// wordEvent is one scheduled gate-output change: the node and its new
// value words for every lane group of the block (only the first wdt
// entries are meaningful).
type wordEvent struct {
	node int
	w    [MaxWide]uint64
}

// wordScratch is the per-worker reusable event-simulation state — the
// word-level mirror of the scalar Simulator's scratch fields. Per-node
// value arrays are strided: node i's group-j word lives at [i*wdt+j].
type wordScratch struct {
	wdt int
	// start holds the block's derived start-state words. Constant nodes
	// are preset once at creation; input, latch, and gate slots are
	// overwritten per block.
	start      []uint64
	val        []uint64
	futureVal  []uint64
	futureSeen []uint64
	evalSeen   []uint64
	stepGen    uint64
	evalGen    uint64
	ring       [][]wordEvent
	npending   int
	changed    []int
}

func (w *WordSimulator) newScratch(wdt int) *wordScratch {
	n := w.net.NumNodes()
	sc := &wordScratch{
		wdt:        wdt,
		start:      make([]uint64, n*wdt),
		val:        make([]uint64, n*wdt),
		futureVal:  make([]uint64, n*wdt),
		futureSeen: make([]uint64, n),
		evalSeen:   make([]uint64, n),
		ring:       make([][]wordEvent, w.maxDelay+1),
	}
	for i, id := range w.constIDs {
		if w.constVals[i] {
			for j := 0; j < wdt; j++ {
				sc.start[id*wdt+j] = ^uint64(0)
			}
		}
	}
	return sc
}

// simBlock event-simulates one block of up to wdt lane groups to
// settlement, accumulating per-node tallies into trans and returning
// the block's counts. Missing tail groups ride along as inactive words
// (zero stimulus, zero count mask), so a partial final block needs no
// special casing past the mask.
//
// Per-lane equivalence with the one-group engine: each group's words
// evolve exactly as they would alone, because blocking only unions the
// groups' event times — an evaluation triggered by another group's
// change recomputes this group's pending value unchanged, and applying
// it is a no-op that masked popcount counting charges nothing.
func (w *WordSimulator) simBlock(groups []laneGroup, sc *wordScratch, trans []int64) Counts {
	var c Counts
	wdt := sc.wdt
	var masks [MaxWide]uint64
	for j := range groups {
		masks[j] = groups[j].mask()
	}

	// Derive the block's start state word-parallel: one levelized eval
	// over the shifted stimulus gives each lane the settled values of
	// its previous cycle — wdt×64 cycles of start state for the price
	// of one sweep. Ascending gateIDs are topological; consts are
	// preset in the scratch.
	start := sc.start
	for i, id := range w.net.Inputs {
		for j := 0; j < wdt; j++ {
			start[id*wdt+j] = 0
		}
		for j := range groups {
			start[id*wdt+j] = groups[j].startInputs[i]
		}
	}
	for i, q := range w.net.Latches {
		for j := 0; j < wdt; j++ {
			start[q*wdt+j] = 0
		}
		for j := range groups {
			start[q*wdt+j] = groups[j].startLatch[i]
		}
	}
	for _, id := range w.gateIDs {
		w.plans[id].evalInto(start, wdt, start[id*wdt:id*wdt+wdt])
	}
	copy(sc.val, start)
	sc.stepGen++
	sc.changed = sc.changed[:0]

	// Time 0: latch outputs and primary inputs change together.
	for i, q := range w.net.Latches {
		any := false
		for j := range groups {
			nv := groups[j].latchQ[i]
			if diff := sc.val[q*wdt+j] ^ nv; diff != 0 {
				sc.val[q*wdt+j] = nv
				n := int64(bits.OnesCount64(diff & masks[j]))
				c.Latch += n
				trans[q] += n
				any = true
			}
		}
		if any {
			sc.changed = append(sc.changed, q)
		}
	}
	for i, id := range w.net.Inputs {
		any := false
		for j := range groups {
			if nv := groups[j].inputs[i]; sc.val[id*wdt+j] != nv {
				sc.val[id*wdt+j] = nv
				any = true
			}
		}
		if any {
			sc.changed = append(sc.changed, id)
		}
	}

	// Word-wise transport-delay event loop, lockstep time steps over
	// the same delay ring as the scalar engine.
	w.evalFanoutsWord(sc, 0)
	for t := 0; sc.npending > 0; {
		t++
		slot := t % len(sc.ring)
		events := sc.ring[slot]
		if len(events) == 0 {
			continue
		}
		sc.ring[slot] = events[:0]
		sc.npending -= len(events)
		sc.changed = sc.changed[:0]
		for _, e := range events {
			any := false
			for j := 0; j < wdt; j++ {
				diff := sc.val[e.node*wdt+j] ^ e.w[j]
				if diff == 0 {
					continue
				}
				sc.val[e.node*wdt+j] = e.w[j]
				n := int64(bits.OnesCount64(diff & masks[j]))
				c.Gate += n
				trans[e.node] += n
				any = true
			}
			if any {
				sc.changed = append(sc.changed, e.node)
			}
		}
		w.evalFanoutsWord(sc, t)
	}

	// Functional transitions: settled word differs from start word.
	for _, id := range w.gateIDs {
		for j := 0; j < wdt; j++ {
			if diff := sc.val[id*wdt+j] ^ start[id*wdt+j]; diff != 0 {
				c.GateFunctional += int64(bits.OnesCount64(diff & masks[j]))
			}
		}
	}
	for j := range groups {
		c.Cycles += int64(groups[j].lanes)
	}
	return c
}

// evalFanoutsWord re-evaluates every gate fed by a changed node and
// schedules word-level output changes at t + delay, mirroring the
// scalar evalFanouts (evalSeen dedup, futureVal-aware comparison). A
// change in any of the block's words schedules the full wdt-word event;
// words whose pending value is unchanged apply as no-ops.
func (w *WordSimulator) evalFanoutsWord(sc *wordScratch, t int) {
	sc.evalGen++
	wdt := sc.wdt
	for _, id := range sc.changed {
		for _, gid := range w.fanouts[id] {
			p := &w.plans[gid]
			if !p.isGate || sc.evalSeen[gid] == sc.evalGen {
				continue
			}
			sc.evalSeen[gid] = sc.evalGen
			var nv [MaxWide]uint64
			p.evalInto(sc.val, wdt, nv[:wdt])
			cur := sc.val[gid*wdt : gid*wdt+wdt]
			if sc.futureSeen[gid] == sc.stepGen {
				cur = sc.futureVal[gid*wdt : gid*wdt+wdt]
			}
			differs := false
			for j := 0; j < wdt; j++ {
				if nv[j] != cur[j] {
					differs = true
					break
				}
			}
			if differs {
				copy(sc.futureVal[gid*wdt:gid*wdt+wdt], nv[:wdt])
				sc.futureSeen[gid] = sc.stepGen
				slot := (t + w.delays[gid]) % len(sc.ring)
				sc.ring[slot] = append(sc.ring[slot], wordEvent{node: gid, w: nv})
				sc.npending++
			}
		}
	}
}

// RunVectors applies the given vectors with the given worker count
// (0 = GOMAXPROCS) and returns the transition counts.
func (w *WordSimulator) RunVectors(vectors [][]bool, workers int) Counts {
	c, _ := w.RunVectorsCtx(context.Background(), vectors, workers)
	return c
}

// RunVectorsCtx is RunVectors with cooperative cancellation: the
// pre-pass checks ctx at every lane-group boundary and each worker
// checks it before starting a group. On cancellation the counts
// accumulated from completed groups are returned alongside ctx's error
// (a coarser partial than the scalar engine's per-vector boundary —
// callers treat errored counts as incomplete either way).
//
// Aggregation is deterministic at every worker count: group results are
// collected into fixed slots by group index and summed in that order,
// and per-worker NodeTransitions accumulators are folded in worker
// order, so Counts and NodeTransitions are byte-identical however the
// groups were scheduled.
func (w *WordSimulator) RunVectorsCtx(ctx context.Context, vectors [][]bool, workers int) (Counts, error) {
	w.counts = Counts{}
	for i := range w.NodeTransitions {
		w.NodeTransitions[i] = 0
	}
	if len(vectors) == 0 {
		return w.counts, ctx.Err()
	}
	groups, err := w.prepass(ctx, vectors)
	if err != nil {
		return w.counts, err
	}
	wdt := w.wide
	blocks := (len(groups) + wdt - 1) / wdt
	perBlock := make([]Counts, blocks)
	nw := par.Workers(blocks, workers)
	scratch := make([]*wordScratch, nw)
	perWorker := make([][]int64, nw)
	for wk := range scratch {
		scratch[wk] = w.newScratch(wdt)
		perWorker[wk] = make([]int64, w.net.NumNodes())
	}
	par.For(blocks, workers, func(wk, i int) {
		if ctx.Err() != nil {
			return
		}
		lo := i * wdt
		hi := min(lo+wdt, len(groups))
		perBlock[i] = w.simBlock(groups[lo:hi], scratch[wk], perWorker[wk])
	})

	for _, c := range perBlock {
		w.counts.Gate += c.Gate
		w.counts.GateFunctional += c.GateFunctional
		w.counts.Latch += c.Latch
		w.counts.Cycles += c.Cycles
	}
	for _, trans := range perWorker {
		for id, n := range trans {
			w.NodeTransitions[id] += n
		}
	}
	return w.counts, ctx.Err()
}

// RunRandom applies n uniformly random input vectors from the given
// seed — the same stimulus sequence as Simulator.RunRandom — and
// returns the transition counts.
func (w *WordSimulator) RunRandom(n int, seed int64, workers int) Counts {
	c, _ := w.RunRandomCtx(context.Background(), n, seed, workers)
	return c
}

// RunRandomCtx is RunRandom with cooperative cancellation (see
// RunVectorsCtx for the cancellation and determinism contracts).
func (w *WordSimulator) RunRandomCtx(ctx context.Context, n int, seed int64, workers int) (Counts, error) {
	return w.RunVectorsCtx(ctx, RandomVectors(len(w.net.Inputs), n, seed), workers)
}
