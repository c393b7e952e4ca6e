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
	// coneOps is the levelized latch D-cone program the pre-pass
	// evaluates once per cycle to track the latch trajectory (empty for
	// combinational networks).
	coneOps []coneOp
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

// coneOp is one levelized gate evaluation of the latch-cone program.
// For gates of up to 6 inputs the truth table is the single word tt;
// wider gates fall back to the full table.
type coneOp struct {
	id     int
	fanins []int
	tt     uint64
	big    *bitvec.TruthTable
}

// gatePlan is the word-level evaluation plan of one gate: the minterm
// expansion of its truth table over fanin words. minterms enumerates
// the smaller polarity (the function's on-set, or its off-set with
// invert) so evaluation cost is at most 2^(k-1) terms.
type gatePlan struct {
	isGate   bool
	fanins   []int
	minterms []uint16
	invert   bool
}

func newGatePlan(nd *logic.Node) gatePlan {
	p := gatePlan{isGate: true, fanins: nd.Fanins}
	p.minterms, p.invert = nd.Func.CompactCover()
	return p
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
// a register array). One pass over the minterm expansion serves all
// wdt groups.
func (p *gatePlan) evalInto(val []uint64, wdt int, out []uint64) {
	var acc [MaxWide]uint64
	for _, m := range p.minterms {
		var term [MaxWide]uint64
		for j := 0; j < wdt; j++ {
			term[j] = ^uint64(0)
		}
		for i, f := range p.fanins {
			fw := val[f*wdt : f*wdt+wdt]
			if m>>uint(i)&1 == 0 {
				for j := 0; j < wdt; j++ {
					term[j] &= ^fw[j]
				}
			} else {
				for j := 0; j < wdt; j++ {
					term[j] &= fw[j]
				}
			}
		}
		for j := 0; j < wdt; j++ {
			acc[j] |= term[j]
		}
	}
	if p.invert {
		for j := 0; j < wdt; j++ {
			acc[j] = ^acc[j]
		}
	}
	copy(out, acc[:wdt])
}

// NewWord creates a unit-delay word-parallel simulator.
func NewWord(net *logic.Network) (*WordSimulator, error) {
	return NewWordWithDelays(net, DelayUnit, 0)
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
			w.plans[nd.ID] = newGatePlan(nd)
			w.gateIDs = append(w.gateIDs, nd.ID)
		case logic.KindConst:
			w.constIDs = append(w.constIDs, nd.ID)
			w.constVals = append(w.constVals, nd.ConstVal)
		}
	}
	w.buildConeProgram()
	return w, nil
}

// buildConeProgram levelizes the latch D-input cones — the only part
// of the network that stands between one cycle's latch state and the
// next — into the per-cycle program the pre-pass evaluates. The
// trajectory is inherently sequential for the flow's netlists: every
// elaborated datapath carries a step-counter FSM whose latches read
// their own Q. Gates of up to 6 inputs inline their truth table into a
// single word.
func (w *WordSimulator) buildConeProgram() {
	for _, id := range w.net.LatchConeGates() {
		nd := w.net.Node(id)
		op := coneOp{id: id, fanins: nd.Fanins}
		if nd.Func.NumVars() <= 6 {
			for m := 0; m < nd.Func.Size(); m++ {
				if nd.Func.Get(uint(m)) {
					op.tt |= 1 << uint(m)
				}
			}
		} else {
			op.big = nd.Func
		}
		w.coneOps = append(w.coneOps, op)
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
	// inPrev/stPrev describe cycle c-1 — the cycle whose settled values
	// are the start state of cycle c. Cycle -1 is the power-on state of
	// Simulator.Reset: inputs low, latches at their init values.
	inPrev := make([]bool, numIn)
	stPrev := w.net.InitialLatchState()
	stCur := make([]bool, numL)
	var coneVal []bool
	if numL > 0 {
		coneVal = make([]bool, w.net.NumNodes())
		for i, id := range w.constIDs {
			coneVal[id] = w.constVals[i]
		}
	}
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
		bit := uint64(1) << uint(c&63)
		g.lanes++
		for i := range in {
			if inPrev[i] {
				g.startInputs[i] |= bit
			}
			if in[i] {
				g.inputs[i] |= bit
			}
		}
		if numL > 0 {
			// st_c is the D slice of cycle c-1's settled state — the
			// two-phase capture of Step, reached through the cone
			// program alone.
			for i, id := range w.net.Inputs {
				coneVal[id] = inPrev[i]
			}
			for i, q := range w.net.Latches {
				coneVal[q] = stPrev[i]
			}
			for _, op := range w.coneOps {
				var assign uint
				for i, f := range op.fanins {
					if coneVal[f] {
						assign |= 1 << uint(i)
					}
				}
				if op.big != nil {
					coneVal[op.id] = op.big.Eval(assign)
				} else {
					coneVal[op.id] = op.tt>>assign&1 == 1
				}
			}
			for i, q := range w.net.Latches {
				stCur[i] = coneVal[w.net.Node(q).LatchInput]
				if stPrev[i] {
					g.startLatch[i] |= bit
				}
				if stCur[i] {
					g.latchQ[i] |= bit
				}
			}
			stPrev, stCur = stCur, stPrev
		}
		copy(inPrev, in)
	}
	return groups, nil
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
