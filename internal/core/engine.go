package core

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/binding"
	"repro/internal/bitvec"
	"repro/internal/cdfg"
	"repro/internal/matching"
	"repro/internal/netgen"
	"repro/internal/regbind"
)

// The incremental binding engine behind Bind.
//
// A full rescore evaluates every compatible U×V edge each merge round,
// but a round only mutates the U-nodes that absorbed a partner (their
// operation set, occupation interval, and port sources grow) and kills
// the absorbed V-nodes. Every other pair is untouched, so its Eq. 4
// weight is still valid. The engine therefore keeps a persistent
// candidate row per U-node (sparse.go), keyed by node identity, drops a
// U-node's row whenever it merges (forcing a compatibility re-check
// against its new occupation interval and a rescore), and answers
// everything else from the rows.
//
// Freshly admitted edges are scored in two phases: a parallel pure
// phase (merged mux shape, written to per-edge slots so no two workers
// share state) and a serial aggregation phase that memoizes
// Eq. 4 per distinct (kind, kL, kR) shape — the weight depends on the
// merged pair only through that shape, so one SA lookup and one Eq. 4
// evaluation serve every edge of the same shape. Aggregation walks the
// slots in a fixed order, which makes the result independent of worker
// count and keeps bindings bit-identical to the monolithic rescore.

// weightKey is the memoization key of one Eq. 4 evaluation: with alpha
// and beta fixed per run, the weight is a pure function of the merged
// mux shape.
type weightKey struct {
	kind   netgen.FUKind
	kl, kr int
}

// fuNode is a working functional-unit node of the bipartite graph.
type fuNode struct {
	id   int // stable identity; candidate-row key
	kind netgen.FUKind
	ops  []int
	inU  bool
	dead bool
	// occ is the control-step occupation interval union (multi-cycle
	// resources occupy start..BusyUntil).
	occ bitvec.Set
	// ports tracks the distinct register sources per FU port.
	ports binding.PortSets
	// pcost caches the node's total distinct port sources (|L| + |R|) —
	// the candidate admission score. Maintained on merge.
	pcost int
	// vStamp marks membership in the current round's V list and vIdx
	// the node's index in it (see scoreEdgesSparse).
	vStamp, vIdx int
}

type engine struct {
	rc  cdfg.ResourceConstraint
	opt Options

	nodes  []*fuNode
	counts map[netgen.FUKind]int // live nodes per class, maintained across merges
	memo   map[weightKey]float64
	solver *matching.Solver

	// Candidate-row state (sparse.go). The row bound is decided once
	// per run: rows either have no bound (every compatible pair, the
	// exact binding) or hold at most k candidates.
	bounded  bool
	k        int // per-U-node candidate bound (math.MaxInt = none)
	shapeCap int // SA shape clamp (0 = none)
	round    int
	byID     []*fuNode        // stable node id -> node (dead nodes included)
	rows     map[int]*candRow // U-node id -> candidate row
	heap     []admitEnt       // bounded-selection scratch
	edges    []matching.Edge  // the round's edge list, reused across rounds
}

// testHookOnEdges, when non-nil, observes every round's assembled edge
// list before the bipartite solve. Test-only.
var testHookOnEdges func(iter, nU, nV int, edges []matching.Edge)

func newEngine(g *cdfg.Graph, s *cdfg.Schedule, rb *regbind.Binding, res *binding.Result, rc cdfg.ResourceConstraint, opt Options) *engine {
	e := &engine{
		rc:     rc,
		opt:    opt,
		counts: map[netgen.FUKind]int{},
		memo:   map[weightKey]float64{},
		solver: matching.NewSolver(),
		k:      math.MaxInt,
		rows:   map[int]*candRow{},
	}
	maxStep := 0
	for _, op := range g.Ops() {
		if bu := s.BusyUntil(g, op); bu > maxStep {
			maxStep = bu
		}
	}
	// Initial nodes: every operation is its own functional unit, with
	// its full occupation interval and port source sets.
	for _, op := range g.Ops() {
		occ := bitvec.NewSet(maxStep + 1)
		for t := s.Step[op]; t <= s.BusyUntil(g, op); t++ {
			occ.Add(t)
		}
		n := &fuNode{
			id:    len(e.nodes),
			kind:  g.Nodes[op].Kind.FUClass(),
			ops:   []int{op},
			occ:   occ,
			ports: binding.NewPortSets(g, rb, res, []int{op}),
		}
		l, r := n.ports.Sizes()
		n.pcost = l + r
		e.nodes = append(e.nodes, n)
		e.counts[n.kind]++
	}
	e.byID = append([]*fuNode(nil), e.nodes...)
	// Row bound, fixed for the whole run: none (exact) unless the
	// caller bounds rows via CandidateK, or auto-scale triggers because
	// the largest class outgrows sparseAutoMinNodes. Every seed
	// benchmark and every historical golden sits far below the
	// threshold, so they stay bit-identical on the exact path.
	maxClass := 0
	for _, c := range e.counts {
		if c > maxClass {
			maxClass = c
		}
	}
	e.bounded = !opt.Exact && (opt.CandidateK > 0 || maxClass > sparseAutoMinNodes)
	if e.bounded {
		e.k = opt.CandidateK
		if e.k <= 0 {
			e.k = DefaultCandidateK
		}
		switch {
		case opt.ShapeCap > 0:
			e.shapeCap = opt.ShapeCap
		case opt.ShapeCap == 0 && opt.CandidateK == 0:
			// The clamp auto-engages only alongside auto-sparse:
			// explicitly bounded runs keep exact Eq. 4 weights.
			e.shapeCap = DefaultShapeCap
		}
	}
	e.seedU(s)
	return e
}

// seedU seeds U with the densest control step per class (§5.2.1): those
// operations pairwise conflict, so they are a lower bound witness. When
// the resource constraint allows more units than the densest step
// holds, U is padded from the next-densest steps up to the constraint —
// otherwise every operation would merge into fewer units than
// allocated, bloating their multiplexers while leaving allocated units
// idle.
func (e *engine) seedU(s *cdfg.Schedule) {
	for _, class := range []netgen.FUKind{netgen.FUAdd, netgen.FUMult} {
		perStep := make(map[int][]*fuNode)
		for _, n := range e.nodes {
			if n.kind == class {
				step := s.Step[n.ops[0]]
				perStep[step] = append(perStep[step], n)
			}
		}
		if len(perStep) == 0 {
			continue
		}
		steps := make([]int, 0, len(perStep))
		for step := range perStep {
			steps = append(steps, step)
		}
		sort.Slice(steps, func(i, j int) bool {
			if len(perStep[steps[i]]) != len(perStep[steps[j]]) {
				return len(perStep[steps[i]]) > len(perStep[steps[j]])
			}
			return steps[i] < steps[j]
		})
		target := limitFor(e.rc, class)
		if target <= 0 || target < len(perStep[steps[0]]) {
			target = len(perStep[steps[0]])
		}
		seeded := 0
		for _, step := range steps {
			for _, n := range perStep[step] {
				if seeded >= target {
					break
				}
				n.inU = true
				seeded++
			}
		}
	}
}

// over reports whether a class still exceeds its resource constraint.
func (e *engine) over(class netgen.FUKind) bool {
	l := limitFor(e.rc, class)
	return l > 0 && e.counts[class] > l
}

// run drives the iterative bipartite matching (Algorithm 1, lines 7-16),
// recording one IterationStat per merge round.
func (e *engine) run(rep *Report) error {
	for e.over(netgen.FUAdd) || e.over(netgen.FUMult) {
		rep.Iterations++
		var uList, vList []*fuNode
		for _, n := range e.nodes {
			// Only classes still above their constraint participate.
			if !e.over(n.kind) {
				continue
			}
			if n.inU {
				uList = append(uList, n)
			} else {
				vList = append(vList, n)
			}
		}
		scoreStart := time.Now()
		edges, scored, reused, err := e.scoreEdgesSparse(uList, vList)
		if err != nil {
			return err
		}
		scoreNs := time.Since(scoreStart).Nanoseconds()
		// Sample the store at its fullest — right after scoring, before
		// the merge round drains rows. The post-compact sample below only
		// sees slack capacity.
		if en, by := e.memFootprint(); en > rep.PeakEdges || by > rep.PeakStoreBytes {
			if en > rep.PeakEdges {
				rep.PeakEdges = en
			}
			if by > rep.PeakStoreBytes {
				rep.PeakStoreBytes = by
			}
		}
		if testHookOnEdges != nil {
			testHookOnEdges(rep.Iterations, len(uList), len(vList), edges)
		}
		solveStart := time.Now()
		var match []int
		if e.bounded {
			// Bounded rounds are sparse by construction; the solver
			// routes big low-density rounds to SSP and the rest to the
			// dense Hungarian path.
			match, _ = e.solver.MaxWeightAuto(len(uList), len(vList), edges)
		} else {
			match, _ = e.solver.MaxWeight(len(uList), len(vList), edges)
		}
		solveNs := time.Since(solveStart).Nanoseconds()
		// Apply the matched merges best-weight first so that when the
		// class reaches its constraint mid-iteration, the low-value
		// merges are the ones skipped. Equal weights break on (ui, vi)
		// — with one match per U-node this reproduces the stable
		// by-weight order of the pre-engine implementation exactly.
		type pair struct {
			ui, vi int
			w      float64
		}
		var pairs []pair
		for ui, vi := range match {
			if vi >= 0 {
				pairs = append(pairs, pair{ui, vi, e.rowWeight(uList[ui], vList[vi])})
			}
		}
		sort.Slice(pairs, func(i, j int) bool {
			if pairs[i].w != pairs[j].w {
				return pairs[i].w > pairs[j].w
			}
			if pairs[i].ui != pairs[j].ui {
				return pairs[i].ui < pairs[j].ui
			}
			return pairs[i].vi < pairs[j].vi
		})
		merged := 0
		for _, pr := range pairs {
			if e.opt.MergesPerIteration > 0 && merged >= e.opt.MergesPerIteration {
				break
			}
			u, v := uList[pr.ui], vList[pr.vi]
			// Respect the constraint exactly: stop merging a class once
			// this iteration's merges bring it to its limit.
			if e.counts[u.kind] <= limitFor(e.rc, u.kind) {
				continue
			}
			e.merge(u, v)
			merged++
		}
		if merged == 0 {
			return fmt.Errorf("core: resource constraint {add:%d mult:%d} unreachable: no compatible merges remain (adds=%d mults=%d)",
				e.rc.Add, e.rc.Mult, e.counts[netgen.FUAdd], e.counts[netgen.FUMult])
		}
		e.compact()
		if en, by := e.memFootprint(); en > rep.PeakEdges || by > rep.PeakStoreBytes {
			if en > rep.PeakEdges {
				rep.PeakEdges = en
			}
			if by > rep.PeakStoreBytes {
				rep.PeakStoreBytes = by
			}
		}
		rep.EdgesScored += scored
		rep.EdgesReused += reused
		rep.Iters = append(rep.Iters, IterationStat{
			Iter:        rep.Iterations,
			UNodes:      len(uList),
			VNodes:      len(vList),
			EdgesScored: scored,
			EdgesReused: reused,
			Merges:      merged,
			ScoreNs:     scoreNs,
			SolveNs:     solveNs,
		})
	}
	return nil
}

// weightFromShape evaluates Eq. 4 for a merged mux shape. The
// arithmetic is kept in exactly this form — alpha*(1/sa) +
// (1-alpha)*(1/((muxDiff+1)*beta)) — so memoized weights are
// bit-identical to per-edge recomputation.
func (e *engine) weightFromShape(kind netgen.FUKind, kl, kr int, sa float64) float64 {
	muxDiff := kl - kr
	if muxDiff < 0 {
		muxDiff = -muxDiff
	}
	beta := e.opt.BetaAdd
	if kind == netgen.FUMult {
		beta = e.opt.BetaMult
	}
	return e.opt.Alpha*(1/sa) + (1-e.opt.Alpha)*(1/(float64(muxDiff+1)*beta))
}

// merge folds v into u: operations, occupation, and port sources union;
// u's candidate row is dropped (its intervals and shapes changed); v
// dies, and rows holding it re-admit on their next round.
func (e *engine) merge(u, v *fuNode) {
	u.ops = append(u.ops, v.ops...)
	u.occ.Union(v.occ)
	u.ports.Merge(v.ports)
	delete(e.rows, u.id)
	l, r := u.ports.Sizes()
	u.pcost = l + r
	e.counts[u.kind]--
	v.dead = true
}

// compact removes absorbed nodes from the live list.
func (e *engine) compact() {
	keep := e.nodes[:0]
	for _, n := range e.nodes {
		if !n.dead {
			keep = append(keep, n)
		}
	}
	e.nodes = keep
}

// materialize writes the surviving nodes into the binding result.
func (e *engine) materialize(res *binding.Result) {
	for _, n := range e.nodes {
		fu := &binding.FU{ID: len(res.FUs), Kind: n.kind, Ops: append([]int(nil), n.ops...)}
		res.FUs = append(res.FUs, fu)
		for _, op := range n.ops {
			res.FUOf[op] = fu.ID
		}
	}
}
