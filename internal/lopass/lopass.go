// Package lopass implements the baseline binder HLPower is compared
// against: the LOPASS [3][4] low-power functional-unit binding. Per the
// paper's related-work description, LOPASS binds with minimum-weight
// bipartite matching: control steps are processed in order and the
// operations of each step are assigned to the allocated functional
// units by a min-cost assignment whose cost is the structural
// multiplexer-input growth of placing the operation on the unit. The
// cost model is mux-count driven and glitch-blind — precisely the gap
// HLPower's iterative, glitch-aware formulation exploits (§5.2.2).
//
// BindFlow additionally provides a min-cost max-flow path-cover binder
// in the spirit of Chen and Cong's network-flow formulation [2] (which
// LOPASS used to enhance register binding and port assignment). Binding
// all operations of a class in one flow solve makes each functional
// unit's execution sequence a flow path, so the pairwise chain costs
// also minimize source changes between consecutive executions — a
// temporal effect the structural binders do not see. It is kept as a
// stronger ablation baseline and reported separately in EXPERIMENTS.md.
package lopass

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/binding"
	"repro/internal/cdfg"
	"repro/internal/matching"
	"repro/internal/netgen"
	"repro/internal/regbind"
	"repro/internal/satable"
)

// Options configures the baseline.
type Options struct {
	// PortSeed drives the random port assignment when Swap is nil.
	PortSeed int64
	// Swap overrides the port assignment (shared with HLPower).
	Swap []bool
	// Table, when set, supplies LOPASS's pre-characterized power
	// estimates: the assignment cost of an operation is the zero-delay
	// (glitch-blind) switching activity of the functional-unit
	// configuration that results — the high-level power model LOPASS
	// drove its binding with. When nil, the cost degrades to exact
	// incremental mux-input counting (a strictly sharper structural
	// objective than the original system had; useful as a strong
	// ablation baseline).
	Table *satable.Table
	// Jobs is the worker count for batched SA-table characterization of
	// a step's distinct mux shapes (0 = GOMAXPROCS). Non-semantic: the
	// binding is identical at every setting.
	Jobs int
}

// Report carries run statistics.
type Report struct {
	FlowCost float64
	Runtime  time.Duration
}

// opCover is the large negative reward ensuring every operation is
// covered by some flow path before cost optimization matters.
const opCover = -1e6

// Bind runs the LOPASS binding: step-by-step minimum-weight bipartite
// assignment of operations to functional units with structural
// mux-growth costs.
func Bind(g *cdfg.Graph, s *cdfg.Schedule, rb *regbind.Binding, rc cdfg.ResourceConstraint, opt Options) (*binding.Result, *Report, error) {
	start := time.Now()
	if err := cdfg.ValidateSchedule(g, s, rc); err != nil {
		return nil, nil, fmt.Errorf("lopass: %w", err)
	}
	res := binding.NewResult(g)
	if opt.Swap != nil {
		copy(res.SwapPorts, opt.Swap)
	} else {
		res.SwapPorts = binding.RandomPortAssignment(g, opt.PortSeed)
	}
	rep := &Report{}

	// Allocate the constrained number of FU instances per class up
	// front. Port source sets are tracked per VALUE, not per register:
	// in the LOPASS system functional units are bound before registers
	// exist (scheduling -> FU binding -> register binding [2]), so its
	// cost function cannot see register-level sharing — the structural
	// reason the published LOPASS solutions carry large, unbalanced
	// multiplexers that HLPower's register-aware Eq. 4 avoids.
	type fuState struct {
		fu        *binding.FU
		left      map[int]bool
		right     map[int]bool
		busyUntil int // last occupied step (multi-cycle resources)
	}
	var units []*fuState
	newUnit := func(kind netgen.FUKind) *fuState {
		fu := &binding.FU{ID: len(res.FUs), Kind: kind}
		res.FUs = append(res.FUs, fu)
		st := &fuState{fu: fu, left: map[int]bool{}, right: map[int]bool{}}
		units = append(units, st)
		return st
	}
	for i := 0; i < rc.Add; i++ {
		newUnit(netgen.FUAdd)
	}
	for i := 0; i < rc.Mult; i++ {
		newUnit(netgen.FUMult)
	}

	opsPerStep := make(map[int][]int)
	for _, id := range g.Ops() {
		opsPerStep[s.Step[id]] = append(opsPerStep[s.Step[id]], id)
	}
	for t := 1; t <= s.Len; t++ {
		ops := opsPerStep[t]
		if len(ops) == 0 {
			continue
		}
		// With a table, resolve the step's distinct mux shapes in one
		// batched characterization first: SA-table misses are expensive
		// (netgen -> mapper -> estimator), and GetBatch overlaps them
		// across workers instead of paying them serially edge by edge.
		var shapeCost map[satable.Key]float64
		if opt.Table != nil {
			shapes := make(map[satable.Key]bool)
			for _, op := range ops {
				class := g.Nodes[op].Kind.FUClass()
				l, r := res.PortArgs(g, op)
				for _, u := range units {
					if u.fu.Kind != class || u.busyUntil >= t {
						continue
					}
					kl, kr := len(u.left), len(u.right)
					if !u.left[l] {
						kl++
					}
					if !u.right[r] {
						kr++
					}
					shapes[satable.Key{Kind: class, KL: kl, KR: kr}] = true
				}
			}
			keys := make([]satable.Key, 0, len(shapes))
			for k := range shapes {
				keys = append(keys, k)
			}
			sort.Slice(keys, func(i, j int) bool {
				if keys[i].Kind != keys[j].Kind {
					return keys[i].Kind < keys[j].Kind
				}
				if keys[i].KL != keys[j].KL {
					return keys[i].KL < keys[j].KL
				}
				return keys[i].KR < keys[j].KR
			})
			vals, err := opt.Table.GetBatch(context.Background(), keys, opt.Jobs)
			if err != nil {
				return nil, nil, fmt.Errorf("lopass: step %d: %w", t, err)
			}
			shapeCost = make(map[satable.Key]float64, len(keys))
			for i, k := range keys {
				shapeCost[k] = vals[i]
			}
		}
		// Min-weight assignment == max-weight with W = C - cost.
		const base = 100000.0
		var edges []matching.Edge
		for ui, op := range ops {
			class := g.Nodes[op].Kind.FUClass()
			l, r := res.PortArgs(g, op)
			for vi, u := range units {
				if u.fu.Kind != class || u.busyUntil >= t {
					continue
				}
				kl, kr := len(u.left), len(u.right)
				if !u.left[l] {
					kl++
				}
				if !u.right[r] {
					kr++
				}
				var cost float64
				if opt.Table != nil {
					// Estimated power of the resulting configuration
					// (zero-delay SA of FU + input muxes).
					cost = shapeCost[satable.Key{Kind: class, KL: kl, KR: kr}]
				} else {
					cost = float64(kl - len(u.left) + kr - len(u.right))
				}
				edges = append(edges, matching.Edge{U: ui, V: vi, W: base - cost})
			}
		}
		match, _ := matching.MaxWeight(len(ops), len(units), edges)
		for ui, vi := range match {
			op := ops[ui]
			if vi < 0 {
				return nil, nil, fmt.Errorf("lopass: step %d: op %d found no free %s unit (constraint too tight)",
					t, op, g.Nodes[op].Kind.FUClass())
			}
			u := units[vi]
			u.fu.Ops = append(u.fu.Ops, op)
			u.busyUntil = s.BusyUntil(g, op)
			res.FUOf[op] = u.fu.ID
			l, r := res.PortArgs(g, op)
			if !u.left[l] {
				rep.FlowCost++
			}
			if !u.right[r] {
				rep.FlowCost++
			}
			u.left[l] = true
			u.right[r] = true
		}
	}

	// Drop FU instances that never received an operation (the paper's
	// constraint is an upper bound).
	res = compact(g, res)

	rep.Runtime = time.Since(start)
	if err := res.Validate(g, s, rc); err != nil {
		return nil, nil, fmt.Errorf("lopass: produced invalid binding: %w", err)
	}
	return res, rep, nil
}

// compact renumbers FUs after removing empty instances.
func compact(g *cdfg.Graph, res *binding.Result) *binding.Result {
	out := binding.NewResult(g)
	copy(out.SwapPorts, res.SwapPorts)
	for _, fu := range res.FUs {
		if len(fu.Ops) == 0 {
			continue
		}
		nf := &binding.FU{ID: len(out.FUs), Kind: fu.Kind, Ops: append([]int(nil), fu.Ops...)}
		out.FUs = append(out.FUs, nf)
		for _, op := range nf.Ops {
			out.FUOf[op] = nf.ID
		}
	}
	return out
}

// BindFlow binds all operations of each class with one min-cost max-flow
// path cover (see the package comment; kept as an ablation baseline).
func BindFlow(g *cdfg.Graph, s *cdfg.Schedule, rb *regbind.Binding, rc cdfg.ResourceConstraint, opt Options) (*binding.Result, *Report, error) {
	start := time.Now()
	if err := cdfg.ValidateSchedule(g, s, rc); err != nil {
		return nil, nil, fmt.Errorf("lopass: %w", err)
	}
	res := binding.NewResult(g)
	if opt.Swap != nil {
		copy(res.SwapPorts, opt.Swap)
	} else {
		res.SwapPorts = binding.RandomPortAssignment(g, opt.PortSeed)
	}
	rep := &Report{}

	for _, class := range []netgen.FUKind{netgen.FUAdd, netgen.FUMult} {
		var ops []int
		for _, id := range g.Ops() {
			if g.Nodes[id].Kind.FUClass() == class {
				ops = append(ops, id)
			}
		}
		if len(ops) == 0 {
			continue
		}
		k := rc.Add
		if class == netgen.FUMult {
			k = rc.Mult
		}
		if k <= 0 {
			return nil, nil, fmt.Errorf("lopass: no %s units in resource constraint", class)
		}
		cost, err := bindClass(g, s, rb, res, class, ops, k)
		if err != nil {
			return nil, nil, err
		}
		rep.FlowCost += cost
	}

	rep.Runtime = time.Since(start)
	if err := res.Validate(g, s, rc); err != nil {
		return nil, nil, fmt.Errorf("lopass: produced invalid binding: %w", err)
	}
	return res, rep, nil
}

// bindClass assigns the class's operations to at most k FUs via min-cost
// max-flow path cover. Node layout: 0 = super source, 1 = source,
// 2+2i = opIn_i, 3+2i = opOut_i, last = sink.
func bindClass(g *cdfg.Graph, s *cdfg.Schedule, rb *regbind.Binding, res *binding.Result, class netgen.FUKind, ops []int, k int) (float64, error) {
	n := len(ops)
	superSrc := 0
	src := 1
	opIn := func(i int) int { return 2 + 2*i }
	opOut := func(i int) int { return 3 + 2*i }
	sink := 2 + 2*n

	f := matching.NewFlow(sink + 1)
	f.AddEdge(superSrc, src, k, 0) // at most k functional units

	startEdges := make([]int, n)
	chainEdges := make(map[[2]int]int)
	for i, op := range ops {
		startEdges[i] = f.AddEdge(src, opIn(i), 1, 0)
		f.AddEdge(opIn(i), opOut(i), 1, opCover)
		f.AddEdge(opOut(i), sink, 1, 0)
		for j, op2 := range ops {
			if s.Completion(g, op) < s.Step[op2] {
				c := chainCost(g, res, op, op2)
				chainEdges[[2]int{i, j}] = f.AddEdge(opOut(i), opIn(j), 1, c)
			}
		}
	}
	_, cost := f.MinCostMaxFlow(superSrc, sink)

	// Decode paths into FUs: heads are ops fed directly from the source.
	next := make([]int, n)
	for i := range next {
		next[i] = -1
	}
	for key, h := range chainEdges {
		if f.EdgeFlow(h) > 0 {
			next[key[0]] = key[1]
		}
	}
	covered := 0
	for i := range ops {
		if f.EdgeFlow(startEdges[i]) > 0 {
			fu := &binding.FU{ID: len(res.FUs), Kind: class}
			res.FUs = append(res.FUs, fu)
			for j := i; j >= 0; j = next[j] {
				fu.Ops = append(fu.Ops, ops[j])
				res.FUOf[ops[j]] = fu.ID
				covered++
			}
		}
	}
	if covered != n {
		return 0, fmt.Errorf("lopass: %s constraint %d cannot cover %d operations (max per-step density exceeds it)", class, k, n)
	}
	// Subtract the artificial coverage reward to report the real cost.
	return cost - float64(n)*opCover, nil
}

// chainCost estimates the interconnect cost of executing op2 after op1
// on the same FU: one new connection per port whose source value differs
// — the pairwise (flow-representable) approximation of interconnect
// growth a single-pass formulation is limited to. Like the bipartite
// binder, it works at value granularity because registers are not bound
// yet in the LOPASS ordering.
func chainCost(g *cdfg.Graph, res *binding.Result, op1, op2 int) float64 {
	l1, r1 := res.PortArgs(g, op1)
	l2, r2 := res.PortArgs(g, op2)
	c := 0.0
	if l1 != l2 {
		c++
	}
	if r1 != r2 {
		c++
	}
	return c
}
