// Package workload provides the benchmark CDFGs of the paper's
// evaluation (§6.1, Table 1): several DCT algorithms (pr, wang, dir) and
// DSP programs (chem, steam, mcm, honda). The original CDFG files are
// not distributed with the paper, so each benchmark is regenerated as a
// seeded synthetic data-flow graph matched to the published profile —
// identical primary input/output counts and add/mult operation mix (the
// paper's edge totals additionally count structural edges that binary-
// operation dataflow graphs do not have). Resource constraints
// come from Table 2. The package also provides hand-written real kernels
// (an 8-point DCT and FIR filters) used by the examples.
package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/cdfg"
)

// Profile describes one benchmark: the Table 1 shape and the Table 2
// resource constraint.
type Profile struct {
	Name     string
	PIs, POs int
	Adds     int
	Mults    int
	RC       cdfg.ResourceConstraint
	// Cycle is the paper's Table 2 schedule length; benchmark schedules
	// target it (clamped below by the generated graph's critical path).
	Cycle      int
	Seed       int64
	PaperEdges int // the edge count Table 1 reports (informational)
}

// Benchmarks lists the seven paper benchmarks with their published
// profiles (Table 1) and resource constraints (Table 2).
var Benchmarks = []Profile{
	{Name: "chem", PIs: 20, POs: 10, Adds: 171, Mults: 176, RC: cdfg.ResourceConstraint{Add: 9, Mult: 7}, Cycle: 39, Seed: 101, PaperEdges: 731},
	{Name: "dir", PIs: 8, POs: 8, Adds: 84, Mults: 64, RC: cdfg.ResourceConstraint{Add: 3, Mult: 2}, Cycle: 41, Seed: 102, PaperEdges: 314},
	{Name: "honda", PIs: 9, POs: 2, Adds: 45, Mults: 52, RC: cdfg.ResourceConstraint{Add: 4, Mult: 4}, Cycle: 18, Seed: 103, PaperEdges: 214},
	{Name: "mcm", PIs: 8, POs: 8, Adds: 64, Mults: 30, RC: cdfg.ResourceConstraint{Add: 4, Mult: 2}, Cycle: 27, Seed: 104, PaperEdges: 252},
	{Name: "pr", PIs: 8, POs: 8, Adds: 26, Mults: 16, RC: cdfg.ResourceConstraint{Add: 2, Mult: 2}, Cycle: 16, Seed: 105, PaperEdges: 134},
	{Name: "steam", PIs: 5, POs: 5, Adds: 105, Mults: 115, RC: cdfg.ResourceConstraint{Add: 7, Mult: 6}, Cycle: 28, Seed: 106, PaperEdges: 472},
	{Name: "wang", PIs: 8, POs: 8, Adds: 26, Mults: 22, RC: cdfg.ResourceConstraint{Add: 2, Mult: 2}, Cycle: 18, Seed: 107, PaperEdges: 134},
}

// ByName returns the named benchmark profile.
func ByName(name string) (Profile, bool) {
	for _, p := range Benchmarks {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}

// Generate builds the benchmark CDFG for a profile. Generation is
// deterministic in the profile's seed: operations draw arguments from a
// queue of not-yet-consumed values (keeping the dangling-value count
// near the output count, so the graph converges onto its primary
// outputs) mixed with random earlier values (creating the value reuse
// that makes binding and register sharing non-trivial).
func Generate(p Profile) *cdfg.Graph {
	rng := rand.New(rand.NewSource(p.Seed))
	g := cdfg.NewGraph(p.Name)
	for i := 0; i < p.PIs; i++ {
		g.AddInput(fmt.Sprintf("in%d", i))
	}

	// Shuffled kind sequence with the exact add/mult mix.
	kinds := make([]cdfg.NodeKind, 0, p.Adds+p.Mults)
	for i := 0; i < p.Adds; i++ {
		k := cdfg.KindAdd
		// A realistic share of the "add" class are subtractions.
		if rng.Intn(4) == 0 {
			k = cdfg.KindSub
		}
		kinds = append(kinds, k)
	}
	for i := 0; i < p.Mults; i++ {
		kinds = append(kinds, cdfg.KindMult)
	}
	rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })

	// unconsumed tracks op values with no consumer yet.
	var unconsumed []int
	takeUnconsumed := func() int {
		i := rng.Intn(len(unconsumed))
		v := unconsumed[i]
		unconsumed[i] = unconsumed[len(unconsumed)-1]
		unconsumed = unconsumed[:len(unconsumed)-1]
		return v
	}
	pickArg := func(force bool) int {
		// Drain the unconsumed queue whenever it exceeds the output
		// budget; otherwise reuse an earlier value. Reuse is structured
		// the way DSP/DCT kernels are: primary inputs (signal samples
		// and coefficients) fan out to many operations, while op values
		// see occasional reuse with recency bias. This sharing is what
		// gives binding algorithms room to keep multiplexers small.
		if len(unconsumed) > 0 && (force || (len(unconsumed) > p.POs && rng.Intn(4) != 0)) {
			return takeUnconsumed()
		}
		if rng.Intn(2) == 0 {
			return rng.Intn(p.PIs) // broadcast-style PI reuse
		}
		n := len(g.Nodes)
		// Triangular bias toward recent nodes.
		a, b := rng.Intn(n), rng.Intn(n)
		if a < b {
			a = b
		}
		return a
	}
	consume := func(v int) {
		for i, u := range unconsumed {
			if u == v {
				unconsumed[i] = unconsumed[len(unconsumed)-1]
				unconsumed = unconsumed[:len(unconsumed)-1]
				return
			}
		}
	}

	for i, k := range kinds {
		// Toward the end, force queue drainage so the dangling-value
		// count lands exactly on the output budget.
		remaining := len(kinds) - i
		force := len(unconsumed)-p.POs >= remaining-1
		a := pickArg(force)
		b := pickArg(force)
		consume(a)
		consume(b)
		id := g.AddOp(k, fmt.Sprintf("op%d", i), a, b)
		unconsumed = append(unconsumed, id)
	}

	// Outputs: all remaining sinks, topped up with random op values if
	// the profile wants more outputs than sinks remain.
	outs := map[int]bool{}
	for _, v := range unconsumed {
		if len(outs) < p.POs {
			outs[v] = true
		}
	}
	ops := g.Ops()
	for len(outs) < p.POs && len(outs) < len(ops) {
		outs[ops[rng.Intn(len(ops))]] = true
	}
	// Any excess sinks beyond the PO budget must still be outputs to
	// keep the graph dead-code free.
	for _, v := range unconsumed {
		outs[v] = true
	}
	for _, id := range ops {
		if outs[id] {
			g.MarkOutput(id)
		}
	}
	return g
}

// Schedule produces the benchmark's scheduled CDFG: balanced (force-
// directed style) scheduling to the paper's Table 2 cycle count, clamped
// below by the generated graph's critical path.
func Schedule(p Profile, g *cdfg.Graph) (*cdfg.Schedule, error) {
	return cdfg.BalancedSchedule(g, p.RC, p.Cycle)
}
