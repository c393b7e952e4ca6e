package cdfg

import (
	"fmt"

	"repro/internal/netgen"
)

// Schedule assigns every operation a start step in 1..Len. Inputs are
// available from step 0. Lib gives each operation its latency: an
// operation started at step t completes at t+latency-1 and its value is
// available from the following step. The zero Library is the paper's
// single-cycle library (§6.1), under which an operation occupies exactly
// its assigned step.
type Schedule struct {
	// Step is each operation's start step (1..Len); 0 for inputs.
	Step []int
	// Len is the schedule length in control steps.
	Len int
	// Lib carries the resource latencies the schedule was built for;
	// the zero value is the single-cycle library.
	Lib Library
}

// ResourceConstraint bounds the number of concurrently usable FUs per
// class, e.g. {Add: 3, Mult: 2} like the paper's Table 2.
type ResourceConstraint struct {
	Add  int
	Mult int
}

// Limit returns the bound for an FU class (0 means unbounded).
func (rc ResourceConstraint) Limit(class netgen.FUKind) int {
	switch class {
	case netgen.FUAdd:
		return rc.Add
	case netgen.FUMult:
		return rc.Mult
	}
	return 0
}

// ASAP returns the as-soon-as-possible schedule under lib with
// unlimited resources: every operation starts the step after its last
// operand completes.
func ASAP(g *Graph, lib Library) *Schedule {
	s := &Schedule{Step: make([]int, len(g.Nodes)), Lib: lib}
	for _, n := range g.Nodes {
		if !n.Kind.IsOp() {
			continue
		}
		start := 1
		for _, a := range n.Args {
			if g.Nodes[a].Kind.IsOp() {
				start = max(start, s.Completion(g, a)+1)
			}
		}
		s.Step[n.ID] = start
		s.Len = max(s.Len, s.Completion(g, n.ID))
	}
	return s
}

// ALAP returns the as-late-as-possible schedule under lib for a target
// length L, which must be at least the ASAP length: every operation
// completes the step before its earliest consumer starts, or at L.
func ALAP(g *Graph, lib Library, L int) (*Schedule, error) {
	if asap := ASAP(g, lib); L < asap.Len {
		return nil, fmt.Errorf("cdfg: ALAP length %d below critical path %d", L, asap.Len)
	}
	s := &Schedule{Step: make([]int, len(g.Nodes)), Len: L, Lib: lib}
	consumers := g.Consumers()
	for id := len(g.Nodes) - 1; id >= 0; id-- {
		n := g.Nodes[id]
		if !n.Kind.IsOp() {
			continue
		}
		lat := lib.Latency(n.Kind)
		late := L - lat + 1
		for _, c := range consumers[id] {
			late = min(late, s.Step[c]-lat)
		}
		s.Step[id] = late
	}
	return s, nil
}

// ListSchedule list-schedules g under rc with the paper's single-cycle
// library.
func ListSchedule(g *Graph, rc ResourceConstraint) (*Schedule, error) {
	return ListScheduleLat(g, rc, Library{})
}

// ListScheduleLat performs resource-constrained list scheduling under
// lib with ALAP-slack priority (most urgent first). An operation
// starting at step t occupies one unit of its class from t through its
// BusyUntil step, and its value becomes available at step t+latency. It
// returns the schedule, or an error if the constraint has a zero entry
// for a class that is used.
func ListScheduleLat(g *Graph, rc ResourceConstraint, lib Library) (*Schedule, error) {
	// A fully serial schedule takes the summed latencies; list
	// scheduling never idles every unit while an operation is ready,
	// so it cannot take longer.
	maxSteps := 0
	for _, id := range g.Ops() {
		kind := g.Nodes[id].Kind
		if rc.Limit(kind.FUClass()) <= 0 {
			return nil, fmt.Errorf("cdfg: resource constraint has no %s units", kind.FUClass())
		}
		maxSteps += lib.Latency(kind)
	}
	alap, err := ALAP(g, lib, ASAP(g, lib).Len)
	if err != nil {
		return nil, err
	}

	s := &Schedule{Step: make([]int, len(g.Nodes)), Lib: lib}
	scheduled := make([]bool, len(g.Nodes))
	for _, id := range g.Inputs {
		scheduled[id] = true
	}
	// busy[class][t] counts the units of the class occupied at step t.
	busy := map[netgen.FUKind]map[int]int{netgen.FUAdd: {}, netgen.FUMult: {}}
	remaining := len(g.Ops())
	step := 0
	for remaining > 0 {
		step++
		if step > maxSteps {
			return nil, fmt.Errorf("cdfg: list scheduling did not converge")
		}
		// Ready ops: every argument completed in an earlier step.
		var ready []int
		for _, id := range g.Ops() {
			if scheduled[id] {
				continue
			}
			ok := true
			for _, a := range g.Nodes[id].Args {
				if !scheduled[a] || (g.Nodes[a].Kind.IsOp() && s.Completion(g, a) >= step) {
					ok = false
					break
				}
			}
			if ok {
				ready = append(ready, id)
			}
		}
		// Priority: smaller ALAP step = less slack = more urgent; break
		// ties by ID for determinism.
		sortByKey(ready, func(id int) int { return alap.Step[id]*len(g.Nodes) + id })
		for _, id := range ready {
			kind := g.Nodes[id].Kind
			class := kind.FUClass()
			// A unit is busy exactly while it holds its operands.
			last := step + lib.OperandHold(kind) - 1
			fits := true
			for t := step; t <= last; t++ {
				if busy[class][t] >= rc.Limit(class) {
					fits = false
					break
				}
			}
			if !fits {
				continue
			}
			for t := step; t <= last; t++ {
				busy[class][t]++
			}
			s.Step[id] = step
			scheduled[id] = true
			remaining--
			s.Len = max(s.Len, s.Completion(g, id))
		}
	}
	return s, nil
}

// sortByKey sorts ints ascending by a key function (insertion sort; the
// ready lists are small).
func sortByKey(xs []int, key func(int) int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && key(xs[j]) < key(xs[j-1]); j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// MinResources returns, per FU class, the maximum number of operations
// of that class in any single control step — the lower bound on the
// resource constraint that Theorem 1 guarantees the binder can meet.
func MinResources(g *Graph, s *Schedule) ResourceConstraint {
	addPerStep := make(map[int]int)
	multPerStep := make(map[int]int)
	for _, id := range g.Ops() {
		switch g.Nodes[id].Kind.FUClass() {
		case netgen.FUAdd:
			addPerStep[s.Step[id]]++
		case netgen.FUMult:
			multPerStep[s.Step[id]]++
		}
	}
	rc := ResourceConstraint{}
	for _, c := range addPerStep {
		if c > rc.Add {
			rc.Add = c
		}
	}
	for _, c := range multPerStep {
		if c > rc.Mult {
			rc.Mult = c
		}
	}
	return rc
}

// ValidateSchedule checks a schedule against its own library: it covers
// every node, each operation starts at step 1 or later and completes by
// Len, starts only after every operand completes, and no step occupies
// more units of a class than the constraint allows (zero limits are
// ignored).
func ValidateSchedule(g *Graph, s *Schedule, rc ResourceConstraint) error {
	if len(s.Step) != len(g.Nodes) {
		return fmt.Errorf("cdfg: schedule covers %d nodes, graph has %d", len(s.Step), len(g.Nodes))
	}
	// busy[class][t] counts the units of the class occupied at step t.
	busy := map[netgen.FUKind][]int{}
	for _, n := range g.Nodes {
		if !n.Kind.IsOp() {
			continue
		}
		start, end := s.Step[n.ID], s.Completion(g, n.ID)
		if start < 1 || end > s.Len {
			return fmt.Errorf("cdfg: op %d occupies steps %d..%d outside 1..%d", n.ID, start, end, s.Len)
		}
		for _, a := range n.Args {
			if g.Nodes[a].Kind.IsOp() && s.Completion(g, a) >= start {
				return fmt.Errorf("cdfg: op %d starts at step %d before arg %d completes at step %d", n.ID, start, a, s.Completion(g, a))
			}
		}
		class := n.Kind.FUClass()
		if busy[class] == nil {
			busy[class] = make([]int, s.Len+1)
		}
		for t := start; t <= s.BusyUntil(g, n.ID); t++ {
			busy[class][t]++
		}
	}
	for _, class := range []netgen.FUKind{netgen.FUAdd, netgen.FUMult} {
		limit := rc.Limit(class)
		for t, c := range busy[class] {
			if limit > 0 && c > limit {
				return fmt.Errorf("cdfg: step %d uses %d %s units (limit %d)", t, c, class, limit)
			}
		}
	}
	return nil
}

// Lifetime is the register-lifetime interval of a value: the value is
// born at the end of step Birth and must be held through step Death
// (i.e. it is read during steps Birth+1..Death). Two values can share a
// register iff their (Birth, Death] intervals do not overlap.
type Lifetime struct {
	Birth, Death int
}

// Overlaps reports whether two lifetimes conflict. Empty lifetimes
// (Birth == Death, a value never stored across a step boundary) overlap
// nothing.
func (l Lifetime) Overlaps(o Lifetime) bool {
	if l.Birth >= l.Death || o.Birth >= o.Death {
		return false
	}
	return l.Birth < o.Death && o.Birth < l.Death
}

// Lifetimes computes value lifetimes under the schedule. Inputs are born
// at step 0; an operation's value is born at its completion step. A
// value dies at its last consumer's completion step (a multi-cycle
// consumer holds its operands for its whole occupation); primary
// outputs live through the end of the schedule.
func Lifetimes(g *Graph, s *Schedule) []Lifetime {
	lt := make([]Lifetime, len(g.Nodes))
	isOutput := make(map[int]bool)
	for _, o := range g.Outputs {
		isOutput[o] = true
	}
	consumers := g.Consumers()
	for _, n := range g.Nodes {
		birth := 0
		if n.Kind.IsOp() {
			birth = s.Completion(g, n.ID)
		}
		death := birth
		for _, c := range consumers[n.ID] {
			// Pipelined consumers capture operands at their start step;
			// non-pipelined units hold them through completion.
			if d := s.Step[c] + s.Lib.OperandHold(g.Nodes[c].Kind) - 1; d > death {
				death = d
			}
		}
		if isOutput[n.ID] && s.Len > death {
			death = s.Len
		}
		lt[n.ID] = Lifetime{Birth: birth, Death: death}
	}
	return lt
}
