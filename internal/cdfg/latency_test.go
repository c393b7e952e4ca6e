package cdfg

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func twoCycleMult() Library { return Library{AddLatency: 1, MultLatency: 2} }

func TestLibraryDefaults(t *testing.T) {
	var zero Library
	if zero.Latency(KindAdd) != 1 || zero.Latency(KindMult) != 1 {
		t.Fatal("zero library must be single-cycle")
	}
	lib := twoCycleMult()
	if lib.Latency(KindMult) != 2 || lib.Latency(KindSub) != 1 {
		t.Fatal("latencies wrong")
	}
}

func TestCompletionAndOccupies(t *testing.T) {
	g := NewGraph("m")
	a := g.AddInput("a")
	b := g.AddInput("b")
	m := g.AddOp(KindMult, "m", a, b)
	g.MarkOutput(m)
	s := &Schedule{Step: make([]int, len(g.Nodes)), Len: 4, Lib: twoCycleMult()}
	s.Step[m] = 2
	if s.Completion(g, m) != 3 {
		t.Fatalf("completion = %d, want 3", s.Completion(g, m))
	}
	for step, want := range map[int]bool{1: false, 2: true, 3: true, 4: false} {
		if s.Occupies(g, m, step) != want {
			t.Fatalf("Occupies(%d) = %v", step, !want)
		}
	}
}

func TestListScheduleLatRespectsLatency(t *testing.T) {
	// mult (2 cycles) feeding an add: the add must start two steps later.
	g := NewGraph("chain")
	a := g.AddInput("a")
	b := g.AddInput("b")
	m := g.AddOp(KindMult, "m", a, b)
	add := g.AddOp(KindAdd, "add", m, a)
	g.MarkOutput(add)
	s, err := ListScheduleLat(g, ResourceConstraint{Add: 1, Mult: 1}, twoCycleMult())
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateSchedule(g, s, ResourceConstraint{Add: 1, Mult: 1}); err != nil {
		t.Fatal(err)
	}
	if s.Step[add] <= s.Completion(g, m) {
		t.Fatalf("add at %d but mult completes at %d", s.Step[add], s.Completion(g, m))
	}
	if s.Len < 3 {
		t.Fatalf("length %d too short for a 2-cycle mult + add", s.Len)
	}
}

func TestListScheduleLatSerializesOnOneUnit(t *testing.T) {
	// Two independent mults on one 2-cycle multiplier must not overlap.
	g := NewGraph("two")
	a := g.AddInput("a")
	b := g.AddInput("b")
	m1 := g.AddOp(KindMult, "m1", a, b)
	m2 := g.AddOp(KindMult, "m2", b, a)
	g.MarkOutput(m1)
	g.MarkOutput(m2)
	s, err := ListScheduleLat(g, ResourceConstraint{Add: 1, Mult: 1}, twoCycleMult())
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := s.Step[m1], s.Step[m2]
	if lo > hi {
		lo, hi = hi, lo
	}
	if hi-lo < 2 {
		t.Fatalf("2-cycle mults overlap: steps %d and %d", s.Step[m1], s.Step[m2])
	}
}

func TestRandomLatSchedulesValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomLatGraph(rng, 5+rng.Intn(30))
		lib := Library{AddLatency: 1 + rng.Intn(2), MultLatency: 1 + rng.Intn(3)}
		rc := ResourceConstraint{Add: 1 + rng.Intn(3), Mult: 1 + rng.Intn(3)}
		s, err := ListScheduleLat(g, rc, lib)
		if err != nil {
			return false
		}
		return ValidateSchedule(g, s, rc) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestLatencyLifetimes(t *testing.T) {
	// Value of a 2-cycle mult is born at its completion step, and its
	// operands live until the mult completes.
	g := NewGraph("lt")
	a := g.AddInput("a")
	b := g.AddInput("b")
	add := g.AddOp(KindAdd, "add", a, b)
	m := g.AddOp(KindMult, "m", add, a)
	g.MarkOutput(m)
	s := &Schedule{Step: make([]int, len(g.Nodes)), Len: 3, Lib: twoCycleMult()}
	s.Step[add] = 1
	s.Step[m] = 2 // occupies 2..3
	lt := Lifetimes(g, s)
	if lt[add].Birth != 1 || lt[add].Death != 3 {
		t.Fatalf("add lifetime %+v, want {1 3} (held through the mult)", lt[add])
	}
	if lt[m].Birth != 3 {
		t.Fatalf("mult value born at %d, want its completion step 3", lt[m].Birth)
	}
}

// TestValidateScheduleLatCatchesViolations checks ValidateSchedule's
// latency rules: operands must complete before a consumer starts,
// operations must complete within Len, and a unit is occupied for its
// whole latency.
func TestValidateScheduleLatCatchesViolations(t *testing.T) {
	g := NewGraph("bad")
	a := g.AddInput("a")
	b := g.AddInput("b")
	m := g.AddOp(KindMult, "m", a, b)
	add := g.AddOp(KindAdd, "add", m, a)
	g.MarkOutput(add)
	lib := twoCycleMult()

	// Consumer starts before the mult completes.
	s := &Schedule{Step: make([]int, len(g.Nodes)), Len: 4, Lib: lib}
	s.Step[m], s.Step[add] = 1, 2 // mult occupies 1..2
	if err := ValidateSchedule(g, s, ResourceConstraint{}); err == nil {
		t.Fatal("precedence violation not caught")
	}
	// Completion past the schedule end.
	s.Step[m], s.Step[add] = 4, 5
	s.Len = 4
	if err := ValidateSchedule(g, s, ResourceConstraint{}); err == nil {
		t.Fatal("overrun not caught")
	}
	// Occupancy over the constraint.
	g2 := NewGraph("occ")
	x := g2.AddInput("x")
	y := g2.AddInput("y")
	o1 := g2.AddOp(KindMult, "o1", x, y)
	o2 := g2.AddOp(KindMult, "o2", y, x)
	g2.MarkOutput(o1)
	g2.MarkOutput(o2)
	s2 := &Schedule{Step: make([]int, len(g2.Nodes)), Len: 3, Lib: lib}
	s2.Step[o1], s2.Step[o2] = 1, 2 // occupations 1..2 and 2..3 overlap at 2
	if err := ValidateSchedule(g2, s2, ResourceConstraint{Add: 1, Mult: 1}); err == nil {
		t.Fatal("occupancy violation not caught")
	}
}

// TestValidateScheduleUsesLibrary checks that validation reads the
// schedule's own library: steps that are valid single-cycle become
// invalid once the multiply takes two cycles, because the add at step 2
// would read the product before it completes.
func TestValidateScheduleUsesLibrary(t *testing.T) {
	g := NewGraph("lib")
	a := g.AddInput("a")
	b := g.AddInput("b")
	m := g.AddOp(KindMult, "m", a, b)
	add := g.AddOp(KindAdd, "add", m, a)
	g.MarkOutput(add)
	rc := ResourceConstraint{Add: 1, Mult: 1}
	s := &Schedule{Step: make([]int, len(g.Nodes)), Len: 2}
	s.Step[m], s.Step[add] = 1, 2
	if err := ValidateSchedule(g, s, rc); err != nil {
		t.Fatalf("single-cycle: %v", err)
	}
	s.Lib = twoCycleMult()
	if err := ValidateSchedule(g, s, rc); err == nil {
		t.Fatal("add reading an incomplete 2-cycle multiply accepted")
	}
}

func randomLatGraph(rng *rand.Rand, ops int) *Graph {
	g := NewGraph("rand")
	n := 2 + rng.Intn(5)
	for i := 0; i < n; i++ {
		g.AddInput("")
	}
	for i := 0; i < ops; i++ {
		kind := KindAdd
		if rng.Intn(2) == 0 {
			kind = KindMult
		}
		g.AddOp(kind, "", rng.Intn(len(g.Nodes)), rng.Intn(len(g.Nodes)))
	}
	consumers := g.Consumers()
	for _, nd := range g.Nodes {
		if nd.Kind.IsOp() && len(consumers[nd.ID]) == 0 {
			g.MarkOutput(nd.ID)
		}
	}
	return g
}
