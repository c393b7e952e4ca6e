package cdfg

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func balancedTestGraph(rng *rand.Rand, ops int) *Graph {
	g := NewGraph("bal")
	n := 3 + rng.Intn(4)
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

func TestBalancedScheduleMeetsTarget(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := balancedTestGraph(rng, 30)
	rc := ResourceConstraint{Add: 3, Mult: 3}
	asap := ASAP(g, Library{})
	target := asap.Len + 10
	s, err := BalancedSchedule(g, rc, target)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateSchedule(g, s, rc); err != nil {
		t.Fatal(err)
	}
	if s.Len != target {
		t.Fatalf("length %d, want target %d", s.Len, target)
	}
}

func TestBalancedScheduleClampsToCriticalPath(t *testing.T) {
	// Target below the critical path clamps up.
	g := NewGraph("chain")
	prev := g.AddInput("a")
	b := g.AddInput("b")
	for i := 0; i < 6; i++ {
		prev = g.AddOp(KindAdd, "", prev, b)
	}
	g.MarkOutput(prev)
	s, err := BalancedSchedule(g, ResourceConstraint{Add: 1, Mult: 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len < 6 {
		t.Fatalf("length %d below the 6-op chain", s.Len)
	}
}

func TestBalancedScheduleSpreadsLoad(t *testing.T) {
	// 12 independent adds with rc 4 and a target of 6 should use ~2 per
	// step, not 4-4-4-0-0-0.
	g := NewGraph("spread")
	a := g.AddInput("a")
	b := g.AddInput("b")
	for i := 0; i < 12; i++ {
		g.MarkOutput(g.AddOp(KindAdd, "", a, b))
	}
	s, err := BalancedSchedule(g, ResourceConstraint{Add: 4, Mult: 1}, 6)
	if err != nil {
		t.Fatal(err)
	}
	perStep := map[int]int{}
	for _, id := range g.Ops() {
		perStep[s.Step[id]]++
	}
	for step, c := range perStep {
		if c > 2 {
			t.Fatalf("step %d packs %d ops; balanced target is 2", step, c)
		}
	}
	if s.Len != 6 {
		t.Fatalf("length %d, want 6", s.Len)
	}
}

func TestBalancedScheduleRandomValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := balancedTestGraph(rng, 5+rng.Intn(40))
		rc := ResourceConstraint{Add: 1 + rng.Intn(3), Mult: 1 + rng.Intn(3)}
		target := rng.Intn(30)
		s, err := BalancedSchedule(g, rc, target)
		if err != nil {
			return false
		}
		return ValidateSchedule(g, s, rc) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestBalancedScheduleRejectsZeroResource(t *testing.T) {
	g := NewGraph("z")
	a := g.AddInput("a")
	g.MarkOutput(g.AddOp(KindMult, "", a, a))
	if _, err := BalancedSchedule(g, ResourceConstraint{Add: 1, Mult: 0}, 4); err == nil {
		t.Fatal("zero mult units should be rejected")
	}
}
