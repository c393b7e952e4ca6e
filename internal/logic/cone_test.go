package logic

import (
	"reflect"
	"testing"

	"repro/internal/bitvec"
)

// TestLatchConeGates covers the cone walk on a two-stage structure:
// in -> g0 -> L0 -> g1 -> L1, plus a latch fed directly by another
// latch's Q (no gates in its cone). The walk stops at latch outputs and
// inputs, so g1's cone does not reach back through L0 into g0's, and the
// union lists each cone gate once, ascending.
func TestLatchConeGates(t *testing.T) {
	net := NewNetwork("cones")
	in := net.AddInput("in")
	q0 := net.AddLatch("q0", false)
	q1 := net.AddLatch("q1", false)
	q2 := net.AddLatch("q2", false)
	buf := bitvec.FromFunc(1, func(m uint) bool { return m == 1 })
	g1 := net.AddGate("g1", buf, q0)
	g0 := net.AddGate("g0", buf, in)
	net.ConnectLatch(q0, g0)
	net.ConnectLatch(q1, g1)
	net.ConnectLatch(q2, q1)
	net.MarkOutput("out", q2)

	if got, want := net.LatchConeGates(), []int{g1, g0}; !reflect.DeepEqual(got, want) {
		t.Errorf("LatchConeGates = %v, want %v", got, want)
	}
}

// TestLatchConeGatesSharedGate: a gate feeding two latch D pins (and,
// through its fanin, its own latches' Q) is listed once, its fanin
// cone is included, and a gate no D pin reads is left out.
func TestLatchConeGatesSharedGate(t *testing.T) {
	net := NewNetwork("shared")
	in := net.AddInput("in")
	qa := net.AddLatch("qa", false)
	qb := net.AddLatch("qb", false)
	qc := net.AddLatch("qc", false)
	and := bitvec.FromFunc(2, func(m uint) bool { return m == 3 })
	inv := bitvec.FromFunc(1, func(m uint) bool { return m == 0 })
	n := net.AddGate("n", inv, qa)
	unread := net.AddGate("unread", and, in, qb)
	g := net.AddGate("g", and, n, qc)
	net.ConnectLatch(qa, g)
	net.ConnectLatch(qb, g)
	net.ConnectLatch(qc, qc)
	net.MarkOutput("out", unread)

	if got, want := net.LatchConeGates(), []int{n, g}; !reflect.DeepEqual(got, want) {
		t.Errorf("LatchConeGates = %v, want %v", got, want)
	}
}
