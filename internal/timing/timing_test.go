package timing

import (
	"math"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/logic"
	"repro/internal/mapper"
	"repro/internal/netgen"
)

// TestFromArchCycloneII pins the Cyclone II delay model to its
// historical constants exactly.
func TestFromArchCycloneII(t *testing.T) {
	want := Model{LUTDelayNs: 0.45, WirePerFanoutNs: 0.15, ClockOverheadNs: 3.0}
	if got := FromArch(arch.CycloneII()); got != want {
		t.Fatalf("FromArch(CycloneII) = %+v, want %+v", got, want)
	}
}

func TestChainArrival(t *testing.T) {
	// A 3-inverter chain with fanout 1 everywhere: arrival = k * (cell + wire).
	net := logic.NewNetwork("chain")
	cur := net.AddInput("a")
	var ids []int
	for i := 0; i < 3; i++ {
		cur = net.AddGate("", logic.TTNot(), cur)
		ids = append(ids, cur)
	}
	net.MarkOutput("y", cur)
	m := Model{LUTDelayNs: 1, WirePerFanoutNs: 0.5, ClockOverheadNs: 2}
	an := Analyze(net, m)
	per := 1.5
	for i, id := range ids {
		want := float64(i+1) * per
		if math.Abs(an.Arrival[id]-want) > 1e-9 {
			t.Fatalf("node %d arrival %.2f, want %.2f", id, an.Arrival[id], want)
		}
	}
	if math.Abs(an.CriticalNs-3*per) > 1e-9 {
		t.Fatalf("critical %.2f, want %.2f", an.CriticalNs, 3*per)
	}
	if math.Abs(an.PeriodNs-(3*per+2)) > 1e-9 {
		t.Fatalf("period %.2f", an.PeriodNs)
	}
	// The whole chain is the critical path (plus the PI source).
	if len(an.CriticalPath) != 4 {
		t.Fatalf("critical path has %d nodes, want 4", len(an.CriticalPath))
	}
}

func TestFanoutLoadsDriver(t *testing.T) {
	// A driver with 4 fanouts is slower than one with 1.
	build := func(fanouts int) float64 {
		net := logic.NewNetwork("f")
		a := net.AddInput("a")
		drv := net.AddGate("drv", logic.TTNot(), a)
		for i := 0; i < fanouts; i++ {
			s := net.AddGate("", logic.TTNot(), drv)
			net.MarkOutput("y"+string(rune('0'+i)), s)
		}
		an := Analyze(net, FromArch(arch.CycloneII()))
		return an.Arrival[drv]
	}
	if build(4) <= build(1) {
		t.Fatal("fanout load should slow the driver")
	}
}

func TestLatchBoundaries(t *testing.T) {
	// Latch D inputs are sinks; latch outputs are sources.
	net := logic.NewNetwork("seq")
	a := net.AddInput("a")
	q := net.AddLatch("q", false)
	g1 := net.AddGate("g1", logic.TTAnd2(), a, q)
	net.ConnectLatch(q, g1)
	g2 := net.AddGate("g2", logic.TTNot(), q)
	net.MarkOutput("y", g2)
	an := Analyze(net, FromArch(arch.CycloneII()))
	if an.Arrival[q] != 0 {
		t.Fatal("latch output must be a timing source")
	}
	if an.CriticalNs <= 0 {
		t.Fatal("no critical delay found")
	}
}

func TestAnalyzeMappedMultiplier(t *testing.T) {
	net := netgen.MultiplierNetwork(8)
	res, err := mapper.Map(net, mapper.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	an := Analyze(res.Mapped, FromArch(arch.CycloneII()))
	if an.CriticalNs <= 0 {
		t.Fatal("no delay on a multiplier?")
	}
	// The critical path must be contiguous (each node a fanin of the next).
	for i := 1; i < len(an.CriticalPath); i++ {
		nd := res.Mapped.Node(an.CriticalPath[i])
		found := false
		for _, f := range nd.Fanins {
			if f == an.CriticalPath[i-1] {
				found = true
			}
		}
		if !found {
			t.Fatalf("critical path broken between %d and %d", an.CriticalPath[i-1], an.CriticalPath[i])
		}
	}
	// Period grows monotonically with depth-proportional critical delay
	// and the report names the path.
	rep := an.Report(res.Mapped)
	if !strings.Contains(rep, "critical path") || !strings.Contains(rep, "ns") {
		t.Fatalf("report malformed:\n%s", rep)
	}
}
