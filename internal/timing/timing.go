// Package timing implements static timing analysis over mapped LUT
// networks: arrival times under a LUT + fanout-loaded wire delay model,
// critical-path extraction, and multi-cycle clock periods. It refines
// the depth-only clock-period estimate in internal/power with the
// per-node detail a Quartus timing report provides (§6.1 runs full
// timing analysis as part of the flow), for cmd/mapnet -timing and
// examples/multicycle.
package timing

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/arch"
	"repro/internal/logic"
)

// Model holds the delay constants.
type Model struct {
	// LUTDelayNs is the intrinsic LUT cell delay.
	LUTDelayNs float64
	// WirePerFanoutNs models routing load. High-fanout nets are buffered
	// by the routing fabric, so the load grows logarithmically: a driver
	// with fanout f pays WirePerFanoutNs * (1 + log2(f)).
	WirePerFanoutNs float64
	// ClockOverheadNs covers clock-to-Q, setup, and skew.
	ClockOverheadNs float64
}

// FromArch derives the delay model from a target architecture: the
// arch's per-level LUT+routing delay splits evenly between the cell and
// the wire load of a nominal fanout-of-4 driver (1+log2(4) = 3 wire
// units), and the clock overhead carries over. For Cyclone II that is
// 0.45 ns per cell, 0.15 ns per wire unit and 3.0 ns overhead.
func FromArch(t arch.Target) Model {
	return Model{
		LUTDelayNs:      t.LUTDelayNs / 2,
		WirePerFanoutNs: t.LUTDelayNs / 6,
		ClockOverheadNs: t.ClockOverheadNs,
	}
}

// Analysis is a completed timing analysis.
type Analysis struct {
	// Arrival is the worst-case arrival time (ns) at each node's output.
	Arrival []float64
	// CriticalPath lists node IDs from a source to the critical sink.
	CriticalPath []int
	// CritFanin records, per node, the fanin on its worst arrival path
	// (-1 for sources); PathTo reconstructs any node's critical path.
	CritFanin []int
	// CriticalNs is the worst combinational delay.
	CriticalNs float64
	// PeriodNs is the achievable clock period (critical + overhead).
	PeriodNs float64
}

// Analyze runs STA on the combinational view of the network.
func Analyze(net *logic.Network, m Model) *Analysis {
	n := net.NumNodes()
	a := &Analysis{Arrival: make([]float64, n)}
	fanouts := net.FanoutCounts()
	// Output delay of a node once it computes: cell + buffered wire load.
	outDelay := func(id int) float64 {
		fo := fanouts[id]
		if fo < 1 {
			fo = 1
		}
		return m.LUTDelayNs + (1+math.Log2(float64(fo)))*m.WirePerFanoutNs
	}
	critFanin := make([]int, n)
	for i := range critFanin {
		critFanin[i] = -1
	}
	a.CritFanin = critFanin
	for _, id := range net.TopoOrder() {
		nd := net.Node(id)
		if nd.Kind != logic.KindGate {
			a.Arrival[id] = 0
			continue
		}
		worst := 0.0
		pick := -1
		for _, f := range nd.Fanins {
			if a.Arrival[f] >= worst {
				worst = a.Arrival[f]
				pick = f
			}
		}
		a.Arrival[id] = worst + outDelay(id)
		critFanin[id] = pick
	}

	// Sinks: primary outputs and latch D inputs.
	sink := -1
	for _, o := range net.Outputs {
		if a.Arrival[o.Node] > a.CriticalNs {
			a.CriticalNs = a.Arrival[o.Node]
			sink = o.Node
		}
	}
	for _, q := range net.Latches {
		d := net.Node(q).LatchInput
		if a.Arrival[d] > a.CriticalNs {
			a.CriticalNs = a.Arrival[d]
			sink = d
		}
	}
	a.PeriodNs = a.CriticalNs + m.ClockOverheadNs
	a.CriticalPath = a.PathTo(sink)
	return a
}

// Report renders a human-readable timing summary with the named
// critical path.
func (a *Analysis) Report(net *logic.Network) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "critical delay %.2f ns, period %.2f ns\n", a.CriticalNs, a.PeriodNs)
	sb.WriteString("critical path:\n")
	for _, id := range a.CriticalPath {
		nd := net.Node(id)
		name := nd.Name
		if name == "" {
			name = fmt.Sprintf("n%d", id)
		}
		fmt.Fprintf(&sb, "  %-30s %-6s arrival %.2f ns\n", name, nd.Kind, a.Arrival[id])
	}
	return sb.String()
}

// PathTo reconstructs the worst arrival path ending at the given node,
// source first.
func (a *Analysis) PathTo(id int) []int {
	var rev []int
	for cur := id; cur >= 0; cur = a.CritFanin[cur] {
		rev = append(rev, cur)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// PeriodWithAllowance computes the clock period when each register/output
// sink may take allowance(sink) clock cycles to settle (multi-cycle path
// constraints): sinks with allowance k contribute arrival/k. The sink
// set is primary-output drivers plus latch D inputs; allowance is
// consulted per sink node ID and clamps below at 1.
func PeriodWithAllowance(net *logic.Network, an *Analysis, m Model, allowance func(sink int) int) float64 {
	worst := 0.0
	consider := func(id int) {
		k := 1
		if allowance != nil {
			if v := allowance(id); v > 1 {
				k = v
			}
		}
		if c := an.Arrival[id] / float64(k); c > worst {
			worst = c
		}
	}
	for _, o := range net.Outputs {
		consider(o.Node)
	}
	for _, q := range net.Latches {
		consider(net.Node(q).LatchInput)
	}
	return worst + m.ClockOverheadNs
}
