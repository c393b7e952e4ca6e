package cdfg

// Library describes per-class resource latencies in cycles. The paper's
// experiments use a single-cycle library (§6.1) and its future work
// names better multi-cycle support (§7); this reproduction implements
// both. The zero value behaves as the single-cycle library so existing
// schedules keep working.
type Library struct {
	// AddLatency and MultLatency are the cycle counts of the adder and
	// multiplier classes (values below 1 mean 1). Units are
	// non-pipelined by default: an operation occupies its unit for the
	// full latency.
	AddLatency, MultLatency int
	// MultPipelined marks the multiplier class as fully pipelined
	// (initiation interval 1): an operation occupies its unit only at
	// its start step, and operands are captured into the pipeline at
	// the start rather than held for the whole latency.
	MultPipelined bool
}

// SingleCycle returns the paper's library.
func SingleCycle() Library { return Library{AddLatency: 1, MultLatency: 1} }

// Latency returns the latency of an operation kind (at least 1).
func (l Library) Latency(k NodeKind) int {
	v := 1
	switch k {
	case KindAdd, KindSub:
		v = l.AddLatency
	case KindMult:
		v = l.MultLatency
	}
	if v < 1 {
		v = 1
	}
	return v
}

// Completion returns the last step an operation occupies: the value is
// available to consumers from the following step.
func (s *Schedule) Completion(g *Graph, id int) int {
	return s.Step[id] + s.Lib.Latency(g.Nodes[id].Kind) - 1
}

// Occupies reports whether the operation occupies control step t.
func (s *Schedule) Occupies(g *Graph, id, t int) bool {
	return s.Step[id] <= t && t <= s.BusyUntil(g, id)
}

// BusyUntil returns the last step the operation occupies its unit: the
// start step for pipelined units (new work may enter every cycle), the
// completion step otherwise.
func (s *Schedule) BusyUntil(g *Graph, id int) int {
	if g.Nodes[id].Kind == KindMult && s.Lib.MultPipelined {
		return s.Step[id]
	}
	return s.Completion(g, id)
}

// OperandHold returns how many steps an operation needs its operands
// stable: one step for pipelined units (captured into the pipeline),
// the full latency otherwise.
func (l Library) OperandHold(k NodeKind) int {
	if k == KindMult && l.MultPipelined {
		return 1
	}
	return l.Latency(k)
}
