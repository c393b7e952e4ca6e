package logic

// LatchConeGates returns the gates in the transitive fanin of any latch
// D pin — the only logic that stands between one clock cycle's latch
// state and the next — as one ascending (topological) list. The
// depth-first walk from each D pin stops at inputs, constants, and latch
// outputs; a gate shared by several cones is listed once.
func (n *Network) LatchConeGates() []int {
	in := make([]bool, n.NumNodes())
	var stack []int
	for _, q := range n.Latches {
		stack = append(stack, n.Node(q).LatchInput)
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nd := n.Node(id)
		if nd.Kind != KindGate || in[id] {
			continue
		}
		in[id] = true
		stack = append(stack, nd.Fanins...)
	}
	var gates []int
	for id, ok := range in {
		if ok {
			gates = append(gates, id)
		}
	}
	return gates
}
