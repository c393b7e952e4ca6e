// Package logic implements a gate-level logic network.
//
// A Network is a directed acyclic graph of nodes. Each combinational node
// computes a local Boolean function (a truth table) of its fanins.
// Sequential behaviour is modelled with latches (D flip-flops): a latch
// output acts as a combinational source and a latch input as a sink, so
// the combinational core stays acyclic. This is the common substrate for
// the BLIF front end, the resource-library generators, the cut enumerator,
// the technology mapper, the probability engine, and the simulator.
package logic

import (
	"fmt"

	"repro/internal/bitvec"
)

// Kind classifies a node.
type Kind int

const (
	// KindInput is a primary input.
	KindInput Kind = iota
	// KindConst is a constant 0 or 1 source.
	KindConst
	// KindGate is a combinational node with a local function.
	KindGate
	// KindLatchOut is the Q output of a D flip-flop; a combinational source.
	KindLatchOut
)

func (k Kind) String() string {
	switch k {
	case KindInput:
		return "input"
	case KindConst:
		return "const"
	case KindGate:
		return "gate"
	case KindLatchOut:
		return "latch"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Node is a single vertex of the network. Nodes are created through the
// Network builder methods and identified by dense integer IDs.
type Node struct {
	ID     int
	Name   string
	Kind   Kind
	Fanins []int
	// Func is the local function over Fanins (gate nodes only). Variable i
	// of the truth table corresponds to Fanins[i].
	Func *bitvec.TruthTable
	// ConstVal is the value of a KindConst node.
	ConstVal bool
	// LatchInput is the node feeding the D pin (KindLatchOut only).
	LatchInput int
	// LatchInit is the initial value of the latch.
	LatchInit bool
}

// Network is a gate-level netlist. The zero value is an empty network
// ready for use.
type Network struct {
	Name  string
	Nodes []*Node
	// Inputs lists primary-input node IDs in declaration order.
	Inputs []int
	// Outputs lists primary outputs: named references to driver nodes.
	Outputs []Output
	// Latches lists latch-output node IDs in declaration order.
	Latches []int
	// Macros lists builder-generated sub-netlist ranges (see Macro).
	// Advisory: transforms that renumber nodes (SweepDangling) drop them
	// rather than remapping.
	Macros []Macro

	byName map[string]int
}

// Output names a primary output and the node driving it.
type Output struct {
	Name string
	Node int
}

// NewNetwork returns an empty network with the given model name.
func NewNetwork(name string) *Network {
	return &Network{Name: name, byName: make(map[string]int)}
}

// NumNodes returns the total node count.
func (n *Network) NumNodes() int { return len(n.Nodes) }

// NumGates returns the number of combinational gate nodes.
func (n *Network) NumGates() int {
	c := 0
	for _, nd := range n.Nodes {
		if nd.Kind == KindGate {
			c++
		}
	}
	return c
}

// Node returns the node with the given ID.
func (n *Network) Node(id int) *Node { return n.Nodes[id] }

// FindNode returns the ID of the node with the given name.
func (n *Network) FindNode(name string) (int, bool) {
	id, ok := n.byName[name]
	return id, ok
}

func (n *Network) register(nd *Node) int {
	nd.ID = len(n.Nodes)
	n.Nodes = append(n.Nodes, nd)
	if nd.Name != "" {
		if _, dup := n.byName[nd.Name]; dup {
			panic(fmt.Sprintf("logic: duplicate node name %q", nd.Name))
		}
		n.byName[nd.Name] = nd.ID
	}
	return nd.ID
}

// AddInput creates a primary input node.
func (n *Network) AddInput(name string) int {
	id := n.register(&Node{Name: name, Kind: KindInput})
	n.Inputs = append(n.Inputs, id)
	return id
}

// AddConst creates a constant source node.
func (n *Network) AddConst(name string, v bool) int {
	return n.register(&Node{Name: name, Kind: KindConst, ConstVal: v})
}

// AddGate creates a combinational node computing fn over the fanins.
// Every fanin must already exist; this keeps node IDs topologically
// ordered, which the traversals below rely on.
func (n *Network) AddGate(name string, fn *bitvec.TruthTable, fanins ...int) int {
	if fn.NumVars() != len(fanins) {
		panic(fmt.Sprintf("logic: gate %q: function has %d vars but %d fanins", name, fn.NumVars(), len(fanins)))
	}
	for _, f := range fanins {
		if f < 0 || f >= len(n.Nodes) {
			panic(fmt.Sprintf("logic: gate %q: fanin %d does not exist", name, f))
		}
	}
	return n.register(&Node{Name: name, Kind: KindGate, Fanins: fanins, Func: fn})
}

// AddLatch creates a latch output node. The D input may be connected later
// with ConnectLatch (BLIF allows forward references to latch inputs).
func (n *Network) AddLatch(name string, init bool) int {
	id := n.register(&Node{Name: name, Kind: KindLatchOut, LatchInput: -1, LatchInit: init})
	n.Latches = append(n.Latches, id)
	return id
}

// ConnectLatch wires the D input of the latch with node ID q to input d.
func (n *Network) ConnectLatch(q, d int) {
	nd := n.Nodes[q]
	if nd.Kind != KindLatchOut {
		panic(fmt.Sprintf("logic: node %d is not a latch", q))
	}
	nd.LatchInput = d
}

// MarkOutput declares node id as a primary output with the given name.
func (n *Network) MarkOutput(name string, id int) {
	n.Outputs = append(n.Outputs, Output{Name: name, Node: id})
}

// Check validates structural invariants: fanin IDs in range and strictly
// less than the gate ID (acyclicity by construction), latch inputs
// connected, outputs in range, truth-table arities consistent.
func (n *Network) Check() error {
	for _, nd := range n.Nodes {
		switch nd.Kind {
		case KindGate:
			if nd.Func == nil {
				return fmt.Errorf("logic: gate %d (%s) has no function", nd.ID, nd.Name)
			}
			if nd.Func.NumVars() != len(nd.Fanins) {
				return fmt.Errorf("logic: gate %d (%s): arity mismatch", nd.ID, nd.Name)
			}
			for _, f := range nd.Fanins {
				if f < 0 || f >= len(n.Nodes) {
					return fmt.Errorf("logic: gate %d (%s): fanin %d out of range", nd.ID, nd.Name, f)
				}
				if f >= nd.ID {
					return fmt.Errorf("logic: gate %d (%s): fanin %d not topologically earlier", nd.ID, nd.Name, f)
				}
			}
		case KindLatchOut:
			if nd.LatchInput < 0 || nd.LatchInput >= len(n.Nodes) {
				return fmt.Errorf("logic: latch %d (%s): input unconnected", nd.ID, nd.Name)
			}
		}
	}
	for _, o := range n.Outputs {
		if o.Node < 0 || o.Node >= len(n.Nodes) {
			return fmt.Errorf("logic: output %q references missing node %d", o.Name, o.Node)
		}
	}
	return nil
}

// TopoOrder returns all node IDs in a topological order of the
// combinational graph (sources first). Because AddGate requires fanins to
// exist, ascending ID order is already topological.
func (n *Network) TopoOrder() []int {
	order := make([]int, len(n.Nodes))
	for i := range order {
		order[i] = i
	}
	return order
}

// Levels returns the combinational depth of every node under a unit-delay
// model: sources (inputs, constants, latch outputs) are level 0 and each
// gate is 1 + max fanin level. This is the arrival-time model the glitch
// estimator uses.
func (n *Network) Levels() []int {
	lv := make([]int, len(n.Nodes))
	for _, id := range n.TopoOrder() {
		nd := n.Nodes[id]
		if nd.Kind != KindGate {
			lv[id] = 0
			continue
		}
		max := 0
		for _, f := range nd.Fanins {
			if lv[f] > max {
				max = lv[f]
			}
		}
		lv[id] = max + 1
	}
	return lv
}

// Depth returns the maximum gate level over output drivers and latch
// inputs (the combinational critical depth).
func (n *Network) Depth() int {
	lv := n.Levels()
	d := 0
	consider := func(id int) {
		if lv[id] > d {
			d = lv[id]
		}
	}
	for _, o := range n.Outputs {
		consider(o.Node)
	}
	for _, q := range n.Latches {
		consider(n.Nodes[q].LatchInput)
	}
	return d
}

// FanoutCounts returns, for each node, the number of combinational uses
// (as gate fanin, latch D input, or primary output).
func (n *Network) FanoutCounts() []int {
	fo := make([]int, len(n.Nodes))
	for _, nd := range n.Nodes {
		switch nd.Kind {
		case KindGate:
			for _, f := range nd.Fanins {
				fo[f]++
			}
		case KindLatchOut:
			if nd.LatchInput >= 0 {
				fo[nd.LatchInput]++
			}
		}
	}
	for _, o := range n.Outputs {
		fo[o.Node]++
	}
	return fo
}

// Fanouts returns the explicit fanout adjacency (gate and latch-D edges
// only; primary outputs are not nodes).
func (n *Network) Fanouts() [][]int {
	fo := make([][]int, len(n.Nodes))
	for _, nd := range n.Nodes {
		switch nd.Kind {
		case KindGate:
			for _, f := range nd.Fanins {
				fo[f] = append(fo[f], nd.ID)
			}
		case KindLatchOut:
			if nd.LatchInput >= 0 {
				fo[nd.LatchInput] = append(fo[nd.LatchInput], nd.ID)
			}
		}
	}
	return fo
}

// Stats summarizes a network.
type Stats struct {
	Inputs  int
	Outputs int
	Gates   int
	Latches int
	Depth   int
	// MaxFanin is the widest gate.
	MaxFanin int
}

// Stats computes summary statistics.
func (n *Network) Stats() Stats {
	s := Stats{
		Inputs:  len(n.Inputs),
		Outputs: len(n.Outputs),
		Latches: len(n.Latches),
		Depth:   n.Depth(),
	}
	for _, nd := range n.Nodes {
		if nd.Kind == KindGate {
			s.Gates++
			if len(nd.Fanins) > s.MaxFanin {
				s.MaxFanin = len(nd.Fanins)
			}
		}
	}
	return s
}

func (s Stats) String() string {
	return fmt.Sprintf("inputs=%d outputs=%d gates=%d latches=%d depth=%d maxFanin=%d",
		s.Inputs, s.Outputs, s.Gates, s.Latches, s.Depth, s.MaxFanin)
}

// SweepDangling removes gates that reach no output or latch input, and
// returns a new network plus the old→new ID mapping (-1 for removed).
// Inputs, latches, and constants are always kept so the interface is
// stable.
func (n *Network) SweepDangling() (*Network, []int) {
	live := make([]bool, len(n.Nodes))
	var mark func(int)
	mark = func(id int) {
		if live[id] {
			return
		}
		live[id] = true
		nd := n.Nodes[id]
		for _, f := range nd.Fanins {
			mark(f)
		}
		if nd.Kind == KindLatchOut && nd.LatchInput >= 0 {
			mark(nd.LatchInput)
		}
	}
	for _, o := range n.Outputs {
		mark(o.Node)
	}
	for _, q := range n.Latches {
		mark(q)
	}
	for _, pi := range n.Inputs {
		live[pi] = true
	}

	out := NewNetwork(n.Name)
	remap := make([]int, len(n.Nodes))
	for i := range remap {
		remap[i] = -1
	}
	for _, nd := range n.Nodes {
		if !live[nd.ID] {
			continue
		}
		switch nd.Kind {
		case KindInput:
			remap[nd.ID] = out.AddInput(nd.Name)
		case KindConst:
			remap[nd.ID] = out.AddConst(nd.Name, nd.ConstVal)
		case KindLatchOut:
			remap[nd.ID] = out.AddLatch(nd.Name, nd.LatchInit)
		case KindGate:
			fanins := make([]int, len(nd.Fanins))
			for i, f := range nd.Fanins {
				fanins[i] = remap[f]
			}
			remap[nd.ID] = out.AddGate(nd.Name, nd.Func.Clone(), fanins...)
		}
	}
	for _, q := range n.Latches {
		if remap[q] >= 0 {
			out.ConnectLatch(remap[q], remap[n.Nodes[q].LatchInput])
		}
	}
	for _, o := range n.Outputs {
		out.MarkOutput(o.Name, remap[o.Node])
	}
	return out, remap
}
