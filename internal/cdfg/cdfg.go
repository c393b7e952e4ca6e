// Package cdfg implements the scheduled control/data-flow graphs that
// are the input to high-level binding (paper §3). Nodes are primary
// inputs or arithmetic operations (additions/subtractions and
// multiplications — the two classes present in the paper's
// benchmarks); edges carry values. The package provides ASAP/ALAP and
// resource-constrained list scheduling under a resource Library (the
// zero Library is the paper's single-cycle one), lifetime analysis for
// register binding, validation, and DOT export.
package cdfg

import (
	"fmt"
	"strings"

	"repro/internal/netgen"
)

// NodeKind classifies a CDFG node.
type NodeKind int

const (
	// KindInput is a primary input value.
	KindInput NodeKind = iota
	// KindAdd is a two-operand addition.
	KindAdd
	// KindSub is a two-operand subtraction (same FU class as add).
	KindSub
	// KindMult is a two-operand multiplication.
	KindMult
)

func (k NodeKind) String() string {
	switch k {
	case KindInput:
		return "input"
	case KindAdd:
		return "add"
	case KindSub:
		return "sub"
	case KindMult:
		return "mult"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// IsOp reports whether the kind is an operation (not an input).
func (k NodeKind) IsOp() bool { return k != KindInput }

// FUClass maps an operation kind to the functional-unit class that can
// execute it. Additions and subtractions share the adder class.
func (k NodeKind) FUClass() netgen.FUKind {
	switch k {
	case KindAdd, KindSub:
		return netgen.FUAdd
	case KindMult:
		return netgen.FUMult
	}
	panic(fmt.Sprintf("cdfg: kind %v has no FU class", k))
}

// Node is one CDFG vertex. Operations have exactly two arguments
// (earlier node IDs); the produced value is identified with the node ID.
type Node struct {
	ID   int
	Name string
	Kind NodeKind
	Args []int
}

// Graph is a data-flow graph. Build with NewGraph/AddInput/AddOp.
type Graph struct {
	Name    string
	Nodes   []*Node
	Inputs  []int
	Outputs []int // node IDs whose values leave the design
}

// NewGraph returns an empty graph.
func NewGraph(name string) *Graph { return &Graph{Name: name} }

// AddInput creates a primary-input node.
func (g *Graph) AddInput(name string) int {
	id := len(g.Nodes)
	g.Nodes = append(g.Nodes, &Node{ID: id, Name: name, Kind: KindInput})
	g.Inputs = append(g.Inputs, id)
	return id
}

// AddOp creates an operation node consuming two earlier values.
func (g *Graph) AddOp(kind NodeKind, name string, a, b int) int {
	if !kind.IsOp() {
		panic("cdfg: AddOp requires an operation kind")
	}
	if a < 0 || a >= len(g.Nodes) || b < 0 || b >= len(g.Nodes) {
		panic(fmt.Sprintf("cdfg: op %q: argument out of range", name))
	}
	id := len(g.Nodes)
	g.Nodes = append(g.Nodes, &Node{ID: id, Name: name, Kind: kind, Args: []int{a, b}})
	return id
}

// MarkOutput flags a node's value as a primary output.
func (g *Graph) MarkOutput(id int) {
	g.Outputs = append(g.Outputs, id)
}

// Ops returns the operation node IDs in topological (ID) order.
func (g *Graph) Ops() []int {
	var ops []int
	for _, n := range g.Nodes {
		if n.Kind.IsOp() {
			ops = append(ops, n.ID)
		}
	}
	return ops
}

// Consumers returns, for every node, the operation nodes reading its value.
func (g *Graph) Consumers() [][]int {
	out := make([][]int, len(g.Nodes))
	for _, n := range g.Nodes {
		for _, a := range n.Args {
			out[a] = append(out[a], n.ID)
		}
	}
	return out
}

// Stats mirrors the paper's Table 1 benchmark profile.
type Stats struct {
	PIs, POs, Adds, Mults, Edges int
}

// Stats computes the Table 1 profile: adds include subtractions; edges
// count every value use (operation arguments) plus primary outputs.
func (g *Graph) Stats() Stats {
	s := Stats{PIs: len(g.Inputs), POs: len(g.Outputs)}
	for _, n := range g.Nodes {
		switch n.Kind {
		case KindAdd, KindSub:
			s.Adds++
		case KindMult:
			s.Mults++
		}
		s.Edges += len(n.Args)
	}
	s.Edges += len(g.Outputs)
	return s
}

// Validate checks structural sanity: args precede uses, ops are binary,
// outputs exist, and every non-output value has at least one consumer
// (no dead operations).
func (g *Graph) Validate() error {
	isOutput := make(map[int]bool)
	for _, o := range g.Outputs {
		if o < 0 || o >= len(g.Nodes) {
			return fmt.Errorf("cdfg %s: output %d out of range", g.Name, o)
		}
		isOutput[o] = true
	}
	consumers := g.Consumers()
	for _, n := range g.Nodes {
		if n.Kind.IsOp() {
			if len(n.Args) != 2 {
				return fmt.Errorf("cdfg %s: op %d is not binary", g.Name, n.ID)
			}
			for _, a := range n.Args {
				if a >= n.ID {
					return fmt.Errorf("cdfg %s: op %d uses later value %d", g.Name, n.ID, a)
				}
			}
			if len(consumers[n.ID]) == 0 && !isOutput[n.ID] {
				return fmt.Errorf("cdfg %s: op %d (%s) is dead", g.Name, n.ID, n.Name)
			}
		}
	}
	return nil
}

// DOT renders the graph in Graphviz format, one rank per control step if
// a schedule is supplied (may be nil).
func (g *Graph) DOT(sched *Schedule) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n  rankdir=TB;\n", g.Name)
	for _, n := range g.Nodes {
		label := n.Name
		if label == "" {
			label = fmt.Sprintf("%s%d", n.Kind, n.ID)
		}
		shape := "ellipse"
		if n.Kind == KindInput {
			shape = "box"
		}
		extra := ""
		if sched != nil && n.Kind.IsOp() {
			extra = fmt.Sprintf("\\ncstep %d", sched.Step[n.ID])
		}
		fmt.Fprintf(&b, "  n%d [label=\"%s%s\" shape=%s];\n", n.ID, label, extra, shape)
	}
	for _, n := range g.Nodes {
		for _, a := range n.Args {
			fmt.Fprintf(&b, "  n%d -> n%d;\n", a, n.ID)
		}
	}
	for _, o := range g.Outputs {
		fmt.Fprintf(&b, "  out%d [label=\"out\" shape=diamond];\n  n%d -> out%d;\n", o, o, o)
	}
	b.WriteString("}\n")
	return b.String()
}
