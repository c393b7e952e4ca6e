package datapath

import (
	"fmt"

	"repro/internal/bitvec"
	"repro/internal/logic"
	"repro/internal/netgen"
)

// fragLocalBase is the ID offset for nodes created on a frag. Local IDs
// must stay positive (netgen builders use -1 as a "no carry-in"
// sentinel) and must never collide with real network IDs, so they start
// far above any realistic node count; replay subtracts the offset and
// adds the network's actual base.
const fragLocalBase = 1 << 30

const (
	fragGate uint8 = iota
	fragLatch
	fragConst
	fragConnect
	fragTag
)

type fragOp struct {
	kind   uint8
	name   string
	fn     *bitvec.TruthTable
	fanins []int // gate fanins, or [q, d] for a latch connection
	flag   bool  // latch init / const value
	shape  string
	lo     int // frag-local macro start (node count, not offset ID)
}

// frag is a recording netgen.NetBuilder: it captures the exact sequence
// of construction calls so they can be replayed onto a real network
// later. Fanins may mix pre-existing global IDs (passed in by the
// caller, e.g. register Q bits) with frag-local IDs returned by the
// frag itself; replay translates the local ones. Frags let per-FU
// sub-netlists be built concurrently and then stitched in serially in
// a deterministic order, so the network does not depend on the worker
// count.
type frag struct {
	n   int // frag-local node count
	ops []fragOp
}

var _ netgen.NetBuilder = (*frag)(nil)

func (f *frag) nextID() int {
	id := fragLocalBase + f.n
	f.n++
	return id
}

func (f *frag) AddGate(name string, fn *bitvec.TruthTable, fanins ...int) int {
	f.ops = append(f.ops, fragOp{kind: fragGate, name: name, fn: fn, fanins: fanins})
	return f.nextID()
}

func (f *frag) AddLatch(name string, init bool) int {
	f.ops = append(f.ops, fragOp{kind: fragLatch, name: name, flag: init})
	return f.nextID()
}

func (f *frag) AddConst(name string, v bool) int {
	f.ops = append(f.ops, fragOp{kind: fragConst, name: name, flag: v})
	return f.nextID()
}

func (f *frag) ConnectLatch(q, d int) {
	f.ops = append(f.ops, fragOp{kind: fragConnect, fanins: []int{q, d}})
}

func (f *frag) NumNodes() int { return f.n }

func (f *frag) TagMacro(name, shape string, lo int) {
	if f.n > lo {
		f.ops = append(f.ops, fragOp{kind: fragTag, name: name, shape: shape, lo: lo})
	}
}

// fragResolve maps a fanin reference to a real node ID given the base
// the frag was replayed at: frag-local IDs shift down to base, global
// IDs pass through.
func fragResolve(base, id int) int {
	if id >= fragLocalBase {
		return base + id - fragLocalBase
	}
	return id
}

// replay appends the recorded construction onto net and returns the
// base ID its local nodes landed at. A frag may be replayed at most
// once: gate fanins are resolved in place (logic.Network retains the
// fanin slice, so replay must hand over a slice it will never touch
// again).
func (f *frag) replay(net *logic.Network) int {
	base := net.NumNodes()
	if base+f.n >= fragLocalBase {
		panic(fmt.Sprintf("datapath: network too large for frag replay (%d nodes)", base+f.n))
	}
	for i := range f.ops {
		op := &f.ops[i]
		switch op.kind {
		case fragGate:
			for j, fi := range op.fanins {
				op.fanins[j] = fragResolve(base, fi)
			}
			net.AddGate(op.name, op.fn, op.fanins...)
		case fragLatch:
			net.AddLatch(op.name, op.flag)
		case fragConst:
			net.AddConst(op.name, op.flag)
		case fragConnect:
			net.ConnectLatch(fragResolve(base, op.fanins[0]), fragResolve(base, op.fanins[1]))
		case fragTag:
			net.TagMacro(op.name, op.shape, base+op.lo)
		}
	}
	return base
}
