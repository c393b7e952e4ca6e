package sim

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/logic"
)

// FuzzVCD throws arbitrary text at the VCD reader. ParseVCD must return
// an error for anything malformed — never panic — and any dump it does
// accept must satisfy the type's invariants (non-negative counters,
// per-signal transitions only for declared signals).
func FuzzVCD(f *testing.F) {
	f.Add("$timescale 1ns $end\n$scope module top $end\n" +
		"$var wire 1 ! a $end\n$var wire 1 \" y $end\n" +
		"$upscope $end\n$enddefinitions $end\n" +
		"$dumpvars\n0!\n0\"\n$end\n" +
		"#0\n1!\n#1\n1\"\n#100\n0!\n#101\n0\"\n")
	f.Add("$var wire 1 ! a $end\n$enddefinitions $end\n#0\nx!\n#5\n1!\n#9\nz!\n")
	f.Add("$comment junk $end\n$enddefinitions $end\n")
	f.Add("#0\n1!\n") // value change for an undeclared code
	f.Add("$var wire 8 ! bus $end\n$enddefinitions $end\n#0\nb101 !\n")
	f.Fuzz(func(t *testing.T, text string) {
		d, err := ParseVCD(strings.NewReader(text))
		if err != nil {
			return
		}
		if d.EndTime < 0 || d.Changes < 0 {
			t.Fatalf("negative counters: end=%d changes=%d", d.EndTime, d.Changes)
		}
		declared := make(map[string]bool, len(d.Signals))
		for _, s := range d.Signals {
			declared[s] = true
		}
		var total int64
		for name, n := range d.Transitions {
			if !declared[name] {
				t.Fatalf("transitions for undeclared signal %q", name)
			}
			if n < 0 {
				t.Fatalf("negative transition count for %q", name)
			}
			total += n
		}
		if total > d.Changes {
			t.Fatalf("more transitions (%d) than value changes (%d)", total, d.Changes)
		}
	})
}

// fuzzBytes hands out fuzz input one byte at a time, then zeros.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// fuzzNetwork decodes a small latched network from the fuzz input: 1–4
// inputs, 0–3 latches, a constant, and 1–24 gates of 0–8 inputs whose
// fanins and truth-table bits come from the input, then the latch D
// nodes (any node, forward references included).
func fuzzNetwork(b *fuzzBytes) *logic.Network {
	net := logic.NewNetwork("fuzz")
	for i, n := 0, 1+b.next()%4; i < n; i++ {
		net.AddInput(fmt.Sprintf("i%d", i))
	}
	var qs []int
	for i, n := 0, b.next()%4; i < n; i++ {
		qs = append(qs, net.AddLatch(fmt.Sprintf("q%d", i), b.next()%2 == 1))
	}
	net.AddConst("c", b.next()%2 == 1)
	for i, n := 0, 1+b.next()%24; i < n; i++ {
		k := b.next() % 9
		fanins := make([]int, k)
		for j := range fanins {
			fanins[j] = b.next() % net.NumNodes()
		}
		tt := bitvec.New(k)
		var byt int
		for m := 0; m < tt.Size(); m++ {
			if m%8 == 0 {
				byt = b.next()
			}
			tt.Set(uint(m), byt>>(m%8)&1 == 1)
		}
		net.AddGate(fmt.Sprintf("g%d", i), tt, fanins...)
	}
	for _, q := range qs {
		net.ConnectLatch(q, b.next()%net.NumNodes())
	}
	net.MarkOutput("out", net.NumNodes()-1)
	return net
}

// FuzzWordSim decodes a small latched network and its stimulus from the
// fuzz input and requires the word engine — at 1 and 3 workers, 1 and 4
// lane groups per block — to reproduce the scalar engine's Counts and
// NodeTransitions exactly.
func FuzzWordSim(f *testing.F) {
	f.Add([]byte{3, 2, 1, 0, 1, 12, 4, 0, 1, 2, 3, 0x96, 0x69, 2, 4, 5, 0xe8, 6, 5, 6, 7, 8, 9, 10, 0xff, 0x01, 0x7e, 0x81}, uint16(200), int64(1))
	f.Add([]byte{1, 3, 0, 1, 1, 0, 5, 8, 0, 1, 2, 3, 4, 5, 6, 7, 0x5a, 0xa5, 0x3c, 0xc3, 0x0f, 0xf0, 0x33, 0xcc, 0x55, 0xaa, 0x99, 0x66, 0x11, 0x22, 0x44, 0x88, 0x77, 0xee, 0xdd, 0xbb, 0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0xfe, 0xfd, 0xfb, 0xf7, 9, 10, 11}, uint16(65), int64(7))
	f.Add([]byte{0, 0, 0, 0, 0}, uint16(1), int64(0))
	// A constant-1 gate of no inputs ANDed with an input.
	f.Add([]byte{1, 0, 0, 1, 0, 1, 2, 3, 0, 8, 1}, uint16(100), int64(3))
	f.Fuzz(func(t *testing.T, data []byte, cycles uint16, seed int64) {
		b := fuzzBytes(data)
		net := fuzzNetwork(&b)
		model := DelayModel(b.next() % 2)
		vectors := RandomVectors(len(net.Inputs), 1+int(cycles)%300, seed)
		requireSameRun(t, net, model, seed, vectors, "fuzz", []int{1, 3}, []int{1, 4})
	})
}
