package workload

import (
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/cdfg"
)

// scheduleHash fingerprints everything a schedule carries: every start
// step, the length and the resource library it was built for.
func scheduleHash(s *cdfg.Schedule) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%v %d %+v", s.Step, s.Len, s.Lib)
	return h.Sum64()
}

// scheduleKernels are the hand-written kernels at the sizes cdfggen
// emits them.
var scheduleKernels = []struct {
	name  string
	build func() *cdfg.Graph
}{
	{"dct8", DCT8},
	{"fir16", func() *cdfg.Graph { return FIR(16) }},
	{"butterfly3", func() *cdfg.Graph { return Butterfly(3) }},
	{"iir2", func() *cdfg.Graph { return IIR(2) }},
	{"matmul3", func() *cdfg.Graph { return MatMul(3) }},
}

// TestSchedulesPinned pins the exact schedules every scheduler entry
// point produces: the balanced schedules of the paper benchmarks, list
// schedules of the scale tiers and kernels, and latency-aware list
// schedules of the kernels under a 2-cycle and a pipelined multiplier.
// Every downstream number (registers, bindings, LUTs, power) and every
// schedule-stage cache key is a function of these, so a scheduler
// refactor must leave them bit-identical.
func TestSchedulesPinned(t *testing.T) {
	got := map[string]uint64{}
	record := func(name string, s *cdfg.Schedule, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got[name] = scheduleHash(s)
	}
	for _, p := range Benchmarks {
		s, err := Schedule(p, Generate(p))
		record("balanced/"+p.Name, s, err)
	}
	for _, p := range ScaleBenchmarks {
		s, err := cdfg.ListSchedule(p.Build(), p.RC)
		record("list/"+p.Name, s, err)
	}
	rc := cdfg.ResourceConstraint{Add: 2, Mult: 2}
	libs := []struct {
		name string
		lib  cdfg.Library
	}{
		{"mult2", cdfg.Library{AddLatency: 1, MultLatency: 2}},
		{"mult3pipe", cdfg.Library{AddLatency: 1, MultLatency: 3, MultPipelined: true}},
	}
	for _, k := range scheduleKernels {
		s, err := cdfg.ListSchedule(k.build(), rc)
		record("list/"+k.name, s, err)
		for _, l := range libs {
			s, err := cdfg.ListScheduleLat(k.build(), rc, l.lib)
			record("lat-"+l.name+"/"+k.name, s, err)
		}
	}

	pinned := map[string]uint64{
		"balanced/chem":            0xa18407fe1286342,
		"balanced/dir":             0xfa57d96992afe860,
		"balanced/honda":           0x763c1200d2b822ef,
		"balanced/mcm":             0xe5c0a88639e5945c,
		"balanced/pr":              0xc80b7a8ee8dde73e,
		"balanced/steam":           0xe2845807c8ad427d,
		"balanced/wang":            0xff91f56a2dfdbf89,
		"lat-mult2/butterfly3":     0xf54a82a50479bfd9,
		"lat-mult2/dct8":           0x2035e2db25577377,
		"lat-mult2/fir16":          0x508f0396e50acadd,
		"lat-mult2/iir2":           0x99e3c2b48ff96f1c,
		"lat-mult2/matmul3":        0x3324737e2f590610,
		"lat-mult3pipe/butterfly3": 0xcb2c7ecaec6fd8fc,
		"lat-mult3pipe/dct8":       0xbaea4826bbc2f95a,
		"lat-mult3pipe/fir16":      0xc19ed4a8b2b09661,
		"lat-mult3pipe/iir2":       0xa1b2a7f7d82adbd0,
		"lat-mult3pipe/matmul3":    0x8d621241b4c245c2,
		"list/butterfly3":          0x6ca7b26764db50eb,
		"list/ctrl-10k":            0x320f0165977acc82,
		"list/ctrl-2k":             0x72a4dc8534accb56,
		"list/dct8":                0x2cf85d167f4b3453,
		"list/dsp-2k":              0x795c0a4e35c21516,
		"list/fft-4k":              0x105e3aef879c1879,
		"list/fir16":               0xdc7cde727408fdff,
		"list/iir2":                0xd49ddd13782c59e0,
		"list/matmul3":             0x356e503adae1759,
		"list/mm-4k":               0x7355aac7902a3807,
	}
	for name, h := range got {
		want, ok := pinned[name]
		if !ok {
			t.Errorf("%s: no pin (schedule hash %#x)", name, h)
			continue
		}
		if h != want {
			t.Errorf("%s: schedule hash %#x, want %#x — the scheduler's output changed", name, h, want)
		}
	}
	if len(pinned) != len(got) {
		t.Errorf("%d schedules pinned, %d computed", len(pinned), len(got))
	}
}
