package datapath

import (
	"fmt"
	"testing"

	"repro/internal/cdfg"
	"repro/internal/logic"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// netFingerprint hashes everything observable about a network — node
// kinds, names, truth tables, fanins, latch wiring, constants, inputs,
// outputs, and macro tags — so equal fingerprints mean byte-identical
// netlists.
func netFingerprint(net *logic.Network) string {
	h := pipeline.NewHasher()
	h.Str(net.Name).Int(len(net.Nodes))
	for _, nd := range net.Nodes {
		h.Int(nd.ID).Int(int(nd.Kind)).Str(nd.Name).Ints(nd.Fanins)
		h.Bool(nd.ConstVal).Int(nd.LatchInput).Bool(nd.LatchInit)
		if nd.Func != nil {
			h.Int(nd.Func.NumVars())
			for _, w := range nd.Func.Words() {
				h.U64(w)
			}
		}
	}
	h.Ints(net.Inputs).Ints(net.Latches)
	for _, o := range net.Outputs {
		h.Str(o.Name).Int(o.Node)
	}
	h.Int(len(net.Macros))
	for _, m := range net.Macros {
		h.Str(m.Name).Str(m.Shape).Int(m.Lo).Int(m.Hi)
	}
	return h.Sum()
}

// TestElaborateJobsByteIdentical proves the tape-replay parallel
// elaboration contract: at every worker count the produced network —
// IDs, names, latch wiring, macro tags, mux statistics — is identical
// to the one-worker build. Covers an add/sub-mixed graph (butterfly), a
// mult-heavy one (DCT), and a benchmark-scale profile.
func TestElaborateJobsByteIdentical(t *testing.T) {
	cases := []struct {
		name  string
		g     *cdfg.Graph
		rc    cdfg.ResourceConstraint
		width int
	}{
		{"butterfly", workload.Butterfly(2), cdfg.ResourceConstraint{Add: 4, Mult: 2}, 5},
		{"dct8", workload.DCT8(), cdfg.ResourceConstraint{Add: 3, Mult: 4}, 4},
	}
	if !testing.Short() {
		p, _ := workload.ByName("pr")
		cases = append(cases, struct {
			name  string
			g     *cdfg.Graph
			rc    cdfg.ResourceConstraint
			width int
		}{"pr", workload.Generate(p), p.RC, 8})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, rb, res := bindWithHLPower(t, tc.g, tc.rc)
			ref, err := ElaborateArchJobs(tc.g, s, rb, res, tc.width, nil, 1)
			if err != nil {
				t.Fatal(err)
			}
			refFP := netFingerprint(ref.Net)
			if len(ref.Net.Macros) == 0 {
				t.Fatalf("%s: elaboration produced no macro tags", tc.name)
			}
			for _, jobs := range []int{2, 3, 8} {
				d, err := ElaborateArchJobs(tc.g, s, rb, res, tc.width, nil, jobs)
				if err != nil {
					t.Fatalf("jobs=%d: %v", jobs, err)
				}
				if fp := netFingerprint(d.Net); fp != refFP {
					t.Fatalf("jobs=%d: network differs from the one-worker build", jobs)
				}
				if d.Muxes != ref.Muxes {
					t.Fatalf("jobs=%d: mux report %+v != %+v", jobs, d.Muxes, ref.Muxes)
				}
				if fmt.Sprint(d.CounterBits) != fmt.Sprint(ref.CounterBits) ||
					fmt.Sprint(d.OutputBuses) != fmt.Sprint(ref.OutputBuses) {
					t.Fatalf("jobs=%d: design metadata differs", jobs)
				}
			}
		})
	}
}

// TestElaborateJobsFunctional re-runs the functional oracle on a
// parallel-elaborated design, guarding against a frag-replay bug that
// happened to preserve fingerprint-visible structure but broke wiring.
func TestElaborateJobsFunctional(t *testing.T) {
	g := workload.Butterfly(2)
	s, rb, res := bindWithHLPower(t, g, cdfg.ResourceConstraint{Add: 4, Mult: 2})
	d, err := ElaborateArchJobs(g, s, rb, res, 5, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	verifyDesign(t, g, d, 10, 11)
}
