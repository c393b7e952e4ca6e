package workload

import (
	"testing"

	"repro/internal/cdfg"
)

func TestProfilesMatchTable1(t *testing.T) {
	for _, p := range Benchmarks {
		g := Generate(p)
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		st := g.Stats()
		if st.PIs != p.PIs {
			t.Fatalf("%s: PIs = %d, want %d", p.Name, st.PIs, p.PIs)
		}
		if st.POs != p.POs {
			t.Fatalf("%s: POs = %d, want %d", p.Name, st.POs, p.POs)
		}
		if st.Adds != p.Adds {
			t.Fatalf("%s: Adds = %d, want %d", p.Name, st.Adds, p.Adds)
		}
		if st.Mults != p.Mults {
			t.Fatalf("%s: Mults = %d, want %d", p.Name, st.Mults, p.Mults)
		}
		// Edge counts land near the paper's (binary ops: 2 per op + POs).
		want := 2*(p.Adds+p.Mults) + p.POs
		if st.Edges != want {
			t.Fatalf("%s: Edges = %d, want %d", p.Name, st.Edges, want)
		}
		// The paper's Table 1 edge counts are higher than 2*ops + POs
		// (they include I/O or register-transfer edges binary-op dataflow
		// graphs do not have), so PaperEdges stays informational only.
		if st.Edges > p.PaperEdges {
			t.Fatalf("%s: edge count %d exceeds the paper's %d", p.Name, st.Edges, p.PaperEdges)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p, _ := ByName("pr")
	g1 := Generate(p)
	g2 := Generate(p)
	if len(g1.Nodes) != len(g2.Nodes) {
		t.Fatal("node counts differ")
	}
	for i := range g1.Nodes {
		a, b := g1.Nodes[i], g2.Nodes[i]
		if a.Kind != b.Kind || len(a.Args) != len(b.Args) {
			t.Fatal("generation not deterministic")
		}
		for j := range a.Args {
			if a.Args[j] != b.Args[j] {
				t.Fatal("generation not deterministic")
			}
		}
	}
}

func TestBenchmarksSchedulable(t *testing.T) {
	for _, p := range Benchmarks {
		g := Generate(p)
		s, err := cdfg.ListSchedule(g, p.RC)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if err := cdfg.ValidateSchedule(g, s, p.RC); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		t.Logf("%s: %d csteps under rc={add:%d mult:%d}", p.Name, s.Len, p.RC.Add, p.RC.Mult)
	}
}

func TestByName(t *testing.T) {
	if _, ok := ByName("chem"); !ok {
		t.Fatal("chem missing")
	}
	if _, ok := ByName("nope"); ok {
		t.Fatal("unexpected benchmark")
	}
}

func TestDCT8Shape(t *testing.T) {
	g := DCT8()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	st := g.Stats()
	if st.Mults != 64 || st.Adds != 56 || st.POs != 8 || st.PIs != 72 {
		t.Fatalf("dct8 stats: %+v", st)
	}
}

func TestFIRShape(t *testing.T) {
	for _, taps := range []int{1, 2, 7, 16} {
		g := FIR(taps)
		if err := g.Validate(); err != nil {
			t.Fatalf("fir%d: %v", taps, err)
		}
		st := g.Stats()
		if st.Mults != taps || st.Adds != taps-1 {
			t.Fatalf("fir%d stats: %+v", taps, st)
		}
	}
}

func TestButterflyShape(t *testing.T) {
	g := Butterfly(3) // 8-point
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	st := g.Stats()
	// 3 stages x 4 butterflies x (1 mult + 1 add + 1 sub).
	if st.Mults != 12 || st.Adds != 24 {
		t.Fatalf("butterfly stats: %+v", st)
	}
	if st.POs != 8 {
		t.Fatalf("butterfly POs = %d", st.POs)
	}
	// Subtractions present (non-commutative port handling downstream).
	subs := 0
	for _, n := range g.Nodes {
		if n.Kind == cdfg.KindSub {
			subs++
		}
	}
	if subs != 12 {
		t.Fatalf("butterfly subs = %d, want 12", subs)
	}
}

func TestKernelsSchedulable(t *testing.T) {
	for _, g := range []*cdfg.Graph{DCT8(), FIR(8), Butterfly(3)} {
		rc := cdfg.ResourceConstraint{Add: 2, Mult: 2}
		s, err := cdfg.ListSchedule(g, rc)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		if err := cdfg.ValidateSchedule(g, s, rc); err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
	}
}

func TestIIRShape(t *testing.T) {
	g := IIR(3)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	st := g.Stats()
	// Per section: 5 mults, 2 adds, 2 subs.
	if st.Mults != 15 || st.Adds != 12 {
		t.Fatalf("iir3 stats: %+v", st)
	}
	subs := 0
	for _, n := range g.Nodes {
		if n.Kind == cdfg.KindSub {
			subs++
		}
	}
	if subs != 6 {
		t.Fatalf("iir3 subs = %d, want 6", subs)
	}
}

func TestMatMulShape(t *testing.T) {
	g := MatMul(3)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	st := g.Stats()
	if st.Mults != 9 || st.Adds != 6 || st.POs != 3 {
		t.Fatalf("matmul3 stats: %+v", st)
	}
}

func TestNewKernelsSchedulable(t *testing.T) {
	for _, g := range []*cdfg.Graph{IIR(2), MatMul(3)} {
		rc := cdfg.ResourceConstraint{Add: 2, Mult: 2}
		s, err := cdfg.ListSchedule(g, rc)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		if err := cdfg.ValidateSchedule(g, s, rc); err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
	}
}
