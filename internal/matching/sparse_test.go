package matching

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestSparseMatchesBruteForce: the SSP solver must reach the same
// optimal total as exhaustive enumeration on small random instances,
// and produce a valid matching.
func TestSparseMatchesBruteForce(t *testing.T) {
	s := NewSolver()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nU := 1 + rng.Intn(5)
		nV := 1 + rng.Intn(5)
		var edges []Edge
		for u := 0; u < nU; u++ {
			for v := 0; v < nV; v++ {
				if rng.Intn(2) == 0 {
					edges = append(edges, Edge{u, v, float64(1+rng.Intn(20)) / 2})
				}
			}
		}
		match, got := s.MaxWeightSparse(nU, nV, edges)
		want := bruteForceMax(nU, nV, edges)
		if math.Abs(got-want) > 1e-9 {
			return false
		}
		seen := map[int]bool{}
		sum := 0.0
		for u, v := range match {
			if v == -1 {
				continue
			}
			if seen[v] {
				return false
			}
			seen[v] = true
			best := 0.0
			for _, e := range edges {
				if e.U == u && e.V == v && e.W > best {
					best = e.W
				}
			}
			if best == 0 {
				return false // matched a non-edge
			}
			sum += best
		}
		return math.Abs(sum-got) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestSparseTotalMatchesHungarian: on larger sparse instances, totals
// from both solvers must agree to float tolerance (the matchings
// themselves may differ between equally-optimal solutions).
func TestSparseTotalMatchesHungarian(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	dense := NewSolver()
	sparse := NewSolver()
	for trial := 0; trial < 40; trial++ {
		nU := 1 + rng.Intn(20)
		nV := 1 + rng.Intn(200)
		var edges []Edge
		for u := 0; u < nU; u++ {
			for k := 0; k < 8; k++ {
				edges = append(edges, Edge{u, rng.Intn(nV), rng.Float64()*10 - 1})
			}
		}
		_, wantT := dense.MaxWeight(nU, nV, edges)
		_, gotT := sparse.MaxWeightSparse(nU, nV, edges)
		if math.Abs(gotT-wantT) > 1e-9 {
			t.Fatalf("trial %d (nU=%d nV=%d): sparse total %v, hungarian %v", trial, nU, nV, gotT, wantT)
		}
	}
}

// TestSparseDeterministic: identical inputs yield identical matchings
// from a reused solver — the property the binding engine's
// reproducibility rests on.
func TestSparseDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var edges []Edge
	for u := 0; u < 16; u++ {
		for k := 0; k < 12; k++ {
			edges = append(edges, Edge{u, rng.Intn(300), rng.Float64() * 5})
		}
	}
	s := NewSolver()
	first, firstT := s.MaxWeightSparse(16, 300, edges)
	for i := 0; i < 5; i++ {
		m, tot := s.MaxWeightSparse(16, 300, edges)
		if tot != firstT {
			t.Fatalf("run %d: total %v != %v", i, tot, firstT)
		}
		for u := range m {
			if m[u] != first[u] {
				t.Fatalf("run %d: matchU[%d] = %d != %d", i, u, m[u], first[u])
			}
		}
	}
}

// TestAutoSelection: small problems take the Hungarian path and stay
// bit-identical to it; a large sparse problem routes to SSP and still
// reaches the dense optimum.
func TestAutoSelection(t *testing.T) {
	s := NewSolver()
	small := []Edge{{0, 0, 1}, {0, 1, 5}, {1, 0, 4}, {1, 1, 2}}
	m, tot := s.MaxWeightAuto(2, 2, small)
	if tot != 9 || m[0] != 1 || m[1] != 0 {
		t.Fatalf("auto small: %v %v", m, tot)
	}
	rng := rand.New(rand.NewSource(3))
	var edges []Edge
	for u := 0; u < 8; u++ {
		for k := 0; k < 16; k++ {
			edges = append(edges, Edge{u, rng.Intn(2000), rng.Float64() * 3})
		}
	}
	_, wantT := NewSolver().MaxWeight(8, 2000, edges)
	_, gotT := s.MaxWeightAuto(8, 2000, edges)
	if math.Abs(gotT-wantT) > 1e-9 {
		t.Fatalf("auto large: total %v, want %v", gotT, wantT)
	}
}

// TestSolverShrinks: the cost scratch is sized to a solve's rows×n
// need, never padded to n×n, and one oversized solve must not pin its
// scratch: a later solve whose rows×n need is far smaller releases it.
func TestSolverShrinks(t *testing.T) {
	const wideU, wideV = 8, 4000
	var wide []Edge
	for u := 0; u < wideU; u++ {
		wide = append(wide, Edge{u, 500 * u, 1})
	}
	// Tripwire: 8 rows over 4000 columns hold (8+1)×4000 cells (the
	// real rows plus the dummy row); padding to n×n held 16M.
	wideCap := func(s *Solver, when string) {
		t.Helper()
		if c := cap(s.cost); c > (wideU+1)*wideV {
			t.Fatalf("%s: %dx%d solve holds %d cost cells, want at most %d", when, wideU, wideV, c, (wideU+1)*wideV)
		}
	}
	s := NewSolver()
	s.MaxWeight(wideU, wideV, wide)
	wideCap(s, "fresh solver")

	var big []Edge
	for u := 0; u < 600; u++ {
		big = append(big, Edge{u, u, 1})
	}
	s.MaxWeight(600, 600, big)
	if cap(s.cost) < 600*600 {
		t.Fatalf("big solve should have grown cost to 600x600, got %d", cap(s.cost))
	}
	// The wide solve's n×n would exceed the held 600×600; its rows×n
	// need is a tenth of it, so the scratch is released and resized.
	s.MaxWeight(wideU, wideV, wide)
	wideCap(s, "after a 600x600 solve")

	s.MaxWeight(4, 4, []Edge{{0, 1, 2}})
	if cap(s.cost) > shrinkFloorSq {
		t.Fatalf("cost scratch not released after small solve: cap %d", cap(s.cost))
	}
	if cap(s.u) > shrinkFloorVec {
		t.Fatalf("potential scratch not released after small solve: cap %d", cap(s.u))
	}
	// And the shrunk solver still solves correctly.
	m, tot := s.MaxWeight(2, 2, []Edge{{0, 0, 1}, {0, 1, 5}, {1, 0, 4}, {1, 1, 2}})
	if tot != 9 || m[0] != 1 || m[1] != 0 {
		t.Fatalf("post-shrink solve wrong: %v %v", m, tot)
	}
}

func BenchmarkSparseSolve32x10k(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var edges []Edge
	for u := 0; u < 32; u++ {
		for k := 0; k < 64; k++ {
			edges = append(edges, Edge{u, rng.Intn(10000), rng.Float64() * 10})
		}
	}
	s := NewSolver()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.MaxWeightSparse(32, 10000, edges)
	}
}
