package bitvec

import (
	"math/rand"
	"testing"
)

// TestShannonMatchesGet evaluates random tables of 0..6 variables at
// random input words: bit L of the result must be the table's value at
// the minterm formed by bit L of each input word.
func TestShannonMatchesGet(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for k := 0; k <= WordVars; k++ {
		for trial := 0; trial < 200; trial++ {
			tt := randomTable(rng, k)
			var x [WordVars]uint64
			for i := range x {
				x[i] = rng.Uint64()
			}
			got := Shannon(tt.Words()[0], &x, k)
			for lane := uint(0); lane < 64; lane++ {
				var m uint
				for i := 0; i < k; i++ {
					m |= uint(x[i]>>lane&1) << i
				}
				if bit, want := got>>lane&1 == 1, tt.Get(m); bit != want {
					t.Fatalf("k=%d table %s lane %d (minterm %d): got %v, want %v", k, tt, lane, m, bit, want)
				}
			}
		}
	}
}

// TestShannonComposesAtProjections evaluates a table at the VarWord
// projections of distinct positions among n variables, the cut
// enumerator's composition step: masked with WordMask(n), the word must
// be a canonical n-variable table (no bit past minterm 2^n) equal to
// Expand's.
func TestShannonComposesAtProjections(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for n := 0; n <= WordVars; n++ {
		for k := 0; k <= n; k++ {
			for trial := 0; trial < 50; trial++ {
				tt := randomTable(rng, k)
				pos := rng.Perm(n)[:k]
				var x [WordVars]uint64
				for i, p := range pos {
					x[i] = VarWord(p)
				}
				w := Shannon(tt.Words()[0], &x, k) & WordMask(n)
				got, err := FromWords(n, []uint64{w})
				if err != nil {
					t.Fatalf("n=%d k=%d positions %v: %v", n, k, pos, err)
				}
				if want := tt.Expand(n, pos); !got.Equal(want) {
					t.Fatalf("n=%d k=%d table %s positions %v: composed %s, want %s", n, k, tt, pos, got, want)
				}
			}
		}
	}
}

func TestMux(t *testing.T) {
	a, b, s := uint64(0xF0F0), uint64(0xFF00), uint64(0xAAAA)
	if got, want := Mux(a, b, s), a&^s|b&s; got != want {
		t.Fatalf("Mux = %#x, want %#x", got, want)
	}
}
