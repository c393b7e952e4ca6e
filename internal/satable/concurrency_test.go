package satable

import (
	"context"
	"strings"
	"sync"
	"testing"

	"repro/internal/netgen"
)

// TestConcurrentGets hammers the table from many goroutines: no races
// (run with -race), consistent values, and — thanks to the per-key
// singleflight — exactly one lazy computation per unique key.
func TestConcurrentGets(t *testing.T) {
	tb := New(4, EstimatorGlitch)
	var wg sync.WaitGroup
	results := make([][]float64, 8)
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			var out []float64
			for i := 0; i < 20; i++ {
				kind := netgen.FUAdd
				if i%2 == 0 {
					kind = netgen.FUMult
				}
				out = append(out, tb.Get(kind, 1+i%3, 1+(i/2)%3))
			}
			results[w] = out
		}()
	}
	wg.Wait()
	for w := 1; w < 8; w++ {
		for i := range results[0] {
			if results[w][i] != results[0][i] {
				t.Fatalf("worker %d sees different value at %d", w, i)
			}
		}
	}
	// Every unique key was computed exactly once: no thundering herd.
	if tb.Misses() != tb.Len() {
		t.Fatalf("misses = %d, want exactly one per unique key (%d)", tb.Misses(), tb.Len())
	}
}

// TestSingleflightSameKey releases many goroutines at once on a single
// cold key: the expensive netgen -> mapper compute must run exactly once
// and every caller must see the same value.
func TestSingleflightSameKey(t *testing.T) {
	tb := New(4, EstimatorGlitch)
	const workers = 16
	vals := make([]float64, workers)
	var start, done sync.WaitGroup
	start.Add(1)
	for w := 0; w < workers; w++ {
		w := w
		done.Add(1)
		go func() {
			defer done.Done()
			start.Wait()
			vals[w] = tb.Get(netgen.FUMult, 3, 2)
		}()
	}
	start.Done()
	done.Wait()
	for w := 1; w < workers; w++ {
		if vals[w] != vals[0] {
			t.Fatalf("worker %d got %g, worker 0 got %g", w, vals[w], vals[0])
		}
	}
	if got := tb.Misses(); got != 1 {
		t.Fatalf("misses = %d, want 1: concurrent misses on one key must share a single compute", got)
	}
	if got := tb.Len(); got != 1 {
		t.Fatalf("len = %d, want 1", got)
	}
}

// TestPrecomputeParallelMatchesSerial fills two tables — one serially,
// one on 8 workers — and requires identical persisted contents and
// exactly one computation per key.
func TestPrecomputeParallelMatchesSerial(t *testing.T) {
	serial := New(4, EstimatorGlitch)
	if err := serial.PrecomputeCtx(context.Background(), 3, 1); err != nil {
		t.Fatal(err)
	}
	par := New(4, EstimatorGlitch)
	if err := par.PrecomputeCtx(context.Background(), 3, 8); err != nil {
		t.Fatal(err)
	}

	if serial.Len() != par.Len() {
		t.Fatalf("len: serial %d, parallel %d", serial.Len(), par.Len())
	}
	if par.Misses() != par.Len() {
		t.Fatalf("parallel misses = %d, want %d", par.Misses(), par.Len())
	}
	var a, b strings.Builder
	if err := serial.Save(&a); err != nil {
		t.Fatal(err)
	}
	if err := par.Save(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("parallel precompute produced different table:\nserial:\n%s\nparallel:\n%s", a.String(), b.String())
	}
}
