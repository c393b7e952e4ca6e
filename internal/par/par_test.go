package par

import (
	"runtime"
	"sync"
	"testing"
)

func TestJobs(t *testing.T) {
	for _, j := range []int{-1, 0} {
		if got := Jobs(j); got != runtime.GOMAXPROCS(0) {
			t.Errorf("Jobs(%d) = %d, want GOMAXPROCS %d", j, got, runtime.GOMAXPROCS(0))
		}
	}
	if got := Jobs(3); got != 3 {
		t.Errorf("Jobs(3) = %d", got)
	}
}

// TestForVisitsEachIndexOnce checks that every index runs exactly once
// and every worker index is below Workers, across empty, single and
// uneven work at every kind of job request.
func TestForVisitsEachIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 1000} {
		for _, j := range []int{-1, 0, 1, 3, n + 5} {
			nw := Workers(n, j)
			if nw < 1 || nw > max(n, 1) {
				t.Fatalf("Workers(%d, %d) = %d", n, j, nw)
			}
			var mu sync.Mutex
			seen := make([]int, n)
			For(n, j, func(w, i int) {
				mu.Lock()
				defer mu.Unlock()
				if w < 0 || w >= nw {
					t.Errorf("n=%d j=%d: worker %d outside 0..%d", n, j, w, nw-1)
				}
				seen[i]++
			})
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("n=%d j=%d: index %d ran %d times", n, j, i, c)
				}
			}
		}
	}
}

// TestForOneWorkerRunsInline checks that one worker is the serial loop:
// calls run in index order, and on the caller's goroutine — a panic in
// the last call reaches the caller's recover, which a panic on any other
// goroutine could not.
func TestForOneWorkerRunsInline(t *testing.T) {
	for _, c := range []struct{ n, j int }{{50, 1}, {1, 8}} {
		var order []int
		recovered := func() (r any) {
			defer func() { r = recover() }()
			For(c.n, c.j, func(w, i int) {
				if w != 0 {
					t.Errorf("n=%d j=%d: worker %d, want 0", c.n, c.j, w)
				}
				order = append(order, i)
				if i == c.n-1 {
					panic("last")
				}
			})
			return nil
		}()
		if recovered != "last" {
			t.Fatalf("n=%d j=%d: the caller did not recover the last call's panic", c.n, c.j)
		}
		for i, v := range order {
			if v != i {
				t.Fatalf("n=%d j=%d: call %d ran index %d", c.n, c.j, i, v)
			}
		}
		if len(order) != c.n {
			t.Fatalf("n=%d j=%d: %d calls, want %d", c.n, c.j, len(order), c.n)
		}
	}
}
