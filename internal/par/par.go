// Package par is the flow's one worker pool. Every parallel stage runs
// its index-addressed work through For: workers claim indices from a
// shared counter, each worker has a fixed index for its scratch state,
// and a single worker runs on the caller's goroutine in index order, so
// one job is exactly the serial loop. Callers that write only their
// item's slot and reduce the slots in index order therefore produce the
// same result at every worker count.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Jobs resolves a worker-count request: j <= 0 selects GOMAXPROCS.
func Jobs(j int) int {
	if j <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return j
}

// Workers returns the number of workers For(n, j, fn) runs: Jobs(j)
// capped at n, and at least one.
func Workers(n, j int) int {
	return max(1, min(Jobs(j), n))
}

// For calls fn(w, i) once for every i in 0..n-1 and returns when all
// calls have returned. w is the calling worker's index, below
// Workers(n, j): fn may use scratch indexed by w without locking, and
// must otherwise touch only item i's state. With one worker every call
// runs on the caller's goroutine, in index order.
func For(n, j int, fn func(w, i int)) {
	nw := Workers(n, j)
	if nw == 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(nw)
	for w := 0; w < nw; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(w, i)
			}
		}()
	}
	wg.Wait()
}
