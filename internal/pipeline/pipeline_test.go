package pipeline

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

var bg = context.Background()

func TestDoComputesOnceAndCountsStats(t *testing.T) {
	c := NewCache()
	calls := 0
	fn := func() (any, error) { calls++; return 42, nil }
	v, hit, err := c.Do(bg, "s", "k", fn)
	if err != nil || hit || v.(int) != 42 {
		t.Fatalf("first Do: v=%v hit=%v err=%v", v, hit, err)
	}
	v, hit, err = c.Do(bg, "s", "k", fn)
	if err != nil || !hit || v.(int) != 42 {
		t.Fatalf("second Do: v=%v hit=%v err=%v", v, hit, err)
	}
	if calls != 1 {
		t.Fatalf("fn ran %d times, want 1", calls)
	}
	if st := c.StatsFor("s"); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats %+v, want 1 hit / 1 miss", st)
	}
}

// TestDoRecordsTimes: a miss adds the time fn ran to ComputeNs, and a
// demand that waits out another caller's in-flight computation adds its
// wait to WaitNs.
func TestDoRecordsTimes(t *testing.T) {
	c := NewCache()
	const d = 5 * time.Millisecond
	started, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		c.Do(bg, "s", "k", func() (any, error) {
			close(started)
			time.Sleep(d)
			return 1, nil
		})
	}()
	<-started
	_, hit, err := c.Do(bg, "s", "k", func() (any, error) { return nil, errors.New("must not run") })
	<-done
	if err != nil || !hit {
		t.Fatalf("waiter: hit=%v err=%v", hit, err)
	}
	st := c.StatsFor("s")
	if st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("stats %+v, want 1 miss / 1 hit", st)
	}
	if st.ComputeNs < int64(d) || st.WaitNs <= 0 {
		t.Fatalf("stats %+v: want ComputeNs >= %d and WaitNs > 0", st, int64(d))
	}
}

func TestDoKeysAreClassScoped(t *testing.T) {
	c := NewCache()
	c.Do(bg, "a", "k", func() (any, error) { return 1, nil })
	v, hit, _ := c.Do(bg, "b", "k", func() (any, error) { return 2, nil })
	if hit || v.(int) != 2 {
		t.Fatalf("class b key k leaked class a's entry: v=%v hit=%v", v, hit)
	}
}

func TestDoDoesNotCacheErrors(t *testing.T) {
	c := NewCache()
	boom := errors.New("boom")
	if _, _, err := c.Do(bg, "s", "k", func() (any, error) { return nil, boom }); err != boom {
		t.Fatalf("err = %v, want boom", err)
	}
	v, hit, err := c.Do(bg, "s", "k", func() (any, error) { return 7, nil })
	if err != nil || hit || v.(int) != 7 {
		t.Fatalf("error was cached: v=%v hit=%v err=%v", v, hit, err)
	}
}

func TestDoCanceledContext(t *testing.T) {
	c := NewCache()
	ctx, cancel := context.WithCancel(bg)
	cancel()
	if _, _, err := c.Do(ctx, "s", "k", func() (any, error) { return 1, nil }); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The failed attempt must not leave an entry behind.
	if _, ok := c.Lookup("s", "k"); ok {
		t.Fatal("canceled Do left an entry")
	}
}

func TestDoWaiterCancellation(t *testing.T) {
	c := NewCache()
	gate := make(chan struct{})
	computing := make(chan struct{})
	go func() {
		c.Do(bg, "s", "k", func() (any, error) {
			close(computing)
			<-gate
			return 1, nil
		})
	}()
	<-computing
	ctx, cancel := context.WithCancel(bg)
	cancel()
	if _, _, err := c.Do(ctx, "s", "k", func() (any, error) { return 2, nil }); !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter err = %v, want context.Canceled", err)
	}
	close(gate)
}

// TestDoWaitersRetryOnError proves the provenance-determinism contract:
// a waiter that observes another caller's failure recomputes under its
// own call instead of adopting the foreign error.
func TestDoWaitersRetryOnError(t *testing.T) {
	c := NewCache()
	gate := make(chan struct{})
	computing := make(chan struct{})
	firstErr := errors.New("first caller failed")
	go func() {
		c.Do(bg, "s", "k", func() (any, error) {
			close(computing)
			<-gate
			return nil, firstErr
		})
	}()
	<-computing
	done := make(chan struct{})
	var v any
	var err error
	go func() {
		defer close(done)
		v, _, err = c.Do(bg, "s", "k", func() (any, error) { return 7, nil })
	}()
	close(gate)
	<-done
	if err != nil || v.(int) != 7 {
		t.Fatalf("waiter adopted the foreign error: v=%v err=%v", v, err)
	}
}

func TestDoSingleflight(t *testing.T) {
	c := NewCache()
	const workers = 16
	var calls int
	var start, done sync.WaitGroup
	gate := make(chan struct{})
	start.Add(1)
	vals := make([]int, workers)
	hits := make([]bool, workers)
	for w := 0; w < workers; w++ {
		w := w
		done.Add(1)
		go func() {
			defer done.Done()
			start.Wait()
			v, hit, err := c.Do(bg, "s", "k", func() (any, error) {
				calls++ // safe: singleflight means exactly one runner
				<-gate
				return 99, nil
			})
			if err != nil {
				t.Error(err)
			}
			vals[w], hits[w] = v.(int), hit
		}()
	}
	start.Done()
	close(gate)
	done.Wait()
	if calls != 1 {
		t.Fatalf("fn ran %d times, want 1", calls)
	}
	nHits := 0
	for w := range vals {
		if vals[w] != 99 {
			t.Fatalf("worker %d got %d", w, vals[w])
		}
		if hits[w] {
			nHits++
		}
	}
	if nHits != workers-1 {
		t.Fatalf("%d hits, want %d (every waiter counts as a hit)", nHits, workers-1)
	}
	if st := c.StatsFor("s"); st.Misses != 1 || st.Hits != workers-1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestDoPanicUnblocksWaiters(t *testing.T) {
	c := NewCache()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic did not propagate")
			}
		}()
		c.Do(bg, "s", "k", func() (any, error) { panic("bug") })
	}()
	// The failed entry must be gone: the next caller recomputes.
	v, hit, err := c.Do(bg, "s", "k", func() (any, error) { return 5, nil })
	if err != nil || hit || v.(int) != 5 {
		t.Fatalf("post-panic Do: v=%v hit=%v err=%v", v, hit, err)
	}
}

func TestPutLookupSnapshotLen(t *testing.T) {
	c := NewCache()
	c.Put("s", "a", 1.5)
	c.Put("s", "b", 2.5)
	if v, ok := c.Lookup("s", "a"); !ok || v.(float64) != 1.5 {
		t.Fatalf("Lookup a: %v %v", v, ok)
	}
	if _, ok := c.Lookup("s", "missing"); ok {
		t.Fatal("Lookup invented an entry")
	}
	if n := c.Len("s"); n != 2 {
		t.Fatalf("Len = %d, want 2", n)
	}
	snap := c.Snapshot("s")
	if len(snap) != 2 || snap["b"].(float64) != 2.5 {
		t.Fatalf("Snapshot = %v", snap)
	}
	// Put does not move the stats.
	if st := c.StatsFor("s"); st != (Stats{}) {
		t.Fatalf("Put counted as traffic: %+v", st)
	}
	// Put is served as a hit afterwards.
	v, hit, err := c.Do(bg, "s", "a", func() (any, error) { return nil, errors.New("must not run") })
	if err != nil || !hit || v.(float64) != 1.5 {
		t.Fatalf("Do after Put: v=%v hit=%v err=%v", v, hit, err)
	}
}

func TestStageExecCachesAndTraces(t *testing.T) {
	c := NewCache()
	runs := 0
	double := Stage[int, int]{
		Name: "double",
		Key:  func(in int) string { return fmt.Sprintf("%d", in) },
		Run:  func(_ context.Context, in int) (int, error) { runs++; return 2 * in, nil },
		Size: func(out int) int { return out },
	}
	var tr Trace
	ctx := WithTraces(bg, &tr)
	for i := 0; i < 2; i++ {
		out, err := double.Exec(ctx, c, 21)
		if err != nil || out != 42 {
			t.Fatalf("Exec: %v %v", out, err)
		}
	}
	if runs != 1 {
		t.Fatalf("Run ran %d times, want 1", runs)
	}
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(spans))
	}
	if spans[0].CacheHit || !spans[1].CacheHit {
		t.Fatalf("hit flags wrong: %+v", spans)
	}
	if spans[0].Stage != "double" || spans[0].Key != "21" || spans[0].Size != 42 {
		t.Fatalf("span fields wrong: %+v", spans[0])
	}
}

// TestWithTracesAppends: traces accumulate down a context chain — an
// Exec (and the Exec nested in its body) under an inner WithTraces
// records into the outer trace as well, sibling contexts do not see
// each other's traces, and the outer context is unchanged.
func TestWithTracesAppends(t *testing.T) {
	sub := Stage[int, int]{
		Name: "sub",
		Run:  func(_ context.Context, in int) (int, error) { return in, nil },
	}
	st := Stage[int, int]{
		Name: "s",
		Run: func(ctx context.Context, in int) (int, error) {
			return sub.Exec(ctx, nil, in)
		},
	}
	var outer, a, b Trace
	octx := WithTraces(bg, &outer)
	actx := WithTraces(octx, &a)
	bctx := WithTraces(octx, &b)
	for _, ctx := range []context.Context{actx, bctx, bctx, octx} {
		if _, err := st.Exec(ctx, nil, 1); err != nil {
			t.Fatal(err)
		}
	}
	if got := [3]int{len(outer.Spans()), len(a.Spans()), len(b.Spans())}; got != [3]int{8, 2, 4} {
		t.Fatalf("outer/a/b span counts %v, want [8 2 4]", got)
	}
}

func TestStageExecNilCacheAndNilTrace(t *testing.T) {
	runs := 0
	st := Stage[int, int]{
		Name: "s",
		Key:  func(in int) string { return "k" },
		Run:  func(_ context.Context, in int) (int, error) { runs++; return in, nil },
	}
	var nilTrace *Trace
	ctx := WithTraces(bg, nilTrace)
	for i := 0; i < 2; i++ {
		if _, err := st.Exec(ctx, nil, 1); err != nil {
			t.Fatal(err)
		}
	}
	if runs != 2 {
		t.Fatalf("nil cache must always compute; ran %d times", runs)
	}
}

func TestStageExecEmptyKeyDisablesCaching(t *testing.T) {
	c := NewCache()
	runs := 0
	st := Stage[int, int]{
		Name: "s",
		Key:  func(in int) string { return "" },
		Run:  func(_ context.Context, in int) (int, error) { runs++; return in, nil },
	}
	st.Exec(bg, c, 1)
	st.Exec(bg, c, 1)
	if runs != 2 {
		t.Fatalf("empty key must disable caching; ran %d times", runs)
	}
}

func TestHasherDistinguishesBoundaries(t *testing.T) {
	a := NewHasher().Str("ab").Str("c").Sum()
	b := NewHasher().Str("a").Str("bc").Sum()
	if a == b {
		t.Fatal("length delimiting failed")
	}
	x := NewHasher().Ints([]int{1, 2}).Ints(nil).Sum()
	y := NewHasher().Ints([]int{1}).Ints([]int{2}).Sum()
	if x == y {
		t.Fatal("slice delimiting failed")
	}
	if NewHasher().Int(3).Sum() != NewHasher().Int(3).Sum() {
		t.Fatal("hashing is not deterministic")
	}
}
