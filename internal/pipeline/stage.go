package pipeline

import (
	"context"
	"errors"
	"runtime/debug"
	"sync"
	"time"
)

// Span is one stage execution record: what ran, under which cache key,
// whether the artifact came from cache, and how long serving it took.
// For a cache hit the duration is the lookup (or wait-on-inflight) time,
// not the original compute time.
type Span struct {
	Stage      string `json:"stage"`
	Key        string `json:"key"`
	CacheHit   bool   `json:"cache_hit"`
	DurationNs int64  `json:"duration_ns"`
	// Size is the stage's artifact size metric (stage-defined: nodes,
	// LUTs, transition count, ...). 0 when the stage defines none.
	Size int `json:"size,omitempty"`
}

// Trace accumulates spans. It is safe for concurrent use; a nil *Trace
// discards everything, so traces are opt-in at every call site.
type Trace struct {
	mu       sync.Mutex
	spans    []Span
	observer func(Span)
}

// Add appends one span and notifies the observer, if any.
func (t *Trace) Add(sp Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	obs := t.observer
	t.mu.Unlock()
	if obs != nil {
		obs(sp)
	}
}

// SetObserver installs a callback invoked once per recorded span, after
// it lands in the trace. This is the live-progress hook the daemon's
// streaming responses use. The callback runs on whichever goroutine
// recorded the span (outside the trace lock) and may be invoked
// concurrently; observers that write to shared sinks must serialize
// themselves. Pass nil to remove.
func (t *Trace) SetObserver(fn func(Span)) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.observer = fn
	t.mu.Unlock()
}

// Spans returns a copy of the recorded spans in record order.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	return out
}

// Stage is one typed, cached, instrumented pipeline step.
type Stage[In, Out any] struct {
	// Name labels the stage in traces, errors, and its cache class.
	Name string
	// Key derives the cache key from the input. It must cover every
	// configuration field Run's result depends on, plus the content
	// fingerprint of the upstream artifact. An empty key disables
	// caching for that input.
	Key func(In) string
	// Scope extracts the (benchmark, binder) provenance of an input for
	// structured errors and fault-injection matching (optional).
	Scope func(In) Scope
	// Run computes the artifact. The result is shared through the cache
	// and must not be mutated afterwards, by Run's caller or anyone
	// downstream. Run must honor ctx at its own internal boundaries if
	// it loops; Exec checks it once before invoking Run.
	Run func(ctx context.Context, in In) (Out, error)
	// Size reports the artifact size metric recorded in spans (optional).
	Size func(Out) int
}

// Exec runs the stage on in through cache c (nil = always compute),
// recording one span into every trace the context carries (WithTraces).
// The stage body runs under the same context, so the spans of stages it
// executes in turn land in those traces too. Concurrent Exec calls with
// the same key share a single successful Run.
//
// Failure model: every error Exec returns is a *StageError (or wraps
// one) carrying the stage name, the input's Scope, and the cache key —
// including context cancellation (the cause is ctx.Err(), so errors.Is
// against context.Canceled / DeadlineExceeded still matches) and
// recovered panics (the cause wraps ErrPanic and the StageError records
// the panic value and stack). A failed computation is never cached, so
// the artifact cache cannot retain poisoned entries. If the context
// carries a FaultInjector (WithInjector), it is consulted inside the
// compute path — cache hits are never re-injected.
func (s Stage[In, Out]) Exec(ctx context.Context, c *Cache, in In) (Out, error) {
	start := time.Now()
	key := ""
	if s.Key != nil {
		key = s.Key(in)
	}
	var sc Scope
	if s.Scope != nil {
		sc = s.Scope(in)
	}
	var out Out
	var err error
	hit := false
	if c == nil || key == "" {
		out, err = s.runSafe(ctx, in, key, sc)
	} else {
		var v any
		v, hit, err = c.Do(ctx, s.Name, key, func() (any, error) { return s.runSafe(ctx, in, key, sc) })
		if err == nil {
			out = v.(Out)
		}
	}
	if err != nil {
		err = s.wrapErr(err, key, sc)
	}
	sp := Span{Stage: s.Name, Key: key, CacheHit: hit, DurationNs: int64(time.Since(start))}
	if err == nil && s.Size != nil {
		sp.Size = s.Size(out)
	}
	trs, _ := ctx.Value(tracesCtxKey{}).([]*Trace)
	for _, tr := range trs {
		tr.Add(sp)
	}
	return out, err
}

// runSafe is the isolated compute path: context check, fault injection,
// Run, and panic-to-StageError conversion. Panics never escape it, so
// neither the cache nor the worker pool above ever sees one from here.
func (s Stage[In, Out]) runSafe(ctx context.Context, in In, key string, sc Scope) (out Out, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = NewPanicError(s.Name, sc, key, r, debug.Stack())
		}
	}()
	if err := ctx.Err(); err != nil {
		return out, err
	}
	if fi := InjectorFrom(ctx); fi != nil {
		if err := fi.Inject(ctx, s.Name, key, sc); err != nil {
			return out, err
		}
	}
	return s.Run(ctx, in)
}

// wrapErr guarantees the StageError contract: an error that is not
// already attributed to a stage gets this stage's identity; one that is
// (a StageError from runSafe, possibly from a retried waiter) passes
// through untouched.
func (s Stage[In, Out]) wrapErr(err error, key string, sc Scope) error {
	var se *StageError
	if errors.As(err, &se) {
		return err
	}
	return &StageError{Stage: s.Name, Scope: sc, Key: key, Err: err}
}
