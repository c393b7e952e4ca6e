package flow

import (
	"context"
	"errors"
	"runtime/debug"

	"repro/internal/par"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// This file is the concurrency layer of the experiment harness. The
// paper's whole evaluation (§6.1) is an embarrassingly parallel sweep of
// Benchmarks × Binders: every run is fully determined by its inputs and
// the shared seeds (VectorSeed, PortSeed, DelaySeed), shares no mutable
// state with any other run, and therefore produces byte-identical
// results whether executed serially or fanned out over a worker pool.
// RunAll exploits that to fill the Session cache with -j workers; the
// table/figure generators then read the warm cache in deterministic
// benchmark order.
//
// The failure model is deterministic too: runItems records one error
// slot per item, a panic in any item is confined to that item's slot
// (converted to a *pipeline.StageError by the worker's recover), and
// firstError picks the winner by item index, never by goroutine
// scheduling — so the reported failure is identical under -j1 and -j8.

// AllBinders is the full binder matrix of the paper's sweep (Tables 3-4,
// Figure 3).
var AllBinders = []Binder{BinderLOPASS, BinderHLPower1, BinderHLPower05}

// safeItem runs fn(ctx, i) with panic isolation: a panic escaping the
// item (a bug in harness glue — stage panics are already recovered at
// the stage boundary) becomes a diagnosed *pipeline.StageError instead
// of killing the whole process, so a sweep under keep-going loses one
// item, not the run.
func safeItem(ctx context.Context, i int, fn func(ctx context.Context, i int) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = pipeline.NewPanicError("sweep", pipeline.Scope{}, "", r, debug.Stack())
		}
	}()
	return fn(ctx, i)
}

// runItems runs fn(ctx, 0..n-1) on up to jobs workers and returns the
// per-item error slice (index-aligned with the items). A panicking item
// is recorded as a *pipeline.StageError in its own slot.
//
// With stopOnErr, the first failure cancels the item context: in-flight
// items observe the cancellation at their next check and unstarted items
// are recorded as cancelled without running. Without it (keep-going),
// every item runs to completion regardless of other items' failures;
// only the parent ctx can stop the sweep early.
//
// One job runs the items serially in index order with identical
// semantics, which is what makes -j1 and -j8 failure reports comparable.
func runItems(ctx context.Context, n, jobs int, stopOnErr bool, fn func(ctx context.Context, i int) error) []error {
	errs := make([]error, n)
	ictx := ctx
	var cancel context.CancelFunc
	if stopOnErr {
		ictx, cancel = context.WithCancel(ctx)
		defer cancel()
	}
	par.For(n, jobs, func(_, i int) {
		if err := ictx.Err(); err != nil {
			errs[i] = err
			return
		}
		errs[i] = safeItem(ictx, i, fn)
		if errs[i] != nil && stopOnErr {
			cancel()
		}
	})
	return errs
}

// firstError picks the sweep's reported error from a per-item slice:
// the lowest-index error that is not a pure cancellation, falling back
// to the lowest-index cancellation. Real failures therefore win over
// the cancellation cascade they trigger under stop-on-error, and the
// choice depends only on item order — never on which worker goroutine
// happened to fail first.
func firstError(errs []error) error {
	var canceled error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			if canceled == nil {
				canceled = err
			}
			continue
		}
		return err
	}
	return canceled
}

// sweepPair is one (benchmark, binder) item of a sweep, in deterministic
// benchmark-major order.
type sweepPair struct {
	p workload.Profile
	b Binder
}

// sweepPairs enumerates the session's sweep matrix.
func (se *Session) sweepPairs(binders []Binder) []sweepPair {
	if len(binders) == 0 {
		binders = AllBinders
	}
	pairs := make([]sweepPair, 0, len(se.Benchmarks)*len(binders))
	for _, p := range se.Benchmarks {
		for _, b := range binders {
			pairs = append(pairs, sweepPair{p, b})
		}
	}
	return pairs
}

// RunAll is Sweep without KeepGoing, reporting only the error: it
// fills the run cache with every (benchmark, binder) pair of the
// session's sweep (no binders given = AllBinders), and the first failure
// (in sweep order, see firstError) cancels the in-flight remainder and
// is returned.
func (se *Session) RunAll(ctx context.Context, binders ...Binder) error {
	_, err := se.Sweep(ctx, SweepOptions{Binders: binders})
	return err
}
