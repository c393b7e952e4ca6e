package pipeline

import "context"

// tracesCtxKey carries the traces spans are recorded into through the
// context, so neither stage callers nor stage bodies thread trace
// arguments through every layer.
type tracesCtxKey struct{}

// WithTraces returns a context carrying the traces for Exec and AddSpan:
// the given traces are appended to any the context already carries, so
// a caller adds its own trace on top of those its caller installed.
func WithTraces(ctx context.Context, traces ...*Trace) context.Context {
	if len(traces) == 0 {
		return ctx
	}
	outer, _ := ctx.Value(tracesCtxKey{}).([]*Trace)
	return context.WithValue(ctx, tracesCtxKey{}, append(outer[:len(outer):len(outer)], traces...))
}

// AddSpan records a span into every trace carried by the context; with
// none attached it is a no-op. Stage bodies use it for finer-grained
// observability than the one span Exec records — e.g. the bind stage's
// per-merge-round spans.
func AddSpan(ctx context.Context, sp Span) {
	trs, _ := ctx.Value(tracesCtxKey{}).([]*Trace)
	for _, tr := range trs {
		tr.Add(sp)
	}
}
