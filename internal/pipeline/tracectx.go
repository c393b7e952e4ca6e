package pipeline

import "context"

// tracesCtxKey carries the traces spans are recorded into through the
// context, so neither stage callers nor stage bodies thread trace
// arguments through every layer.
type tracesCtxKey struct{}

// WithTraces returns a context carrying the traces Exec records into:
// the given traces are appended to any the context already carries, so
// a caller adds its own trace on top of those its caller installed.
func WithTraces(ctx context.Context, traces ...*Trace) context.Context {
	if len(traces) == 0 {
		return ctx
	}
	outer, _ := ctx.Value(tracesCtxKey{}).([]*Trace)
	return context.WithValue(ctx, tracesCtxKey{}, append(outer[:len(outer):len(outer)], traces...))
}
