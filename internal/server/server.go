// Package server implements hlpowerd: the HLPower flow exposed as an
// HTTP/JSON service over a shared flow.Session and (optionally) a
// durable artifact store. The design goals are the daemon trio the
// paper's batch CLI cannot provide:
//
//   - Isolation: every request runs under its own deadline, its
//     failures (including recovered panics) become structured JSON
//     errors, and one bad request never takes down the process.
//   - Sharing: all requests share one stage-artifact cache (and one
//     durable store), so concurrent demands for the same artifact
//     singleflight into one computation and a restarted daemon
//     warm-starts from disk.
//   - Backpressure: admission is bounded by MaxConcurrent running plus
//     MaxQueue waiting requests; beyond that the server sheds load with
//     429 + Retry-After instead of queueing without bound.
//
// Serve owns the lifecycle: on context cancellation (hlpowerd wires
// SIGINT/SIGTERM via sigctx) it stops accepting connections, drains
// in-flight requests for up to DrainTimeout, then flushes and closes
// the store — so an orderly shutdown never tears a store entry.
package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/flow"
	"repro/internal/pipeline"
	"repro/internal/store"
)

// Options configures a Server. The zero value of every field is usable:
// defaults are filled in by New.
type Options struct {
	// Cfg is the base flow configuration; per-request arch/width/vectors
	// overrides derive sessions from it (sharing its stage cache). New
	// normalizes it.
	Cfg flow.Config
	// Store, when non-nil, durably backs every session's caches. Serve
	// takes ownership on the drain path: it flushes and closes the
	// store after the last in-flight request finishes.
	Store *store.Store
	// MaxConcurrent bounds requests executing the flow at once
	// (0 = GOMAXPROCS). Health and stats endpoints are not admitted
	// against it.
	MaxConcurrent int
	// MaxQueue bounds requests waiting for an execution slot
	// (0 = 2×MaxConcurrent). A request arriving with the queue full is
	// shed with 429.
	MaxQueue int
	// DefaultTimeout is the per-request deadline when the request body
	// names none (0 = 2m). MaxTimeout caps requested deadlines
	// (0 = 10m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// DrainTimeout bounds the graceful-shutdown wait for in-flight
	// requests (0 = 30s); past it connections are force-closed.
	DrainTimeout time.Duration
	// Jobs is the intra-request worker count for sweep fan-out
	// (Session.Jobs; 0 = GOMAXPROCS).
	Jobs int
	// Injector, when non-nil, arms deterministic fault injection on
	// every request context — the lifecycle tests' lever for stuck
	// stages, panics, and disk faults.
	Injector *pipeline.FaultInjector
	// Logf receives operational logs (nil = silent).
	Logf func(format string, args ...any)
}

// Server is the hlpowerd HTTP service. Create with New; it is safe for
// concurrent use by the HTTP stack.
type Server struct {
	opts Options
	base *flow.Session
	mux  *http.ServeMux

	// sem holds MaxConcurrent execution slots; load counts running plus
	// queued requests and is bounded by MaxConcurrent+MaxQueue.
	sem  chan struct{}
	load atomic.Int64

	mu       sync.Mutex
	sessions map[string]*flow.Session // Config.Fingerprint() → derived session

	draining atomic.Bool
	requests atomic.Int64 // admitted flow requests
	shed     atomic.Int64 // 429s
	panics   atomic.Int64 // handler panics recovered
	warmHits atomic.Int64 // responses served from a completed run cache entry

	ingestRequests atomic.Int64 // valid ingest submissions received
	ingestAdmitted atomic.Int64 // ingest submissions admitted
}

// New builds a Server over opts (filling defaults) and wires its routes.
func New(opts Options) *Server {
	if opts.MaxConcurrent <= 0 {
		opts.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if opts.MaxQueue <= 0 {
		opts.MaxQueue = 2 * opts.MaxConcurrent
	}
	if opts.DefaultTimeout <= 0 {
		opts.DefaultTimeout = 2 * time.Minute
	}
	if opts.MaxTimeout <= 0 {
		opts.MaxTimeout = 10 * time.Minute
	}
	if opts.DrainTimeout <= 0 {
		opts.DrainTimeout = 30 * time.Second
	}
	base := flow.NewSession(opts.Cfg)
	base.Jobs = opts.Jobs
	if opts.Store != nil {
		base.AttachStore(opts.Store)
	}
	s := &Server{
		opts:     opts,
		base:     base,
		sem:      make(chan struct{}, opts.MaxConcurrent),
		sessions: map[string]*flow.Session{base.Cfg.Fingerprint(): base},
	}
	s.mux = http.NewServeMux()
	s.mux.Handle("POST /v1/bind", s.wrap(s.handleBind))
	s.mux.Handle("POST /v1/sweep", s.wrap(s.handleSweep))
	s.mux.Handle("POST /v1/archsweep", s.wrap(s.handleArchSweep))
	s.mux.Handle("POST /v1/ingest", s.wrap(s.handleIngest))
	s.mux.Handle("GET /healthz", s.wrap(s.handleHealthz))
	s.mux.Handle("GET /statsz", s.wrap(s.handleStatsz))
	return s
}

// Handler returns the server's HTTP handler (for tests and embedding;
// Serve uses it too).
func (s *Server) Handler() http.Handler { return s.mux }

// Serve accepts connections on ln until ctx is cancelled, then drains:
// in-flight requests get up to DrainTimeout to finish (their own
// deadlines still apply), stragglers are force-closed, and the store —
// if one was attached — is flushed and closed last, so every artifact
// computed by a drained request is durable before Serve returns.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	srv := &http.Server{Handler: s.mux}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	var serveErr error
	select {
	case serveErr = <-errCh:
		// Listener failure; nothing in flight to drain via Shutdown,
		// but still close the store below.
	case <-ctx.Done():
		s.draining.Store(true)
		s.logf("draining: waiting up to %v for in-flight requests", s.opts.DrainTimeout)
		dctx, cancel := context.WithTimeout(context.Background(), s.opts.DrainTimeout)
		err := srv.Shutdown(dctx)
		cancel()
		if err != nil {
			// Drain deadline expired: abandon stragglers. Their request
			// contexts cancel with the connections, so the pipeline
			// winds down cooperatively.
			s.logf("drain timed out: force-closing connections")
			srv.Close()
			serveErr = fmt.Errorf("server: drain: %w", err)
		}
		<-errCh // Serve has returned ErrServerClosed
	}
	if errors.Is(serveErr, http.ErrServerClosed) {
		serveErr = nil
	}
	if s.opts.Store != nil {
		if err := s.opts.Store.Close(); err != nil && serveErr == nil {
			serveErr = fmt.Errorf("server: store close: %w", err)
		}
	}
	return serveErr
}

// session resolves the flow.Session for a request's configuration
// overrides, deriving (and caching) one per distinct configuration.
// Derived sessions share the base session's stage cache — and the
// durable store, when attached — so overlapping configurations share
// artifacts exactly as CLI sweeps do. Past maxDerivedSessions a new
// configuration is refused with 503.
func (s *Server) session(o configOverrides) (*flow.Session, error) {
	cfg, err := o.apply(s.base.Cfg)
	if err != nil {
		return nil, err
	}
	fp := cfg.Fingerprint()
	s.mu.Lock()
	defer s.mu.Unlock()
	if se, ok := s.sessions[fp]; ok {
		return se, nil
	}
	if len(s.sessions) > maxDerivedSessions { // the base is not derived
		return nil, &httpError{http.StatusServiceUnavailable, fmt.Sprintf(
			"configuration limit reached: the server derives at most %d configurations from its base", maxDerivedSessions)}
	}
	se := s.base.Derive(cfg)
	se.Jobs = s.opts.Jobs
	if s.opts.Store != nil {
		se.AttachStore(s.opts.Store)
	}
	s.sessions[fp] = se
	return se, nil
}

// errOverload marks a request shed by admission control.
var errOverload = errors.New("server overloaded: admission queue full")

// acquire admits a request: it claims a queue position, then waits for
// one of the MaxConcurrent execution slots. With the queue full the
// request is shed immediately (429); a context expiring in the queue
// abandons the wait. The returned release frees both.
func (s *Server) acquire(ctx context.Context) (release func(), err error) {
	if s.load.Add(1) > int64(s.opts.MaxConcurrent+s.opts.MaxQueue) {
		s.load.Add(-1)
		s.shed.Add(1)
		return nil, errOverload
	}
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem; s.load.Add(-1) }, nil
	case <-ctx.Done():
		s.load.Add(-1)
		return nil, ctx.Err()
	}
}

// timeout resolves a request's deadline: the requested duration clamped
// to MaxTimeout, or DefaultTimeout when unspecified.
func (s *Server) timeout(requestedMS int64) time.Duration {
	d := s.opts.DefaultTimeout
	if requestedMS > 0 {
		d = time.Duration(requestedMS) * time.Millisecond
	}
	if d > s.opts.MaxTimeout {
		d = s.opts.MaxTimeout
	}
	return d
}

// admit is the one admission path of the flow endpoints. It resolves
// the session for the request's overrides, derives the execution
// context (the client's context, cancelled on disconnect and on
// force-close, bounded by the resolved deadline and carrying the
// server's fault injector when one is armed) and waits in acquire for
// a slot, so the deadline covers the queue wait too. On success the
// request counts as admitted, and done releases the slot and the
// context.
func (s *Server) admit(r *http.Request, o configOverrides, requestedMS int64) (se *flow.Session, ctx context.Context, done func(), err error) {
	if se, err = s.session(o); err != nil {
		return nil, nil, nil, err
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.timeout(requestedMS))
	if s.opts.Injector != nil {
		ctx = pipeline.WithInjector(ctx, s.opts.Injector)
	}
	release, err := s.acquire(ctx)
	if err != nil {
		cancel()
		return nil, nil, nil, err
	}
	s.requests.Add(1)
	return se, ctx, func() { release(); cancel() }, nil
}

// wrap adapts an error-returning handler: errors map to JSON responses
// with the right status (writeError), and a panic escaping the handler
// — the per-request isolation backstop; flow-level panics are already
// recovered at stage boundaries — becomes a 500 instead of killing the
// daemon.
func (s *Server) wrap(h func(w http.ResponseWriter, r *http.Request) error) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				s.panics.Add(1)
				s.logf("panic serving %s: %v\n%s", r.URL.Path, rec, debug.Stack())
				writeJSON(w, http.StatusInternalServerError,
					errorBody{Error: fmt.Sprintf("internal panic: %v", rec)})
			}
		}()
		if err := h(w, r); err != nil {
			s.writeError(w, err)
		}
	})
}

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}
