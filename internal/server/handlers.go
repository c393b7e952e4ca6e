package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/arch"
	"repro/internal/flow"
	"repro/internal/pipeline"
	"repro/internal/satable"
	"repro/internal/store"
	"repro/internal/workload"
)

// httpError carries an explicit status through the error return of a
// handler (bad requests, unknown benchmarks, ...).
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &httpError{http.StatusBadRequest, fmt.Sprintf(format, args...)}
}

func notFound(format string, args ...any) error {
	return &httpError{http.StatusNotFound, fmt.Sprintf(format, args...)}
}

type errorBody struct {
	Error string `json:"error"`
}

// writeError maps an error to its HTTP shape: explicit statuses pass
// through, overload is 429 + Retry-After, deadline expiry is 504,
// client disconnect is 499 (nginx's convention — the client is gone,
// but access logs should still distinguish it), everything else
// (StageErrors, recovered flow panics) is 500.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	var he *httpError
	status := http.StatusInternalServerError
	switch {
	case errors.As(err, &he):
		status = he.status
	case errors.Is(err, errOverload):
		w.Header().Set("Retry-After", "1")
		status = http.StatusTooManyRequests
	case errors.Is(err, context.DeadlineExceeded):
		status = http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		status = 499
	}
	writeJSON(w, status, errorBody{Error: err.Error()})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) // nolint: a write error here means the client is gone
}

// decodeBody strictly decodes a bounded JSON request body into v.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return badRequest("bad request body: %v", err)
	}
	if dec.More() {
		return badRequest("bad request body: trailing data")
	}
	return nil
}

// configOverrides are the per-request session knobs shared by every
// flow endpoint. Zero values mean "the server's base configuration";
// negative sizes are rejected.
type configOverrides struct {
	Arch    string `json:"arch,omitempty"`
	Width   int    `json:"width,omitempty"`
	Vectors int    `json:"vectors,omitempty"`
}

// Bounds on untrusted request sizes. A width override elaborates
// O(width²)-gate array multipliers and every distinct override derives
// a new session, so width is capped at the SA table's own load bound
// (satable.MaxLoadWidth) and vectors at maxVectors. A derived session
// lives as long as the server, with its own run cache (and SA tables,
// for a new width), so maxDerivedSessions caps the distinct override
// configurations. maxIngestOps caps inline ingest graphs, and their
// rc.add and rc.mult, since the binders allocate and score every
// constrained unit; it still admits the 10032-op ctrl-10k tier.
const (
	maxVectors         = 100000
	maxDerivedSessions = 64
	maxIngestOps       = 16384
)

func (o configOverrides) apply(base flow.Config) (flow.Config, error) {
	cfg := base
	if o.Arch != "" {
		t, ok := arch.ByName(o.Arch)
		if !ok {
			return cfg, badRequest("unknown arch %q (want k4, k6, or asic)", o.Arch)
		}
		cfg.Arch = t
	}
	if o.Width < 0 || o.Width > satable.MaxLoadWidth {
		return cfg, badRequest("width %d outside [0, %d]", o.Width, satable.MaxLoadWidth)
	}
	if o.Vectors < 0 || o.Vectors > maxVectors {
		return cfg, badRequest("vectors %d outside [0, %d]", o.Vectors, maxVectors)
	}
	if o.Width > 0 {
		cfg.Width = o.Width
	}
	if o.Vectors > 0 {
		cfg.Vectors = o.Vectors
	}
	return cfg.Normalize(), nil
}

// binderFor resolves a request's binder spec. Alpha applies to the
// hlpower binder only (default 0.5, the paper's headline setting);
// AlphaBinders' canonical naming keeps server runs cache-compatible
// with CLI alpha sweeps.
func binderFor(name string, alpha *float64) (flow.Binder, error) {
	switch name {
	case "", "hlpower":
		a := 0.5
		if alpha != nil {
			a = *alpha
		}
		if a < 0 || a > 1 {
			return flow.Binder{}, badRequest("alpha %v out of range [0,1]", a)
		}
		return flow.AlphaBinders([]float64{a})[0], nil
	case "lopass":
		if alpha != nil {
			return flow.Binder{}, badRequest("alpha applies to the hlpower binder only")
		}
		return flow.BinderLOPASS, nil
	default:
		return flow.Binder{}, badRequest("unknown binder %q (want lopass or hlpower)", name)
	}
}

// BindRequest is the POST /v1/bind body: one (benchmark, binder) run.
type BindRequest struct {
	configOverrides
	Bench  string   `json:"bench"`
	Binder string   `json:"binder,omitempty"` // "hlpower" (default) or "lopass"
	Alpha  *float64 `json:"alpha,omitempty"`  // hlpower's Eq. 4 weighting (default 0.5)
	// TimeoutMS bounds this request (0 = server default; capped at the
	// server maximum).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Stream switches the response to NDJSON: one {"type":"span"} event
	// per pipeline stage as it completes, then a final {"type":"result"}
	// or {"type":"error"} event.
	Stream bool `json:"stream,omitempty"`
}

// BindResult is the bind endpoint's result payload (also the "result"
// stream event's body).
type BindResult struct {
	Bench  string `json:"bench"`
	Binder string `json:"binder"`
	// Warm reports whether the run was already complete in the session
	// cache when the request arrived (a durable-store hit that replays
	// the whole run also reports warm=false on its first demand — the
	// store serves stage artifacts, not liveness).
	Warm        bool    `json:"warm"`
	ElapsedMS   float64 `json:"elapsed_ms"`
	PowerMW     float64 `json:"power_mw"`
	GlitchShare float64 `json:"glitch_share"`
	ClockNs     float64 `json:"clock_ns"`
	LUTs        int     `json:"luts"`
	Depth       int     `json:"depth"`
	MuxLen      int     `json:"mux_len"`
	Regs        int     `json:"regs"`
}

func bindResult(p workload.Profile, b flow.Binder, r *flow.Result, warm bool, elapsed time.Duration) BindResult {
	return BindResult{
		Bench:       p.Name,
		Binder:      b.Name,
		Warm:        warm,
		ElapsedMS:   float64(elapsed.Nanoseconds()) / 1e6,
		PowerMW:     r.Power.DynamicPowerMW,
		GlitchShare: r.Power.GlitchShare,
		ClockNs:     r.Power.ClockPeriodNs,
		LUTs:        r.LUTs,
		Depth:       r.Depth,
		MuxLen:      r.FUMux.Length,
		Regs:        r.NumRegs,
	}
}

func (s *Server) handleBind(w http.ResponseWriter, r *http.Request) error {
	var req BindRequest
	if err := decodeBody(w, r, &req); err != nil {
		return err
	}
	p, ok := workload.ByName(req.Bench)
	if !ok {
		return notFound("unknown benchmark %q", req.Bench)
	}
	b, err := binderFor(req.Binder, req.Alpha)
	if err != nil {
		return err
	}
	se, ctx, done, err := s.admit(r, req.configOverrides, req.TimeoutMS)
	if err != nil {
		return err
	}
	defer done()

	_, warm := se.Peek(p, b)
	if warm {
		s.warmHits.Add(1)
	}
	start := time.Now()
	if !req.Stream {
		res, err := se.Run(ctx, p, b)
		if err != nil {
			return err
		}
		writeJSON(w, http.StatusOK, bindResult(p, b, res, warm, time.Since(start)))
		return nil
	}
	return s.streamBind(w, ctx, se, p, b, warm, start)
}

// streamEvent is one NDJSON line of a streaming bind response.
type streamEvent struct {
	Type   string         `json:"type"` // "span", "result", "error"
	Span   *pipeline.Span `json:"span,omitempty"`
	Result *BindResult    `json:"result,omitempty"`
	Error  string         `json:"error,omitempty"`
}

// streamBind runs the pair with a live trace, emitting one NDJSON event
// per completed stage. The 200 status is committed before the run
// starts, so failures surface as a final "error" event, not a status.
func (s *Server) streamBind(w http.ResponseWriter, ctx context.Context, se *flow.Session, p workload.Profile, b flow.Binder, warm bool, start time.Time) error {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	var mu sync.Mutex
	emit := func(ev streamEvent) {
		mu.Lock()
		defer mu.Unlock()
		enc.Encode(ev)
		if fl != nil {
			fl.Flush()
		}
	}
	tr := new(pipeline.Trace)
	// Stage observers fire concurrently from worker goroutines; emit
	// serializes them onto the response.
	tr.SetObserver(func(sp pipeline.Span) {
		emit(streamEvent{Type: "span", Span: &sp})
	})
	res, err := se.Run(pipeline.WithTraces(ctx, tr), p, b)
	if err != nil {
		emit(streamEvent{Type: "error", Error: err.Error()})
		return nil
	}
	br := bindResult(p, b, res, warm, time.Since(start))
	emit(streamEvent{Type: "result", Result: &br})
	return nil
}

// SweepRequest is the POST /v1/sweep body: the full benchmark suite
// crossed with a binder matrix. With Alphas set the matrix is HLPower
// at each alpha; otherwise it is the paper's standard three binders.
type SweepRequest struct {
	configOverrides
	Alphas    []float64 `json:"alphas,omitempty"`
	KeepGoing bool      `json:"keepgoing,omitempty"`
	TimeoutMS int64     `json:"timeout_ms,omitempty"`
}

// SweepPair is one (benchmark, binder) outcome of a sweep response.
type SweepPair struct {
	Bench   string  `json:"bench"`
	Binder  string  `json:"binder"`
	OK      bool    `json:"ok"`
	Error   string  `json:"error,omitempty"`
	PowerMW float64 `json:"power_mw,omitempty"`
	LUTs    int     `json:"luts,omitempty"`
	Depth   int     `json:"depth,omitempty"`
}

// SweepResponse summarizes a sweep: per-pair outcomes plus counts.
type SweepResponse struct {
	Completed int         `json:"completed"`
	Failed    int         `json:"failed"`
	ElapsedMS float64     `json:"elapsed_ms"`
	Pairs     []SweepPair `json:"pairs"`
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) error {
	var req SweepRequest
	if err := decodeBody(w, r, &req); err != nil {
		return err
	}
	var binders []flow.Binder
	if len(req.Alphas) > 0 {
		for _, a := range req.Alphas {
			if a < 0 || a > 1 {
				return badRequest("alpha %v out of range [0,1]", a)
			}
		}
		binders = flow.AlphaBinders(req.Alphas)
	}
	se, ctx, done, err := s.admit(r, req.configOverrides, req.TimeoutMS)
	if err != nil {
		return err
	}
	defer done()

	start := time.Now()
	rep, err := se.Sweep(ctx, flow.SweepOptions{Binders: binders, KeepGoing: req.KeepGoing})
	if rep == nil {
		return err
	}
	// A failed pair under keep-going is data, not a request failure;
	// without keep-going a failure still returns the partial report so
	// the client sees which pair broke. Only a wholly-failed sweep
	// (e.g. deadline hit before anything completed) maps to an error
	// status.
	if err != nil && rep.Completed() == 0 {
		return err
	}
	resp := SweepResponse{
		Completed: rep.Completed(),
		Failed:    len(rep.Failures()),
		ElapsedMS: float64(time.Since(start).Nanoseconds()) / 1e6,
		Pairs:     make([]SweepPair, len(rep.Pairs)),
	}
	for i, ps := range rep.Pairs {
		sp := SweepPair{Bench: ps.Bench, Binder: ps.Binder, OK: ps.OK()}
		if ps.Failure != nil {
			sp.Error = ps.Failure.Cause
		} else if ps.Result != nil {
			sp.PowerMW = ps.Result.Power.DynamicPowerMW
			sp.LUTs = ps.Result.LUTs
			sp.Depth = ps.Result.Depth
		}
		resp.Pairs[i] = sp
	}
	writeJSON(w, http.StatusOK, resp)
	return nil
}

// ArchSweepRequest is the POST /v1/archsweep body: the two-binder
// comparison across target architectures (default: all presets).
type ArchSweepRequest struct {
	configOverrides
	Targets   []string `json:"targets,omitempty"` // e.g. ["k4","k6","asic"]
	TimeoutMS int64    `json:"timeout_ms,omitempty"`
}

// ArchSweepResponse wraps the flow's cross-architecture rows.
type ArchSweepResponse struct {
	ElapsedMS float64             `json:"elapsed_ms"`
	Rows      []flow.ArchSweepRow `json:"rows"`
}

func (s *Server) handleArchSweep(w http.ResponseWriter, r *http.Request) error {
	var req ArchSweepRequest
	if err := decodeBody(w, r, &req); err != nil {
		return err
	}
	targets := arch.Presets()
	if len(req.Targets) > 0 {
		targets = targets[:0:0]
		for _, name := range req.Targets {
			t, ok := arch.ByName(name)
			if !ok {
				return badRequest("unknown arch %q (want k4, k6, or asic)", name)
			}
			targets = append(targets, t)
		}
	}
	se, ctx, done, err := s.admit(r, req.configOverrides, req.TimeoutMS)
	if err != nil {
		return err
	}
	defer done()

	start := time.Now()
	rows, err := flow.ArchSweepData(ctx, se, targets)
	if err != nil {
		return err
	}
	writeJSON(w, http.StatusOK, ArchSweepResponse{
		ElapsedMS: float64(time.Since(start).Nanoseconds()) / 1e6,
		Rows:      rows,
	})
	return nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) error {
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "draining\n")
		return nil
	}
	io.WriteString(w, "ok\n")
	return nil
}

// Statsz is the GET /statsz payload: admission, cache, and store
// counters for operators and the CI smoke test.
type Statsz struct {
	InFlight int64 `json:"in_flight"` // running + queued flow requests
	Requests int64 `json:"requests"`  // admitted flow requests
	Shed     int64 `json:"shed"`      // 429 responses
	Panics   int64 `json:"panics"`    // handler panics recovered
	WarmHits int64 `json:"warm_hits"` // responses served warm
	Sessions int   `json:"sessions"`  // distinct configurations derived
	Draining bool  `json:"draining"`

	// Stages holds the shared stage cache's per-class counters: demands
	// served from memory, from the store and by computing, and the
	// nanoseconds spent computing and waiting — where a long-lived
	// daemon's pipeline time has actually gone.
	Stages map[string]pipeline.Stats `json:"stages"`
	Store  *store.Stats              `json:"store,omitempty"`

	// Ingest counts /v1/ingest submissions. Each is admitted on its own
	// like every flow request, so an admitted one also counts in
	// Requests and a shed one in Shed.
	Ingest IngestStatsz `json:"ingest"`
	// BindStats surfaces the binding engine's per-binding reports —
	// including the edge-store mode and memory accounting — for every
	// HLPower binding the shared stage cache holds. Per-iteration detail
	// is trimmed (it can run to thousands of rounds on scale graphs).
	BindStats []flow.BindStat `json:"bind_stats,omitempty"`
}

// IngestStatsz is the /statsz ingest section. Requests counts the
// submissions with a valid graph and binder, shed ones included;
// Batches counts the admitted ones (each submission is its own batch).
type IngestStatsz struct {
	Requests int64 `json:"requests"`
	Batches  int64 `json:"batches"`
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) error {
	s.mu.Lock()
	nSessions := len(s.sessions)
	s.mu.Unlock()
	st := Statsz{
		InFlight: s.load.Load(),
		Requests: s.requests.Load(),
		Shed:     s.shed.Load(),
		Panics:   s.panics.Load(),
		WarmHits: s.warmHits.Load(),
		Sessions: nSessions,
		Draining: s.draining.Load(),
		Stages:   s.base.StageStats(),
		Ingest: IngestStatsz{
			Requests: s.ingestRequests.Load(),
			Batches:  s.ingestAdmitted.Load(),
		},
	}
	st.BindStats = s.base.BindStats()
	for i, bs := range st.BindStats {
		if bs.Report != nil && len(bs.Report.Iters) > 0 {
			r := *bs.Report
			r.Iters = nil
			st.BindStats[i].Report = &r
		}
	}
	if s.opts.Store != nil {
		ss := s.opts.Store.Stats()
		st.Store = &ss
	}
	writeJSON(w, http.StatusOK, st)
	return nil
}
