package server

import (
	"context"
	"net/http"
	"sync"
	"time"

	"repro/internal/cdfg"
	"repro/internal/flow"
)

// Streaming ingestion: POST /v1/ingest accepts one small CDFG per
// request, described inline as JSON, and binds it through the shared
// flow session. The scenario is many small graphs arriving
// continuously — an HLS front end emitting kernels as it lowers them —
// where admitting every request individually would burn an admission
// slot (and a queue position) per tiny graph. Requests are therefore
// batched: the first arrival becomes the batch leader, waits
// BatchWindow for peers to accumulate, then processes up to BatchMax
// submissions under a single admission slot. Identical graphs in one
// batch (and across batches) collapse in the session's
// content-addressed run cache, so a stream with duplicates does the
// expensive work once. Waiting submissions are bounded like waiting
// requests: with BatchMax × MaxQueue of them pending (MaxQueue full
// batches), a new one is shed with 429 + Retry-After.

// IngestOp is one operation of an inline CDFG: kind "add", "sub", or
// "mult", args naming two prior inputs or ops.
type IngestOp struct {
	Name string   `json:"name"`
	Kind string   `json:"kind"`
	Args []string `json:"args"`
}

// IngestRC is the inline resource constraint.
type IngestRC struct {
	Add  int `json:"add"`
	Mult int `json:"mult"`
}

// IngestRequest is the POST /v1/ingest body: an inline CDFG plus the
// binder to run. Graphs share the server's base configuration unless
// overridden.
type IngestRequest struct {
	configOverrides
	Name    string     `json:"name"`
	Inputs  []string   `json:"inputs"`
	Ops     []IngestOp `json:"ops"`
	Outputs []string   `json:"outputs"`
	RC      IngestRC   `json:"rc"`
	Binder  string     `json:"binder,omitempty"` // "hlpower" (default) or "lopass"
	Alpha   *float64   `json:"alpha,omitempty"`
	// TimeoutMS bounds this submission end to end, including the batch
	// wait (0 = server default).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// IngestResult is the ingest endpoint's response payload.
type IngestResult struct {
	Name string `json:"name"`
	// Batch is the number of submissions the request's batch carried —
	// >1 means the request shared its admission slot with peers.
	Batch     int     `json:"batch"`
	ElapsedMS float64 `json:"elapsed_ms"`
	PowerMW   float64 `json:"power_mw"`
	LUTs      int     `json:"luts"`
	Depth     int     `json:"depth"`
	MuxLen    int     `json:"mux_len"`
	Regs      int     `json:"regs"`
}

// buildIngestGraph validates the inline spec, resource constraint
// included, and lowers it to a validated CDFG. Each constrained unit is
// allocated and scored by the binders, so rc is bounded like the op
// count: more units than ops can never be used.
func buildIngestGraph(req *IngestRequest) (*cdfg.Graph, error) {
	if req.Name == "" {
		return nil, badRequest("ingest: name is required")
	}
	if len(req.Ops) == 0 {
		return nil, badRequest("ingest: at least one op is required")
	}
	if len(req.Ops) > maxIngestOps {
		return nil, badRequest("ingest: %d ops exceed the maximum %d", len(req.Ops), maxIngestOps)
	}
	if req.RC.Add < 1 || req.RC.Mult < 1 {
		return nil, badRequest("ingest: rc.add and rc.mult must be >= 1")
	}
	if req.RC.Add > maxIngestOps || req.RC.Mult > maxIngestOps {
		return nil, badRequest("ingest: rc.add %d / rc.mult %d exceed the maximum %d", req.RC.Add, req.RC.Mult, maxIngestOps)
	}
	g := cdfg.NewGraph(req.Name)
	ids := make(map[string]int, len(req.Inputs)+len(req.Ops))
	for _, in := range req.Inputs {
		if _, dup := ids[in]; dup {
			return nil, badRequest("ingest: duplicate name %q", in)
		}
		ids[in] = g.AddInput(in)
	}
	for _, op := range req.Ops {
		var kind cdfg.NodeKind
		switch op.Kind {
		case "add":
			kind = cdfg.KindAdd
		case "sub":
			kind = cdfg.KindSub
		case "mult":
			kind = cdfg.KindMult
		default:
			return nil, badRequest("ingest: op %q: unknown kind %q (want add, sub, or mult)", op.Name, op.Kind)
		}
		if len(op.Args) != 2 {
			return nil, badRequest("ingest: op %q: want exactly 2 args, got %d", op.Name, len(op.Args))
		}
		if _, dup := ids[op.Name]; dup {
			return nil, badRequest("ingest: duplicate name %q", op.Name)
		}
		a, ok := ids[op.Args[0]]
		if !ok {
			return nil, badRequest("ingest: op %q: unknown arg %q", op.Name, op.Args[0])
		}
		b, ok := ids[op.Args[1]]
		if !ok {
			return nil, badRequest("ingest: op %q: unknown arg %q", op.Name, op.Args[1])
		}
		ids[op.Name] = g.AddOp(kind, op.Name, a, b)
	}
	for _, out := range req.Outputs {
		id, ok := ids[out]
		if !ok {
			return nil, badRequest("ingest: unknown output %q", out)
		}
		g.MarkOutput(id)
	}
	if err := g.Validate(); err != nil {
		return nil, badRequest("ingest: invalid graph: %v", err)
	}
	return g, nil
}

// ingestItem is one submission waiting in the batcher.
type ingestItem struct {
	g    *cdfg.Graph
	rc   cdfg.ResourceConstraint
	b    flow.Binder
	se   *flow.Session
	ctx  context.Context
	done chan ingestOut // buffered(1): the leader never blocks on delivery
}

type ingestOut struct {
	res   *flow.Result
	batch int
	err   error
}

// batcher accumulates ingest submissions and elects the first submitter
// of an idle batcher as leader. The leader loops: sleep one window,
// take up to max pending submissions, process them as one batch, repeat
// until the queue drains, then abdicate.
type batcher struct {
	window time.Duration
	max    int

	mu      sync.Mutex
	pending []*ingestItem
	leading bool
}

// submit enqueues an item, starting a leader if none is active, and
// waits for the item's outcome (or its context). With the pending list
// full it sheds the item at once.
func (s *Server) submit(it *ingestItem) ingestOut {
	b := &s.batch
	b.mu.Lock()
	if len(b.pending) >= b.max*s.opts.MaxQueue {
		b.mu.Unlock()
		s.shed.Add(1)
		return ingestOut{err: errOverload}
	}
	b.pending = append(b.pending, it)
	if !b.leading {
		b.leading = true
		go s.lead()
	}
	b.mu.Unlock()
	select {
	case out := <-it.done:
		return out
	case <-it.ctx.Done():
		// The leader may still process the item; its buffered done send
		// is simply dropped.
		return ingestOut{err: it.ctx.Err()}
	}
}

// lead is the batch-leader loop.
func (s *Server) lead() {
	b := &s.batch
	for {
		time.Sleep(b.window)
		b.mu.Lock()
		n := len(b.pending)
		if n == 0 {
			b.leading = false
			b.mu.Unlock()
			return
		}
		if n > b.max {
			n = b.max
		}
		batch := b.pending[:n:n]
		b.pending = append([]*ingestItem(nil), b.pending[n:]...)
		b.mu.Unlock()
		s.processBatch(batch)
	}
}

// processBatch runs one batch under a single admission slot.
func (s *Server) processBatch(items []*ingestItem) {
	s.ingestBatches.Add(1)
	for {
		cur := s.ingestMaxBatch.Load()
		if int64(len(items)) <= cur || s.ingestMaxBatch.CompareAndSwap(cur, int64(len(items))) {
			break
		}
	}
	release, err := s.acquire(context.Background())
	if err != nil {
		// Queue full: the whole batch sheds as one unit.
		for _, it := range items {
			it.done <- ingestOut{err: err, batch: len(items)}
		}
		return
	}
	defer release()
	s.requests.Add(1)
	for _, it := range items {
		if it.ctx.Err() != nil {
			it.done <- ingestOut{err: it.ctx.Err(), batch: len(items)}
			continue
		}
		res, err := it.se.RunGraphCtx(it.ctx, it.g, it.g.Name, it.rc, it.b)
		it.done <- ingestOut{res: res, batch: len(items), err: err}
	}
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) error {
	var req IngestRequest
	if err := decodeBody(w, r, &req); err != nil {
		return err
	}
	g, err := buildIngestGraph(&req)
	if err != nil {
		return err
	}
	b, err := binderFor(req.Binder, req.Alpha)
	if err != nil {
		return err
	}
	se, err := s.session(req.configOverrides)
	if err != nil {
		return err
	}
	ctx, cancel := s.reqContext(r, req.TimeoutMS)
	defer cancel()
	s.ingestRequests.Add(1)

	start := time.Now()
	out := s.submit(&ingestItem{
		g: g, rc: cdfg.ResourceConstraint{Add: req.RC.Add, Mult: req.RC.Mult},
		b: b, se: se, ctx: ctx,
		done: make(chan ingestOut, 1),
	})
	if out.err != nil {
		return out.err
	}
	res := IngestResult{
		Name:      req.Name,
		Batch:     out.batch,
		ElapsedMS: float64(time.Since(start).Nanoseconds()) / 1e6,
		PowerMW:   out.res.Power.DynamicPowerMW,
		LUTs:      out.res.LUTs,
		Depth:     out.res.Depth,
		MuxLen:    out.res.FUMux.Length,
		Regs:      out.res.NumRegs,
	}
	writeJSON(w, http.StatusOK, res)
	return nil
}
