package server

import (
	"net/http"
	"time"

	"repro/internal/cdfg"
)

// Streaming ingestion: POST /v1/ingest accepts one small CDFG per
// request, described inline as JSON, and binds it through the shared
// flow session. The scenario is many small graphs arriving
// continuously — an HLS front end emitting kernels as it lowers them.
// Each submission is admitted like every other flow request (admit):
// it takes an execution slot or waits in the bounded queue, and is shed
// with 429 + Retry-After when the queue is full. Binding results are
// per graph, so submissions need no grouping: identical graphs, whether
// concurrent or repeated, collapse in the session's content-addressed
// run cache, so a stream with duplicates does the expensive work once.

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
	// TimeoutMS bounds this submission end to end, including the
	// admission wait (0 = server default).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// IngestResult is the ingest endpoint's response payload.
type IngestResult struct {
	Name      string  `json:"name"`
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
	s.ingestRequests.Add(1)
	se, ctx, done, err := s.admit(r, req.configOverrides, req.TimeoutMS)
	if err != nil {
		return err
	}
	defer done()
	s.ingestAdmitted.Add(1)

	start := time.Now()
	res, err := se.RunGraphCtx(ctx, g, g.Name, cdfg.ResourceConstraint{Add: req.RC.Add, Mult: req.RC.Mult}, b)
	if err != nil {
		return err
	}
	writeJSON(w, http.StatusOK, IngestResult{
		Name:      req.Name,
		ElapsedMS: float64(time.Since(start).Nanoseconds()) / 1e6,
		PowerMW:   res.Power.DynamicPowerMW,
		LUTs:      res.LUTs,
		Depth:     res.Depth,
		MuxLen:    res.FUMux.Length,
		Regs:      res.NumRegs,
	})
	return nil
}
