package server

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/cdfg"
)

// FuzzIngest throws arbitrary bodies at the /v1/ingest front half:
// decoding and buildIngestGraph, which validates the request, graph and
// resource constraint before any flow work. It must answer every
// malformed body with a 400, never panic, and accept only requests
// inside the ingest bounds whose graph validates.
func FuzzIngest(f *testing.F) {
	f.Add([]byte(ingestBody("seed")))
	f.Add([]byte(`{"name":"g","inputs":["a","b"],"ops":[{"name":"s","kind":"add","args":["a","b"]}],"outputs":["s"],"rc":{"add":1,"mult":1}}`))
	f.Add([]byte(`{"name":"g","inputs":["a","b"],"ops":[{"name":"s","kind":"sub","args":["a","b"]},{"name":"m","kind":"mult","args":["s","s"]}],"outputs":["m"],"rc":{"add":2,"mult":16384},"binder":"lopass"}`))
	f.Add([]byte(`{"name":"g","inputs":["a"],"ops":[{"name":"s","kind":"add","args":["a","a"]}],"outputs":["s"],"rc":{"add":3000000,"mult":1}}`))
	f.Add([]byte(`{"name":"g","inputs":["a","a"],"ops":[{"name":"a","kind":"xor","args":["a"]}],"outputs":["z"],"rc":{"add":0,"mult":-1}}`))
	f.Add([]byte(`{"name":"g","ops":[],"width":-1} trailing`))
	f.Fuzz(func(t *testing.T, body []byte) {
		var req IngestRequest
		var g *cdfg.Graph
		r := httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(body))
		err := decodeBody(httptest.NewRecorder(), r, &req)
		if err == nil {
			g, err = buildIngestGraph(&req)
		}
		if err != nil {
			var he *httpError
			if !errors.As(err, &he) || he.status != http.StatusBadRequest {
				t.Fatalf("rejection %v is not a 400", err)
			}
			return
		}
		if n := len(g.Ops()); n != len(req.Ops) || n > maxIngestOps {
			t.Fatalf("accepted a graph of %d ops from %d, bound %d", n, len(req.Ops), maxIngestOps)
		}
		if rc := req.RC; rc.Add < 1 || rc.Mult < 1 || rc.Add > maxIngestOps || rc.Mult > maxIngestOps {
			t.Fatalf("accepted rc %+v outside [1, %d]", rc, maxIngestOps)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted graph does not validate: %v", err)
		}
	})
}
