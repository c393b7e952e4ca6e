package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/satable"
)

// chainIngest builds an ingest request of n ops: a single add chain
// over two inputs, every op consumed by the next and the last one
// marked as the output.
func chainIngest(n int) *IngestRequest {
	req := &IngestRequest{Name: "chain", Inputs: []string{"a", "b"}, RC: IngestRC{Add: 1, Mult: 1}}
	prev := "a"
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("o%d", i)
		req.Ops = append(req.Ops, IngestOp{Name: name, Kind: "add", Args: []string{prev, "b"}})
		prev = name
	}
	req.Outputs = []string{prev}
	return req
}

// TestSizeBounds pins each untrusted-size cap: the value at the bound
// is accepted, and the value one past it is rejected as a 400 whose
// message names the bound. Width and vectors are also bounded below:
// zero means the base configuration, a negative value is a 400.
func TestSizeBounds(t *testing.T) {
	base := testConfig()
	for _, o := range []configOverrides{{Width: -1}, {Width: -3}, {Vectors: -1}, {Vectors: -5}} {
		var he *httpError
		if _, err := o.apply(base); !errors.As(err, &he) || he.status != http.StatusBadRequest {
			t.Errorf("%+v: got %v, want a 400", o, err)
		}
	}
	if cfg, err := (configOverrides{}).apply(base); err != nil || cfg.Width != base.Width || cfg.Vectors != base.Vectors {
		t.Errorf("zero overrides: width %d vectors %d err %v, want the base %d/%d",
			cfg.Width, cfg.Vectors, err, base.Width, base.Vectors)
	}

	for _, tc := range []struct {
		name  string
		bound int
		check func(n int) error
	}{
		{"width", satable.MaxLoadWidth, func(n int) error {
			_, err := configOverrides{Width: n}.apply(testConfig())
			return err
		}},
		{"vectors", maxVectors, func(n int) error {
			_, err := configOverrides{Vectors: n}.apply(testConfig())
			return err
		}},
		{"ingest ops", maxIngestOps, func(n int) error {
			_, err := buildIngestGraph(chainIngest(n))
			return err
		}},
		{"ingest rc.add", maxIngestOps, func(n int) error {
			req := chainIngest(3)
			req.RC.Add = n
			_, err := buildIngestGraph(req)
			return err
		}},
		{"ingest rc.mult", maxIngestOps, func(n int) error {
			req := chainIngest(3)
			req.RC.Mult = n
			_, err := buildIngestGraph(req)
			return err
		}},
	} {
		if err := tc.check(tc.bound); err != nil {
			t.Errorf("%s at the bound %d rejected: %v", tc.name, tc.bound, err)
		}
		var he *httpError
		if err := tc.check(tc.bound + 1); !errors.As(err, &he) || he.status != http.StatusBadRequest {
			t.Errorf("%s one past the bound %d: got %v, want a 400", tc.name, tc.bound, err)
		} else if !strings.Contains(he.msg, strconv.Itoa(tc.bound)) {
			t.Errorf("%s rejection %q does not name the bound %d", tc.name, he.msg, tc.bound)
		}
	}
}

// TestOversizedRequestsRejectedOverHTTP drives the bounds through the
// endpoints: each oversized request is refused with 400 before any
// flow work starts.
func TestOversizedRequestsRejectedOverHTTP(t *testing.T) {
	s := New(Options{Cfg: testConfig()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	bigGraph, err := json.Marshal(chainIngest(maxIngestOps + 1))
	if err != nil {
		t.Fatal(err)
	}
	w := satable.MaxLoadWidth
	for _, tc := range []struct {
		path, body string
		bound      int
	}{
		{"/v1/bind", fmt.Sprintf(`{"bench":"pr","width":%d}`, w+1), w},
		{"/v1/bind", fmt.Sprintf(`{"bench":"pr","vectors":%d}`, maxVectors+1), maxVectors},
		{"/v1/bind", `{"bench":"pr","vectors":-1}`, maxVectors},
		{"/v1/sweep", `{"alphas":[0.5],"width":-2}`, w},
		{"/v1/sweep", fmt.Sprintf(`{"alphas":[0.5],"width":%d}`, w+1), w},
		{"/v1/ingest", fmt.Sprintf(`{"width":%d,"name":"g","inputs":["a","b"],"ops":[{"name":"s","kind":"add","args":["a","b"]}],"outputs":["s"],"rc":{"add":1,"mult":1}}`, w+1), w},
		{"/v1/ingest", string(bigGraph), maxIngestOps},
		{"/v1/ingest", fmt.Sprintf(`{"name":"g","inputs":["a","b"],"ops":[{"name":"s","kind":"add","args":["a","b"]}],"outputs":["s"],"rc":{"add":%d,"mult":1}}`, maxIngestOps+1), maxIngestOps},
		{"/v1/ingest", fmt.Sprintf(`{"name":"g","inputs":["a","b"],"ops":[{"name":"s","kind":"add","args":["a","b"]}],"outputs":["s"],"rc":{"add":1,"mult":%d}}`, 3000000), maxIngestOps},
	} {
		resp, body := postJSON(t, ts.Client(), ts.URL+tc.path, tc.body)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), strconv.Itoa(tc.bound)) {
			t.Errorf("%s: got %d (%.200s), want a 400 naming the bound %d", tc.path, resp.StatusCode, body, tc.bound)
		}
	}
}
