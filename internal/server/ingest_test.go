package server

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/flow"
	"repro/internal/pipeline"
)

// ingestBody builds a small valid inline-CDFG submission: two products
// summed, every op consumed.
func ingestBody(name string) string {
	return fmt.Sprintf(`{
		"name": %q,
		"inputs": ["a","b","c","d"],
		"ops": [
			{"name":"m1","kind":"mult","args":["a","b"]},
			{"name":"m2","kind":"mult","args":["c","d"]},
			{"name":"s","kind":"add","args":["m1","m2"]}
		],
		"outputs": ["s"],
		"rc": {"add":1,"mult":1}
	}`, name)
}

// TestIngestSingleAndErrors drives one submission end to end, checks a
// resubmission is served from the content-addressed run cache (same
// numbers), then walks the malformed-spec space.
func TestIngestSingleAndErrors(t *testing.T) {
	leak, fds := checkGoroutines(t), checkFDs(t)
	s := New(Options{Cfg: testConfig(), BatchWindow: time.Millisecond})
	ts := httptest.NewServer(s.Handler())

	var ir IngestResult
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/ingest", ingestBody("g1"))
	if resp.StatusCode != 200 {
		t.Fatalf("ingest: %d %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &ir); err != nil || ir.PowerMW <= 0 || ir.Batch < 1 {
		t.Fatalf("ingest body %s (err %v)", body, err)
	}
	first := ir

	resp, body = postJSON(t, ts.Client(), ts.URL+"/v1/ingest", ingestBody("g1"))
	if resp.StatusCode != 200 {
		t.Fatalf("re-ingest: %d %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &ir); err != nil {
		t.Fatal(err)
	}
	if ir.PowerMW != first.PowerMW || ir.LUTs != first.LUTs {
		t.Fatalf("re-ingested result drifted: %s", body)
	}

	for _, tc := range []struct {
		name, body string
	}{
		{"no name", `{"inputs":["a","b"],"ops":[{"name":"s","kind":"add","args":["a","b"]}],"outputs":["s"],"rc":{"add":1,"mult":1}}`},
		{"no ops", `{"name":"g","inputs":["a"],"ops":[],"outputs":[],"rc":{"add":1,"mult":1}}`},
		{"bad kind", `{"name":"g","inputs":["a","b"],"ops":[{"name":"s","kind":"xor","args":["a","b"]}],"outputs":["s"],"rc":{"add":1,"mult":1}}`},
		{"bad arity", `{"name":"g","inputs":["a","b"],"ops":[{"name":"s","kind":"add","args":["a"]}],"outputs":["s"],"rc":{"add":1,"mult":1}}`},
		{"unknown arg", `{"name":"g","inputs":["a","b"],"ops":[{"name":"s","kind":"add","args":["a","z"]}],"outputs":["s"],"rc":{"add":1,"mult":1}}`},
		{"dup name", `{"name":"g","inputs":["a","b"],"ops":[{"name":"a","kind":"add","args":["a","b"]}],"outputs":["a"],"rc":{"add":1,"mult":1}}`},
		{"unknown output", `{"name":"g","inputs":["a","b"],"ops":[{"name":"s","kind":"add","args":["a","b"]}],"outputs":["z"],"rc":{"add":1,"mult":1}}`},
		{"dead op", `{"name":"g","inputs":["a","b"],"ops":[{"name":"s","kind":"add","args":["a","b"]},{"name":"t","kind":"add","args":["a","b"]}],"outputs":["s"],"rc":{"add":1,"mult":1}}`},
		{"zero rc", `{"name":"g","inputs":["a","b"],"ops":[{"name":"s","kind":"add","args":["a","b"]}],"outputs":["s"],"rc":{"add":0,"mult":1}}`},
	} {
		resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/ingest", tc.body)
		if resp.StatusCode != 400 {
			t.Errorf("%s: got %d (%s), want 400", tc.name, resp.StatusCode, body)
		}
	}

	ts.Close()
	fds()
	leak()
}

// TestIngestBatching is the streaming scenario: concurrent submissions
// inside one batch window must share admission slots — /statsz reports
// fewer batches than requests and a max batch above one.
func TestIngestBatching(t *testing.T) {
	leak := checkGoroutines(t)
	s := New(Options{Cfg: testConfig(), BatchWindow: 300 * time.Millisecond})
	ts := httptest.NewServer(s.Handler())

	const n = 6
	var wg sync.WaitGroup
	errs := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/ingest", ingestBody(fmt.Sprintf("g%d", i)))
			if resp.StatusCode != 200 {
				errs[i] = fmt.Sprintf("status %d: %s", resp.StatusCode, body)
			}
		}(i)
	}
	wg.Wait()
	for i, e := range errs {
		if e != "" {
			t.Fatalf("submission %d: %s", i, e)
		}
	}

	resp, err := ts.Client().Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	var st Statsz
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.Ingest.Requests != n {
		t.Fatalf("ingest requests = %d, want %d", st.Ingest.Requests, n)
	}
	if st.Ingest.Batches >= st.Ingest.Requests {
		t.Fatalf("batches (%d) not below requests (%d): batching never engaged", st.Ingest.Batches, st.Ingest.Requests)
	}
	if st.Ingest.MaxBatch < 2 {
		t.Fatalf("max batch = %d, want >= 2", st.Ingest.MaxBatch)
	}
	if len(st.BindStats) == 0 {
		t.Fatal("statsz bind_stats empty after ingest runs")
	}
	for _, bs := range st.BindStats {
		if bs.Report.Mode == "" {
			t.Fatalf("bind_stats %s/%s missing edge-store mode: %+v", bs.Bench, bs.Algo, bs.Report)
		}
	}

	ts.Close()
	leak()
}

// TestIngestShedsBeyondQueue: ingest submissions count against the
// admission bound. With one slot, a one-deep queue and two submissions
// per batch, at most two submissions may wait; a burst of eight slow
// distinct graphs must shed the overflow with 429 + Retry-After while
// the admitted ones complete, and /statsz must count every 429.
func TestIngestShedsBeyondQueue(t *testing.T) {
	leak := checkGoroutines(t)
	fi := pipeline.NewFaultInjector(1, pipeline.FaultRule{Stage: flow.StageSim, PDelay: 1, Delay: 500 * time.Millisecond})
	s := New(Options{Cfg: testConfig(), MaxConcurrent: 1, MaxQueue: 1, BatchMax: 2, Injector: fi})
	ts := httptest.NewServer(s.Handler())

	const n = 8
	codes := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, _ := postJSON(t, ts.Client(), ts.URL+"/v1/ingest", ingestBody(fmt.Sprintf("g%d", i)))
			codes[i] = resp.StatusCode
			if resp.StatusCode == 429 && resp.Header.Get("Retry-After") == "" {
				t.Error("429 without Retry-After")
			}
		}(i)
	}
	wg.Wait()
	var ok, shed int
	for _, c := range codes {
		switch c {
		case 200:
			ok++
		case 429:
			shed++
		default:
			t.Errorf("unexpected status %d", c)
		}
	}
	if ok == 0 || shed == 0 {
		t.Fatalf("codes %v: want some 200s and some 429s", codes)
	}

	resp, err := ts.Client().Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	var st Statsz
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if int(st.Shed) != shed || st.Ingest.Requests != n {
		t.Fatalf("statsz shed %d, ingest requests %d; observed %d 429s of %d", st.Shed, st.Ingest.Requests, shed, n)
	}

	ts.Close()
	leak()
}
