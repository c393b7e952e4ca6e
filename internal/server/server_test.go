package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/flow"
	"repro/internal/pipeline"
	"repro/internal/store"
)

// testConfig is a small fast configuration for server tests.
func testConfig() flow.Config {
	cfg := flow.DefaultConfig()
	cfg.Vectors = 20
	return cfg
}

// checkGoroutines fails the test if goroutines leaked relative to the
// count captured at call time, retrying with backoff so goroutines
// already unwinding don't flake the check (same hand-rolled goleak
// stand-in as the flow failure tests).
func checkGoroutines(t *testing.T) func() {
	t.Helper()
	before := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			runtime.GC()
			if n := runtime.NumGoroutine(); n <= before {
				return
			}
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				buf = buf[:runtime.Stack(buf, true)]
				t.Fatalf("goroutine leak: %d before, %d after\n%s",
					before, runtime.NumGoroutine(), buf)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// checkFDs fails the test if file descriptors leaked (sockets,
// listener, store files), with the same unwinding tolerance.
func checkFDs(t *testing.T) func() {
	t.Helper()
	count := func() int {
		des, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			return -1 // not a procfs platform; check degrades to a no-op
		}
		return len(des)
	}
	before := count()
	return func() {
		t.Helper()
		if before < 0 {
			return
		}
		deadline := time.Now().Add(5 * time.Second)
		for {
			if n := count(); n <= before {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("fd leak: %d before, %d after", before, count())
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

func postJSON(t *testing.T, client *http.Client, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := client.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

// TestBindWarmAndErrors drives the bind endpoint through its response
// shapes: cold 200, warm 200, 404 unknown bench, 400 bad binder and
// malformed body — with goroutine and fd leak checks bracketing it all.
func TestBindWarmAndErrors(t *testing.T) {
	leak, fds := checkGoroutines(t), checkFDs(t)
	s := New(Options{Cfg: testConfig()})
	ts := httptest.NewServer(s.Handler())

	var br BindResult
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/bind", `{"bench":"pr","binder":"hlpower"}`)
	if resp.StatusCode != 200 {
		t.Fatalf("cold bind: %d %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &br); err != nil || br.Warm || br.PowerMW <= 0 {
		t.Fatalf("cold bind body %s (err %v)", body, err)
	}
	cold := br

	resp, body = postJSON(t, ts.Client(), ts.URL+"/v1/bind", `{"bench":"pr","binder":"hlpower"}`)
	if resp.StatusCode != 200 {
		t.Fatalf("warm bind: %d %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &br); err != nil || !br.Warm {
		t.Fatalf("second bind not warm: %s", body)
	}
	if br.PowerMW != cold.PowerMW || br.LUTs != cold.LUTs {
		t.Fatalf("warm result drifted: %s", body)
	}

	for _, tc := range []struct {
		body string
		want int
	}{
		{`{"bench":"nosuch"}`, 404},
		{`{"bench":"pr","binder":"magic"}`, 400},
		{`{"bench":"pr","alpha":3.0}`, 400},
		{`{"bench":"pr","binder":"lopass","alpha":0.5}`, 400},
		{`{"bench":"pr","arch":"k9"}`, 400},
		{`not json`, 400},
		{`{"bench":"pr","unknown_field":1}`, 400},
	} {
		resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/bind", tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("bind %s: got %d (%s), want %d", tc.body, resp.StatusCode, body, tc.want)
		}
		var eb errorBody
		if err := json.Unmarshal(body, &eb); err != nil || eb.Error == "" {
			t.Errorf("bind %s: error body %s not structured", tc.body, body)
		}
	}

	ts.Close()
	fds()
	leak()
}

// TestShedsLoadWith429: with one execution slot and a one-deep queue,
// a burst of slow requests must shed the overflow immediately with
// 429 + Retry-After while the admitted ones complete.
func TestShedsLoadWith429(t *testing.T) {
	leak := checkGoroutines(t)
	fi := pipeline.NewFaultInjector(1, pipeline.FaultRule{Stage: flow.StageSim, PDelay: 1, Delay: 2 * time.Second})
	s := New(Options{Cfg: testConfig(), MaxConcurrent: 1, MaxQueue: 1, Injector: fi})
	ts := httptest.NewServer(s.Handler())

	benches := []string{"pr", "wang", "mcm", "dir", "honda"}
	codes := make([]int, len(benches))
	var wg sync.WaitGroup
	for i, b := range benches {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, _ := postJSON(t, ts.Client(), ts.URL+"/v1/bind", fmt.Sprintf(`{"bench":%q}`, b))
			codes[i] = resp.StatusCode
			if resp.StatusCode == 429 && resp.Header.Get("Retry-After") == "" {
				t.Error("429 without Retry-After")
			}
		}()
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
	// 1 running + 1 queued may pass; everything else must shed. Exact
	// counts depend on arrival interleaving, but overflow is certain.
	if ok == 0 || shed < len(benches)-2 {
		t.Fatalf("codes %v: want some 200s and >=%d 429s", codes, len(benches)-2)
	}

	var st Statsz
	resp, body := func() (*http.Response, []byte) {
		r, err := ts.Client().Get(ts.URL + "/statsz")
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(r.Body)
		return r, buf.Bytes()
	}()
	if resp.StatusCode != 200 || json.Unmarshal(body, &st) != nil {
		t.Fatalf("statsz: %d %s", resp.StatusCode, body)
	}
	if int(st.Shed) != shed || st.InFlight != 0 {
		t.Fatalf("statsz %+v disagrees with observed shed=%d", st, shed)
	}

	ts.Close()
	leak()
}

// TestDeadlineExpiryIs504: a request whose deadline expires inside the
// pipeline (injected stall) maps to 504, and the stalled work unwinds
// without leaking goroutines.
func TestDeadlineExpiryIs504(t *testing.T) {
	leak := checkGoroutines(t)
	fi := pipeline.NewFaultInjector(1, pipeline.FaultRule{Stage: flow.StageSim, PDelay: 1, Delay: time.Minute})
	s := New(Options{Cfg: testConfig(), Injector: fi})
	ts := httptest.NewServer(s.Handler())

	start := time.Now()
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/bind", `{"bench":"pr","timeout_ms":300}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("stalled bind: %d %s, want 504", resp.StatusCode, body)
	}
	if e := time.Since(start); e > 10*time.Second {
		t.Fatalf("deadline took %v to fire", e)
	}
	ts.Close()
	leak()
}

// TestStreamingBind: a cold NDJSON response carries one span event per
// pipeline stage before the final result event, and an injected
// failure surfaces as a structured error event on the committed stream.
func TestStreamingBind(t *testing.T) {
	leak := checkGoroutines(t)
	s := New(Options{Cfg: testConfig()})
	ts := httptest.NewServer(s.Handler())

	resp, err := ts.Client().Post(ts.URL+"/v1/bind", "application/json",
		strings.NewReader(`{"bench":"pr","stream":true}`))
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content-type %q", ct)
	}
	var spans int
	var last streamEvent
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev streamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		if ev.Type == "span" {
			spans++
		}
		last = ev
	}
	resp.Body.Close()
	if spans != len(flow.StageNames) {
		t.Fatalf("cold stream carried %d span events, want one per stage (%d)", spans, len(flow.StageNames))
	}
	if last.Type != "result" || last.Result == nil || last.Result.PowerMW <= 0 {
		t.Fatalf("stream did not end in a result: %+v", last)
	}

	// Failure path: injected stage error becomes an error event.
	fi := pipeline.NewFaultInjector(1, pipeline.FaultRule{Stage: flow.StageMap, PError: 1})
	s2 := New(Options{Cfg: testConfig(), Injector: fi})
	ts2 := httptest.NewServer(s2.Handler())
	resp2, err := ts2.Client().Post(ts2.URL+"/v1/bind", "application/json",
		strings.NewReader(`{"bench":"wang","stream":true}`))
	if err != nil {
		t.Fatal(err)
	}
	var sawError bool
	sc2 := bufio.NewScanner(resp2.Body)
	for sc2.Scan() {
		var ev streamEvent
		json.Unmarshal(sc2.Bytes(), &ev)
		if ev.Type == "error" && ev.Error != "" {
			sawError = true
		}
	}
	resp2.Body.Close()
	if !sawError {
		t.Fatal("injected failure produced no error event")
	}

	ts.Close()
	ts2.Close()
	leak()
}

// TestPanicIsolation: a panic escaping a handler is converted to a 500
// JSON error by the wrapper and the daemon keeps serving. The panic is
// provoked at the flow layer via the injector's panic fault — which
// stage recovery converts to a StageError (500) — and at the handler
// layer via a request the mux cannot route (405), proving the process
// survives both.
func TestPanicIsolation(t *testing.T) {
	leak := checkGoroutines(t)
	fi := pipeline.NewFaultInjector(1, pipeline.FaultRule{Stage: flow.StageBind, PPanic: 1})
	s := New(Options{Cfg: testConfig(), Injector: fi})
	ts := httptest.NewServer(s.Handler())

	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/bind", `{"bench":"pr"}`)
	if resp.StatusCode != 500 {
		t.Fatalf("panicked bind: %d %s, want 500", resp.StatusCode, body)
	}
	var eb errorBody
	if json.Unmarshal(body, &eb) != nil || eb.Error == "" {
		t.Fatalf("panic error body %s not structured", body)
	}
	// Server must still be alive and serving.
	r, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil || r.StatusCode != 200 {
		t.Fatalf("healthz after panic: %v %v", err, r)
	}
	r.Body.Close()

	ts.Close()
	leak()
}

// TestServeDrainsInFlight: cancelling Serve's context while a request
// is executing must let it finish (graceful drain), flush and close the
// store, and release the listener, goroutines, and fds.
func TestServeDrainsInFlight(t *testing.T) {
	leak, fds := checkGoroutines(t), checkFDs(t)
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	fi := pipeline.NewFaultInjector(1, pipeline.FaultRule{Stage: flow.StageSim, PDelay: 1, Delay: 500 * time.Millisecond})
	s := New(Options{Cfg: testConfig(), Store: st, Injector: fi, DrainTimeout: 30 * time.Second})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(ctx, ln) }()

	url := "http://" + ln.Addr().String()
	client := &http.Client{}
	reqDone := make(chan int, 1)
	go func() {
		resp, err := client.Post(url+"/v1/bind", "application/json",
			strings.NewReader(`{"bench":"pr"}`))
		if err != nil {
			reqDone <- -1
			return
		}
		resp.Body.Close()
		reqDone <- resp.StatusCode
	}()

	// Let the request reach the stalled stage, then start the drain.
	time.Sleep(150 * time.Millisecond)
	cancel()

	if code := <-reqDone; code != 200 {
		t.Fatalf("in-flight request finished with %d, want 200 (drain must not kill it)", code)
	}
	select {
	case err := <-serveDone:
		if err != nil {
			t.Fatalf("Serve: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Serve did not return after drain")
	}

	// Serve closed the store: its artifacts are durable and its lock is
	// released — a restarted daemon can reopen and warm-start.
	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatalf("store locked or broken after drain: %v", err)
	}
	if st2.Len() == 0 {
		t.Fatal("drained store holds no artifacts")
	}
	st2.Close()

	client.CloseIdleConnections()
	fds()
	leak()
}

// TestHealthzDrainingIs503: once draining, the health endpoint flips to
// 503 so load balancers stop routing to the instance.
func TestHealthzDrainingIs503(t *testing.T) {
	s := New(Options{Cfg: testConfig()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	r, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil || r.StatusCode != 200 {
		t.Fatalf("healthz: %v %v", err, r)
	}
	r.Body.Close()
	s.draining.Store(true)
	r, err = ts.Client().Get(ts.URL + "/healthz")
	if err != nil || r.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz: %v %v", err, r)
	}
	r.Body.Close()
}

// TestSessionSharingAcrossConfigs: requests with config overrides get
// derived sessions (visible in statsz), and repeated overrides reuse
// one session rather than deriving per request.
func TestSessionSharingAcrossConfigs(t *testing.T) {
	s := New(Options{Cfg: testConfig()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i := 0; i < 2; i++ {
		resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/bind", `{"bench":"pr","arch":"k6"}`)
		if resp.StatusCode != 200 {
			t.Fatalf("k6 bind: %d %s", resp.StatusCode, body)
		}
	}
	s.mu.Lock()
	n := len(s.sessions)
	s.mu.Unlock()
	if n != 2 { // base + k6
		t.Fatalf("sessions = %d, want 2 (base + k6 override, reused)", n)
	}
}

// TestDerivedSessionCap: overrides derive at most maxDerivedSessions
// configurations. The next new one is refused with 503 naming the cap
// before any flow work, the session count stays at the base plus the
// cap, and a configuration already derived still resolves.
func TestDerivedSessionCap(t *testing.T) {
	s := New(Options{Cfg: testConfig()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// testConfig runs 20 vectors, so 101.. are all new configurations.
	for i := 1; i <= maxDerivedSessions; i++ {
		if _, err := s.session(configOverrides{Vectors: 100 + i}); err != nil {
			t.Fatalf("configuration %d refused: %v", i, err)
		}
	}
	body := fmt.Sprintf(`{"bench":"pr","vectors":%d}`, 100+maxDerivedSessions+1)
	resp, out := postJSON(t, ts.Client(), ts.URL+"/v1/bind", body)
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(out), fmt.Sprint(maxDerivedSessions)) {
		t.Fatalf("configuration %d: %d %s, want 503 naming the cap", maxDerivedSessions+1, resp.StatusCode, out)
	}

	r, err := ts.Client().Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	var st Statsz
	err = json.NewDecoder(r.Body).Decode(&st)
	r.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.Sessions != maxDerivedSessions+1 {
		t.Fatalf("sessions = %d, want %d (base + cap)", st.Sessions, maxDerivedSessions+1)
	}
	if _, err := s.session(configOverrides{Vectors: 101}); err != nil {
		t.Fatalf("derived configuration refused at the cap: %v", err)
	}
}
