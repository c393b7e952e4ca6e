package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cdfg"
	"repro/internal/flow"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/workload"
)

// The daemon workload drives an in-process hlpowerd (server.Server over
// a fresh durable store) on loopback from workers() closed-loop clients,
// in two phases:
//
//   - serve: a seeded stream of small CDFGs through /v1/ingest, each
//     graph sent twice (the second is served warm), with /v1/bind
//     requests for paper benchmarks mixed in near the front. This is
//     compute plus store writes.
//   - restart: the daemon drains, a new one reopens the same store, and
//     the clients replay each distinct request the serve phase
//     completed. This is store reads.
//
// The serve phase gets the first three quarters of the run, the restart
// phase at most the rest.

// daemonWorkload configures the traffic.
type daemonWorkload struct {
	// dir is where the run's store directories are created.
	dir string
	// graphs is the number of distinct ingest graphs in the stream.
	graphs int
	// benches are requested through /v1/bind, each with both binders.
	benches []string
	// vectors overrides the flow's 1000 simulation vectors when > 0.
	vectors int
	// requests caps the serve phase (0 = run for the serve time).
	requests int
}

func defaultDaemon(dir string) daemonWorkload {
	return daemonWorkload{dir: dir, graphs: 400, benches: []string{"pr", "wang", "honda", "mcm"}}
}

// request is one HTTP request of the traffic stream.
type request struct {
	path string
	body []byte
	// d is the design the request binds (with its one binder), keyed
	// like every other workload's designs.
	d   design
	key string
}

// traffic builds the seeded request stream: every ingest graph twice, in
// shuffled order, with the bind requests inserted among the first
// 4×len(binds) positions so every run completes them.
func traffic(seed int64, w daemonWorkload) ([]request, error) {
	rng := rand.New(rand.NewSource(seed))
	var list []request
	for i := 0; i < w.graphs; i++ {
		b := binders[i%len(binders)]
		d, body, err := ingestGraph(rng, fmt.Sprintf("g%03d", i), b)
		if err != nil {
			return nil, err
		}
		r := request{path: "/v1/ingest", body: body, d: d, key: d.key(b)}
		list = append(list, r, r)
	}
	rng.Shuffle(len(list), func(i, j int) { list[i], list[j] = list[j], list[i] })
	var binds []request
	for _, name := range w.benches {
		p, ok := workload.ByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown benchmark %q", name)
		}
		for _, b := range binders {
			body, err := json.Marshal(server.BindRequest{Bench: name, Binder: binderKey(b)})
			if err != nil {
				return nil, err
			}
			d := design{name: name, profile: &p, only: []flow.Binder{b}}
			binds = append(binds, request{path: "/v1/bind", body: body, d: d, key: d.key(b)})
		}
	}
	for _, r := range binds {
		pos := rng.Intn(min(4*len(binds), len(list)) + 1)
		list = append(list[:pos], append([]request{r}, list[pos:]...)...)
	}
	return list, nil
}

// ingestGraph draws one small random CDFG (3-6 inputs, 6-24 operations
// whose operands come mostly from the last few values, every unread
// value an output) and returns it both as a design and as the
// /v1/ingest body the server rebuilds the same graph from.
func ingestGraph(rng *rand.Rand, name string, b flow.Binder) (design, []byte, error) {
	kinds := []cdfg.NodeKind{cdfg.KindAdd, cdfg.KindAdd, cdfg.KindSub, cdfg.KindMult, cdfg.KindMult}
	kindName := map[cdfg.NodeKind]string{cdfg.KindAdd: "add", cdfg.KindSub: "sub", cdfg.KindMult: "mult"}
	g := cdfg.NewGraph(name)
	req := server.IngestRequest{Name: name, Binder: binderKey(b)}
	var ids []int
	var names []string
	nIn := 3 + rng.Intn(4)
	for i := 0; i < nIn; i++ {
		n := fmt.Sprintf("i%d", i)
		ids = append(ids, g.AddInput(n))
		names = append(names, n)
		req.Inputs = append(req.Inputs, n)
	}
	read := make([]bool, nIn)
	nOps := 6 + rng.Intn(19)
	for i := 0; i < nOps; i++ {
		lo := max(0, len(ids)-6)
		a := lo + rng.Intn(len(ids)-lo)
		c := lo + (a-lo+1+rng.Intn(len(ids)-lo-1))%(len(ids)-lo)
		k := kinds[rng.Intn(len(kinds))]
		n := fmt.Sprintf("o%d", i)
		ids = append(ids, g.AddOp(k, n, ids[a], ids[c]))
		read[a], read[c] = true, true
		read = append(read, false)
		names = append(names, n)
		req.Ops = append(req.Ops, server.IngestOp{Name: n, Kind: kindName[k], Args: []string{names[a], names[c]}})
	}
	for j := nIn; j < len(ids); j++ {
		if !read[j] {
			g.MarkOutput(ids[j])
			req.Outputs = append(req.Outputs, names[j])
		}
	}
	rc := cdfg.ResourceConstraint{Add: 1 + rng.Intn(2), Mult: 1 + rng.Intn(2)}
	req.RC = server.IngestRC{Add: rc.Add, Mult: rc.Mult}
	body, err := json.Marshal(req)
	return design{name: name, graph: g, rc: rc, only: []flow.Binder{b}}, body, err
}

// daemon is one running in-process hlpowerd.
type daemon struct {
	url    string
	cancel context.CancelFunc
	done   chan error
}

// startDaemon opens the store in dir, starts a server over it on a
// loopback port and waits until /healthz answers: the daemon's set-up.
func startDaemon(client *http.Client, dir string, vectors int) (*daemon, error) {
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return nil, err
	}
	srv := server.New(server.Options{Cfg: flowConfig(0, vectors), Store: st})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.Close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	d := &daemon{url: "http://" + ln.Addr().String(), cancel: cancel, done: make(chan error, 1)}
	go func() { d.done <- srv.Serve(ctx, ln) }()
	resp, err := client.Get(d.url + "/healthz")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: HTTP %d", resp.StatusCode)
		}
	}
	if err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// stop drains the daemon, which flushes and closes its store, and waits
// for Serve to return.
func (d *daemon) stop() error {
	d.cancel()
	return <-d.done
}

func (d *daemon) statsz(client *http.Client) (*server.Statsz, error) {
	resp, err := client.Get(d.url + "/statsz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st server.Statsz
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("statsz: %w", err)
	}
	if st.Store == nil {
		return nil, fmt.Errorf("statsz: no store section")
	}
	return &st, nil
}

// reply is one completed request.
type reply struct {
	out     outcome
	latency time.Duration
	err     error
}

func post(ctx context.Context, client *http.Client, url string, r request) (outcome, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+r.path, bytes.NewReader(r.body))
	if err != nil {
		return outcome{}, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return outcome{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return outcome{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return outcome{}, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	var o outcome // the bind and ingest responses share these field names
	if err := json.Unmarshal(body, &o); err != nil {
		return outcome{}, err
	}
	return o, nil
}

// drive sends list in order from workers() closed-loop clients until
// the list ends or stop(i) is true for the next position, and returns
// the replies by position (nil where nothing was sent).
func drive(ctx context.Context, client *http.Client, url string, list []request, stop func(i int) bool) []*reply {
	replies := make([]*reply, len(list))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < workers(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(list) || stop(i) {
					return
				}
				t := time.Now()
				o, err := post(ctx, client, url, list[i])
				replies[i] = &reply{out: o, latency: time.Since(t), err: err}
			}
		}()
	}
	wg.Wait()
	return replies
}

// runDaemon measures the daemon workload (see the comment at the top of
// this file).
func runDaemon(ctx context.Context, p params, w daemonWorkload) (*result, error) {
	res := &result{metrics: map[string]float64{}}
	list, err := traffic(p.seed, w)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(w.dir, 0o755); err != nil {
		return nil, err
	}
	transport := &http.Transport{MaxIdleConnsPerHost: workers()}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport}

	// Set-up: open a store and start a daemon over it, measured several
	// times. Each worker restarts its daemon on a store directory of its
	// own, so every repetition after its first opens an existing store,
	// as a restarted hlpowerd does: timing the creation of fresh stores
	// would time this host's disk (directory creation and discards run to
	// milliseconds at random) rather than the daemon.
	var reps atomic.Int64
	newDir := func() string {
		return filepath.Join(w.dir, fmt.Sprintf("daemon-%d-%d", os.Getpid(), reps.Add(1)))
	}
	setupDirs := make([]string, workers())
	for i := range setupDirs {
		setupDirs[i] = newDir()
		defer os.RemoveAll(setupDirs[i])
	}
	setup, err := measureSetup(func(worker int) (time.Duration, error) {
		t := time.Now()
		d, err := startDaemon(client, setupDirs[worker], w.vectors)
		if err != nil {
			return 0, err
		}
		el := time.Since(t)
		return el, d.stop()
	})
	if err != nil {
		return nil, err
	}
	dir := newDir()
	defer os.RemoveAll(dir)
	d, err := startDaemon(client, dir, w.vectors)
	if err != nil {
		return nil, err
	}
	defer func() {
		if d != nil {
			d.stop()
		}
	}()

	// Serve phase.
	lastBind := 0
	for i, r := range list {
		if r.path == "/v1/bind" {
			lastBind = i
		}
	}
	serveFor := p.seconds * 3 / 4
	start := time.Now()
	replies := drive(ctx, client, d.url, list, func(i int) bool {
		if p.record {
			return false
		}
		if w.requests > 0 {
			return i >= w.requests
		}
		return i > lastBind && time.Since(start) >= serveFor
	})
	serveWall := time.Since(start)
	serveStats, err := d.statsz(client)
	if err != nil {
		return nil, err
	}
	err = d.stop()
	d = nil
	if err != nil {
		return nil, fmt.Errorf("drain: %w", err)
	}

	served := make(map[string]outcome)
	var distinct []request
	var lat []float64
	for i, rp := range replies {
		if rp == nil {
			continue
		}
		res.attempted++
		r := list[i]
		if rp.err != nil {
			res.fail("%s %s: %v", r.path, r.key, rp.err)
			continue
		}
		lat = append(lat, rp.latency.Seconds()*1e3)
		if first, ok := served[r.key]; ok {
			for _, df := range rp.out.diff(first) {
				res.fail("%s: repeat: %s", r.key, df)
			}
			continue
		}
		served[r.key] = rp.out
		distinct = append(distinct, r)
	}
	for _, r := range list[:lastBind+1] {
		if _, ok := served[r.key]; !ok && r.path == "/v1/bind" {
			res.fail("%s: bind request not completed", r.key)
		}
	}
	res.designs = served
	if !p.record && p.seed == 0 {
		res.checkAgainst(served, p.expected, expectedFile)
	} else if !p.record {
		// The bind requests run at the daemon's default seeds whatever the
		// traffic seed, so they are pinned at every seed.
		binds := make(map[string]outcome)
		for _, r := range distinct {
			if r.path == "/v1/bind" {
				binds[r.key] = served[r.key]
			}
		}
		res.checkAgainst(binds, p.expected, expectedFile)
	}

	// Restart phase.
	t := time.Now()
	d, err = startDaemon(client, dir, w.vectors)
	if err != nil {
		return nil, fmt.Errorf("restart: %w", err)
	}
	reopen := time.Since(t)
	rstart := time.Now()
	restartFor := p.seconds - serveFor
	rreplies := drive(ctx, client, d.url, distinct, func(int) bool {
		return !p.record && w.requests == 0 && time.Since(rstart) >= restartFor
	})
	restartStats, err := d.statsz(client)
	if err != nil {
		return nil, err
	}
	err = d.stop()
	d = nil
	if err != nil {
		return nil, fmt.Errorf("restart drain: %w", err)
	}
	var rlat []float64
	for i, rp := range rreplies {
		if rp == nil {
			continue
		}
		res.attempted++
		r := distinct[i]
		if rp.err != nil {
			res.fail("restart %s %s: %v", r.path, r.key, rp.err)
			continue
		}
		rlat = append(rlat, rp.latency.Seconds()*1e3)
		for _, df := range rp.out.diff(served[r.key]) {
			res.fail("%s: after restart: %s", r.key, df)
		}
	}
	if len(lat) == 0 || len(rlat) == 0 {
		return nil, fmt.Errorf("no request completed: %v", res.mismatches)
	}

	var bindDesigns []design
	for _, name := range w.benches {
		prof, _ := workload.ByName(name)
		bindDesigns = append(bindDesigns, design{name: name, profile: &prof})
	}
	res.info = append(res.info,
		infoRow{"op_p90_ms", percentile(lat, 90), "ms"},
		infoRow{"requests", float64(len(lat)), "count"},
		infoRow{"restart_p50_ms", median(rlat), "ms"},
		infoRow{"restart_p90_ms", percentile(rlat, 90), "ms"},
		infoRow{"restart_requests", float64(len(rlat)), "count"},
		infoRow{"restart_open_s", reopen.Seconds(), "s"},
	)
	if p.traced {
		m := res.metrics
		var hits, demands int
		for _, st := range serveStats.Stages {
			hits += st.Hits
			demands += st.Hits + st.Misses
		}
		m["pipeline.stage_hit_frac"] = ratio(float64(hits), float64(demands))
		m["store.hits"] = float64(restartStats.Store.Hits)
		m["store.puts"] = float64(serveStats.Store.Puts)
		m["store.bytes"] = float64(serveStats.Store.Bytes)
		m["server.ingest_batch_mean"] = ratio(float64(serveStats.Ingest.Requests), float64(serveStats.Ingest.Batches))
		res.info = append(res.info, infoRow{"setup_s", setup, "s"})
		// One design per graph or benchmark, with every binder it was
		// requested with, as the daemon's stage cache shares its front end.
		var designs []design
		at := make(map[string]int)
		for _, r := range distinct {
			if i, ok := at[r.d.name]; ok {
				designs[i].only = append(designs[i].only, r.d.only...)
				continue
			}
			at[r.d.name] = len(designs)
			r.d.only = append([]flow.Binder(nil), r.d.only...)
			designs = append(designs, r.d)
		}
		return res, reexecute(ctx, newLayerRunner(flowConfig(0, w.vectors)), designs, served, res)
	}
	res.metrics["op_p50_ms"] = median(lat)
	res.metrics["ops_per_s"] = float64(len(lat)) / serveWall.Seconds()
	res.metrics["setup_s"] = setup
	res.metrics["peak_rss_mb"] = peakRSSMB()
	qor(res, served, bindDesigns)
	return res, nil
}
