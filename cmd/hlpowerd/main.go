// Command hlpowerd serves the HLPower reproduction flow over HTTP:
// binding-as-a-service on a shared artifact cache with an optional
// crash-safe durable store.
//
// Usage:
//
//	hlpowerd -addr :7090 -store /var/lib/hlpower
//
// Endpoints:
//
//	POST /v1/bind       {"bench":"pr","binder":"hlpower","alpha":0.5}
//	POST /v1/sweep      {"alphas":[0,0.5,1],"keepgoing":true}
//	POST /v1/archsweep  {"targets":["k4","k6","asic"]}
//	POST /v1/ingest     {"name":"g","inputs":[...],"ops":[...],"outputs":[...],"rc":{"add":2,"mult":2}}
//	GET  /healthz       liveness ("ok", or 503 "draining")
//	GET  /statsz        admission/cache/store/ingest counters as JSON
//
// /v1/ingest accepts small CDFGs inline and batches concurrent
// submissions: arrivals within -batchwindow of each other (up to
// -batchmax) share one admission slot, so a stream of small graphs
// cannot exhaust admission. Identical submissions collapse in the
// content-addressed run cache.
//
// Every flow endpoint accepts "arch", "width", "vectors" configuration
// overrides and "timeout_ms"; /v1/bind additionally accepts
// "stream":true for NDJSON per-stage progress. Concurrency is bounded:
// -maxconcurrent requests execute at once, -queue more may wait, and
// anything beyond that is shed with 429 + Retry-After.
//
// With -store DIR the daemon persists simulation counts, power reports,
// SA-table entries, and whole run results to DIR (atomic writes,
// per-entry checksums, corrupt entries quarantined and recomputed, LRU
// eviction under -storemax). A restarted daemon warm-starts from the
// store; a second daemon on the same DIR is refused by its lock.
//
// Shutdown: the first SIGINT/SIGTERM stops accepting connections,
// drains in-flight requests for up to -drain, then flushes and closes
// the store. A second signal forces exit with status 2. Exit status:
// 0 clean shutdown, 1 serve/drain failure, 2 bad usage or forced exit.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"time"

	"repro/internal/arch"
	"repro/internal/flow"
	"repro/internal/pipeline"
	"repro/internal/server"
	"repro/internal/sigctx"
	"repro/internal/store"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7090", "listen address")
		storeDir = flag.String("store", "", "durable artifact store directory (empty = memory-only)")
		storeMax = flag.Int64("storemax", 0, "store size bound in bytes, LRU-evicted past it (0 = unbounded)")
		archName = flag.String("arch", "k4", "base target architecture: k4, k6, or asic (requests may override)")
		width    = flag.Int("width", 8, "base datapath bit width")
		vectors  = flag.Int("vectors", 1000, "base random simulation vectors")
		jobs     = flag.Int("j", 0, "intra-request workers for sweeps, edge scoring, simulation and the back end; output is identical at every count (0 = GOMAXPROCS)")
		maxConc  = flag.Int("maxconcurrent", 0, "flow requests executing at once (0 = GOMAXPROCS)")
		queue    = flag.Int("queue", 0, "flow requests waiting for a slot before 429 (0 = 2x maxconcurrent)")
		reqTO    = flag.Duration("reqtimeout", 2*time.Minute, "default per-request deadline")
		maxTO    = flag.Duration("maxtimeout", 10*time.Minute, "cap on client-requested deadlines")
		drain    = flag.Duration("drain", 30*time.Second, "graceful-shutdown wait for in-flight requests")
		batchWin = flag.Duration("batchwindow", 25*time.Millisecond, "ingest batch accumulation window")
		batchMax = flag.Int("batchmax", 16, "max ingest submissions per batch")
		inject   = flag.String("inject", "", "arm the fault injector (hlpower -inject syntax, plus class/pshortwrite/pchecksumflip/penospc disk faults)")
	)
	flag.Parse()
	logger := log.New(os.Stderr, "hlpowerd: ", log.LstdFlags)

	target, ok := arch.ByName(*archName)
	if !ok {
		usageErr(fmt.Errorf("unknown -arch %q (want k4, k6, or asic)", *archName))
	}
	cfg := flow.DefaultConfig()
	cfg.Width = *width
	cfg.Vectors = *vectors
	cfg.BindJobs = *jobs
	cfg.SimJobs = *jobs
	cfg.MapJobs = *jobs
	cfg = cfg.WithArch(target)

	var fi *pipeline.FaultInjector
	if *inject != "" {
		var err error
		if fi, err = pipeline.ParseInjectSpec(*inject); err != nil {
			usageErr(err)
		}
		logger.Printf("fault injection armed: %s", *inject)
	}

	var st *store.Store
	if *storeDir != "" {
		var err error
		st, err = store.Open(*storeDir, store.Options{MaxBytes: *storeMax, Logf: logger.Printf})
		if err != nil {
			usageErr(fmt.Errorf("open store: %w", err))
		}
		logger.Printf("store %s: %d entries", st.Dir(), st.Len())
	}

	// First SIGINT/SIGTERM cancels ctx (Serve drains); a second forces
	// exit 2 inside sigctx.
	ctx, stop := sigctx.Notify(context.Background())
	defer stop()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		if st != nil {
			st.Close()
		}
		usageErr(err)
	}
	logger.Printf("listening on %s", ln.Addr())

	srv := server.New(server.Options{
		Cfg:            cfg,
		Store:          st, // Serve flushes and closes it after the drain
		MaxConcurrent:  *maxConc,
		MaxQueue:       *queue,
		DefaultTimeout: *reqTO,
		MaxTimeout:     *maxTO,
		DrainTimeout:   *drain,
		Jobs:           *jobs,
		BatchWindow:    *batchWin,
		BatchMax:       *batchMax,
		Injector:       fi,
		Logf:           logger.Printf,
	})
	if err := srv.Serve(ctx, ln); err != nil {
		logger.Printf("serve: %v", err)
		os.Exit(1)
	}
	logger.Printf("drained; store flushed; bye")
}

func usageErr(err error) {
	fmt.Fprintf(os.Stderr, "hlpowerd: %v\n", err)
	os.Exit(2)
}
