// Package core implements HLPower, the paper's contribution: an
// FPGA-targeted, glitch-aware, high-level functional-unit binding
// algorithm for power and area reduction (Algorithm 1).
//
// Binding proceeds iteratively: the operations of the densest control
// step per class seed the set U of allocated functional units; all other
// operations form V; a weighted bipartite graph between U and V is
// solved for maximum weight; matched nodes merge; and the process
// repeats until the resource constraint is met. Edge weights combine a
// gate-level, glitch-aware switching-activity estimate of the merged
// partial datapath (via the precalculated SA table) with explicit
// multiplexer balancing:
//
//	w(e) = alpha * 1/SA + (1-alpha) * 1/((muxDiff+1) * beta)     (Eq. 4)
//
// with beta ~ 30 for adders and ~ 1000 for multipliers.
//
// The iteration is run by an incremental engine (engine.go): edge
// weights persist across merge rounds in per-U-node candidate rows
// (sparse.go) and only edges incident to changed nodes are rescored,
// Eq. 4 is memoized per distinct mux shape, and fresh scoring fans out
// over a deterministic worker pool.
// Bindings are bit-identical to a full per-round rescore at every
// worker count.
package core

import (
	"fmt"
	"time"

	"repro/internal/binding"
	"repro/internal/cdfg"
	"repro/internal/netgen"
	"repro/internal/regbind"
	"repro/internal/satable"
)

// Options configures HLPower.
type Options struct {
	// Alpha balances SA against mux balancing in Eq. 4. The paper's main
	// results use 0.5; 1.0 disables the muxDiff term.
	Alpha float64
	// BetaAdd and BetaMult scale the muxDiff factor per FU class
	// (empirically ~30 for adds, ~1000 for mults per the paper).
	BetaAdd, BetaMult float64
	// Table is the precalculated SA store (required).
	Table *satable.Table
	// PortSeed drives the random port assignment when Swap is nil.
	PortSeed int64
	// Swap overrides the port assignment (shared with a baseline binder
	// for like-for-like comparison); nil derives one from PortSeed.
	Swap []bool
	// MergesPerIteration bounds how many matched pairs are combined per
	// bipartite solve. 0 combines every matched pair (one coarse
	// iteration per matching). Small values re-evaluate edge weights
	// after a few merges, trading runtime for solution quality; the
	// paper's complexity analysis (a linear number of bipartite solves)
	// corresponds to a small bound.
	MergesPerIteration int
	// Workers sets the scoring worker-pool size: 0 uses GOMAXPROCS,
	// 1 scores serially. The binding is identical at every setting —
	// parallelism only spreads pure per-edge evaluations; aggregation
	// is order-independent.
	Workers int
	// CandidateK bounds the per-U-node candidate rows. 0 selects the
	// bound automatically: runs whose largest FU class exceeds
	// sparseAutoMinNodes live nodes bound rows at DefaultCandidateK (and
	// the auto SA shape clamp); smaller runs keep rows with no bound,
	// bit-identical to a full per-round rescore. A positive value bounds
	// rows at that k for the whole run.
	CandidateK int
	// Exact keeps rows with no bound and the Hungarian solver regardless
	// of problem size — every compatible U×V pair is scored each round.
	// Small nets take this path automatically; the flag exists so large
	// nets can pay the quadratic cost when a reference binding is
	// wanted.
	Exact bool
	// ShapeCap clamps the (kL, kR) mux shape used for the SA lookup and
	// Eq. 4 in bounded rows, bounding SA-table cost on huge nets where
	// merged port sets reach hundreds of registers. 0 = automatic: the
	// DefaultShapeCap applies only when the row bound itself was
	// auto-selected (CandidateK == 0); explicitly bounded runs stay
	// unclamped so they remain weight-identical to rows with no bound.
	// Negative disables clamping; positive forces that cap on bounded
	// rows. Rows with no bound never clamp.
	ShapeCap int
}

// Row-bound defaults. DefaultCandidateK is the per-U-node candidate
// bound when scale mode auto-engages; sparseAutoMinNodes is the live
// node count past which a class is considered too large for rows with
// no bound; DefaultShapeCap bounds SA-lookup mux shapes in auto-sparse
// runs.
const (
	DefaultCandidateK  = 64
	DefaultShapeCap    = 64
	sparseAutoMinNodes = 384
)

// DefaultOptions returns the paper's configuration (alpha = 0.5).
func DefaultOptions(table *satable.Table) Options {
	return Options{Alpha: 0.5, BetaAdd: 30, BetaMult: 1000, Table: table, PortSeed: 1}
}

// IterationStat records one merge round of the engine — the
// per-iteration observability behind cmd/hlpower's -bindstats.
type IterationStat struct {
	// Iter is the 1-based merge-round number.
	Iter int `json:"iter"`
	// UNodes and VNodes are the bipartite partition sizes this round.
	UNodes int `json:"u_nodes"`
	VNodes int `json:"v_nodes"`
	// EdgesScored counts compatible edges whose weight was freshly
	// evaluated this round; EdgesReused counts compatible edges served
	// from the persistent candidate rows.
	EdgesScored int `json:"edges_scored"`
	EdgesReused int `json:"edges_reused"`
	// Merges is the number of matched pairs combined this round.
	Merges int `json:"merges"`
	// ScoreNs and SolveNs split the round's wall time between edge
	// scoring and the bipartite solve.
	ScoreNs int64 `json:"score_ns"`
	SolveNs int64 `json:"solve_ns"`
}

// Report carries run statistics (Table 2's runtime column and the
// iteration behaviour discussed in §5.2).
type Report struct {
	Iterations int `json:"iterations"`
	// EdgesScored counts freshly evaluated edge weights; EdgesReused
	// counts compatible edges answered from the persistent candidate
	// rows without re-evaluation. Their sum equals the compatible-edge count
	// a full per-round rescore would have evaluated.
	EdgesScored int `json:"edges_scored"`
	EdgesReused int `json:"edges_reused"`
	// WeightShapes is the number of distinct (kind, kL, kR) mux shapes
	// Eq. 4 was evaluated for — the size of the weight memo.
	WeightShapes int           `json:"weight_shapes"`
	TableMisses  int           `json:"table_misses"`
	Runtime      time.Duration `json:"runtime_ns"`
	// Mode records the row bound the run used: "exact" (rows with no
	// bound, every compatible pair scored and persisted) or "sparse"
	// (rows bounded at k candidates per U-node).
	Mode string `json:"mode"`
	// Memory accounting for the candidate rows — the source the
	// scale benchmarks' memory-budget gate and hlpowerd's /statsz read
	// from. EdgesResident and StoreBytes describe the store when the
	// run finished; the Peak variants track the largest footprint any
	// merge round left behind. StoreBytes is an estimate (entries ×
	// per-entry cost + per-row overhead), not a heap measurement.
	EdgesResident  int   `json:"edges_resident"`
	StoreBytes     int64 `json:"store_bytes"`
	PeakEdges      int   `json:"peak_edges"`
	PeakStoreBytes int64 `json:"peak_store_bytes"`
	// Iters holds one entry per merge round.
	Iters []IterationStat `json:"iters,omitempty"`
}

// InvalidationRatio returns the fraction of compatible edge queries
// that required fresh evaluation — 1.0 means no reuse (every round
// rescored everything), lower is better.
func (r *Report) InvalidationRatio() float64 {
	total := r.EdgesScored + r.EdgesReused
	if total == 0 {
		return 0
	}
	return float64(r.EdgesScored) / float64(total)
}

// Bind runs Algorithm 1 on a scheduled graph with a completed register
// binding and returns the functional-unit binding.
func Bind(g *cdfg.Graph, s *cdfg.Schedule, rb *regbind.Binding, rc cdfg.ResourceConstraint, opt Options) (*binding.Result, *Report, error) {
	start := time.Now()
	if opt.Table == nil {
		return nil, nil, fmt.Errorf("core: Options.Table is required")
	}
	if opt.Alpha < 0 || opt.Alpha > 1 {
		return nil, nil, fmt.Errorf("core: alpha %v out of [0,1]", opt.Alpha)
	}
	if err := cdfg.ValidateSchedule(g, s, rc); err != nil {
		return nil, nil, fmt.Errorf("core: %w", err)
	}
	rep := &Report{}
	missesBefore := opt.Table.Misses()

	res := binding.NewResult(g)
	if opt.Swap != nil {
		copy(res.SwapPorts, opt.Swap)
	} else {
		res.SwapPorts = binding.RandomPortAssignment(g, opt.PortSeed)
	}

	e := newEngine(g, s, rb, res, rc, opt)
	if err := e.run(rep); err != nil {
		return nil, nil, err
	}
	e.materialize(res)

	rep.WeightShapes = len(e.memo)
	rep.TableMisses = opt.Table.Misses() - missesBefore
	rep.Mode = "exact"
	if e.bounded {
		rep.Mode = "sparse"
	}
	rep.EdgesResident, rep.StoreBytes = e.memFootprint()
	rep.Runtime = time.Since(start)
	if err := res.Validate(g, s, rc); err != nil {
		return nil, nil, fmt.Errorf("core: produced invalid binding: %w", err)
	}
	return res, rep, nil
}

// limitFor returns the resource-constraint bound for an FU class.
func limitFor(rc cdfg.ResourceConstraint, class netgen.FUKind) int {
	if class == netgen.FUAdd {
		return rc.Add
	}
	return rc.Mult
}
