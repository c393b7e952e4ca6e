// Package satable implements the precalculated switching-activity table
// of paper §5.2.2: for every combination of functional unit and input
// multiplexer sizes, the gate-level partial datapath is generated, run
// through the glitch-aware technology mapper, and its estimated SA
// stored. The table persists to a text file and loads into a hash map at
// binder start-up, giving O(1) edge-weight lookups; missing entries are
// computed lazily (and cached), so the binder also works without a
// precomputed file — the paper verified both paths give identical
// binding results.
//
// The cache underneath is the shared pipeline.Cache primitive the
// experiment harness builds its stage cache on: concurrent misses on one
// key are deduplicated (singleflight), so the expensive netgen -> mapper
// computation runs exactly once per key no matter how many binder
// goroutines demand it.
package satable

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"repro/internal/arch"
	"repro/internal/mapper"
	"repro/internal/netgen"
	"repro/internal/par"
	"repro/internal/pipeline"
	"repro/internal/prob"
	"repro/internal/store"
)

// Estimator selects the SA model used to fill the table.
type Estimator int

const (
	// EstimatorGlitch is the paper's estimator: unit-delay glitch-aware
	// SA of the mapped partial datapath (GlitchMap-derived).
	EstimatorGlitch Estimator = iota
	// EstimatorNajm is a glitch-blind ablation: zero-delay Najm
	// transition densities on the same mapped netlist. Najm's
	// single-input-switching assumption makes it a known overestimator.
	EstimatorNajm
	// EstimatorZeroDelay is the controlled glitch-blind ablation: the
	// same Chou–Roy switching model as EstimatorGlitch but without the
	// unit-delay time dimension, so it sees functional transitions only.
	EstimatorZeroDelay
)

func (e Estimator) String() string {
	switch e {
	case EstimatorGlitch:
		return "glitch"
	case EstimatorNajm:
		return "najm"
	case EstimatorZeroDelay:
		return "zerodelay"
	}
	return fmt.Sprintf("estimator(%d)", int(e))
}

// Key identifies one partial-datapath configuration.
type Key struct {
	Kind   netgen.FUKind
	KL, KR int
}

// saClass is the cache class table entries live under.
const saClass = "sa"

// keyString renders a Key as its cache key — the same "kind kl kr"
// triple the Save format's rows lead with.
func keyString(k Key) string {
	return fmt.Sprintf("%s %d %d", k.Kind, k.KL, k.KR)
}

// parseKey inverts keyString.
func parseKey(s string) (Key, error) {
	var kind string
	var kl, kr int
	if _, err := fmt.Sscanf(s, "%s %d %d", &kind, &kl, &kr); err != nil {
		return Key{}, fmt.Errorf("satable: bad key %q: %w", s, err)
	}
	return Key{Kind: netgen.FUKind(kind), KL: kl, KR: kr}, nil
}

// Table caches SA values per (FU, mux sizes) configuration. It is safe
// for concurrent use: entries live in a singleflight pipeline.Cache, so
// concurrent misses on the same key share one expensive netgen -> mapper
// computation.
type Table struct {
	// Width is the datapath bit width the entries were computed for.
	Width int
	// Est selects the SA model.
	Est Estimator
	// Arch is the target architecture the entries were characterized
	// under: its K drives the embedded mapper and its fingerprint stamps
	// Save/Load snapshots, so a table characterized for one fabric can
	// never silently serve another (see CheckArch).
	Arch arch.Target
	// MapOpt configures the embedded technology mapper.
	MapOpt mapper.Options

	cache *pipeline.Cache
}

// New returns an empty table for the given datapath width, characterized
// under the default Cyclone II architecture.
func New(width int, est Estimator) *Table {
	return NewForArch(width, est, arch.CycloneII())
}

// NewForArch returns an empty table characterized under the given
// target architecture: the embedded mapper covers with the target's
// LUT input count.
func NewForArch(width int, est Estimator, t arch.Target) *Table {
	return &Table{
		Width:  width,
		Est:    est,
		Arch:   t,
		MapOpt: mapper.OptionsForArch(t),
		cache:  pipeline.NewCache(),
	}
}

// Fingerprint canonically identifies the table's characterization: the
// datapath width, estimator, target architecture, and embedded mapper
// options — everything the entry values are deterministic in. Equal
// fingerprints mean interchangeable entries, which is the contract the
// durable store's sa@<fingerprint> class namespace is built on: a table
// characterized for one fabric can never warm-start another.
func (t *Table) Fingerprint() string {
	h := pipeline.NewHasher().Int(t.Width).Int(int(t.Est)).Str(t.Arch.Fingerprint())
	return t.MapOpt.HashInto(h).Sum()
}

// AttachStore backs the table's entry cache with a durable store:
// misses consult the store before paying the netgen → mapper
// characterization, and every computed entry is written through.
// Entries live under the class "sa@<table fingerprint>", so one store
// safely serves any number of widths, estimators, and architectures.
func (t *Table) AttachStore(st *store.Store) {
	class := "sa@" + t.Fingerprint()
	st.RegisterCodec("sa@", saCodec{store.Float64()})
	t.cache.SetBacking(pipeline.RenameBacking(st, func(string) string { return class }))
}

// checkSA is the one validity rule for SA values that arrive from
// outside the characterizer, snapshot rows (Load) and store entries
// (saCodec) alike: an SA value is a finite, non-negative number.
func checkSA(sa float64) error {
	if math.IsNaN(sa) || math.IsInf(sa, 0) || sa < 0 {
		return fmt.Errorf("SA value %g is not a finite non-negative number", sa)
	}
	return nil
}

// saCodec is the sa@ classes' store codec: store.Float64's exact round
// trip, with each decoded value held to checkSA. A decode error makes
// the store quarantine the entry, so a bad value is recomputed instead
// of reaching the Eq. 4 weights.
type saCodec struct{ store.Codec }

func (c saCodec) Decode(r io.Reader) (any, error) {
	v, err := c.Codec.Decode(r)
	if err != nil {
		return nil, err
	}
	if err := checkSA(v.(float64)); err != nil {
		return nil, fmt.Errorf("satable: %w", err)
	}
	return v, nil
}

// CheckArch reports an error when the table was characterized under a
// different architecture than want, naming both fingerprints. Callers
// adopting a loaded (or shared) table must check before binding with
// it: SA values are arch-specific, and a mismatched table would
// silently corrupt cross-arch comparisons.
func (t *Table) CheckArch(want arch.Target) error {
	got, wantFP := t.Arch.Fingerprint(), want.Fingerprint()
	if got != wantFP {
		return fmt.Errorf("satable: table characterized under arch %s cannot serve arch %s", got, wantFP)
	}
	return nil
}

// Get returns the estimated SA for the configuration, computing and
// caching it if absent. Mux sizes are clamped to >= 1.
//
// Get is the binder's hot-path accessor and keeps its historical
// value-only signature; it panics if the underlying computation fails
// (unknown FU kind, unmappable partial datapath), which only a
// programming bug can cause for the validated kinds the binders pass.
// Code handling untrusted or dynamic keys should call GetE instead —
// and any panic escaping here inside a pipeline stage is converted into
// a structured StageError by the stage's recovery boundary.
func (t *Table) Get(kind netgen.FUKind, kl, kr int) float64 {
	v, err := t.GetE(context.Background(), kind, kl, kr)
	if err != nil {
		panic(fmt.Sprintf("satable: %v", err))
	}
	return v
}

// GetE is Get with an error return: a failed computation (unknown FU
// kind, mapper failure, cancellation while waiting on another
// goroutine's in-flight computation) is reported instead of panicking.
// Mux sizes are clamped to >= 1. Errors are never cached, so a failed
// key heals on the next demand.
func (t *Table) GetE(ctx context.Context, kind netgen.FUKind, kl, kr int) (float64, error) {
	if kl < 1 {
		kl = 1
	}
	if kr < 1 {
		kr = 1
	}
	key := keyString(Key{Kind: kind, KL: kl, KR: kr})
	v, _, err := t.cache.Do(ctx, saClass, key, func() (any, error) {
		return t.compute(kind, kl, kr)
	})
	if err != nil {
		return 0, err
	}
	return v.(float64), nil
}

// compute generates the partial datapath, maps it, and estimates SA —
// the "dynamic SA estimation" path of §5.2.2. Generator and mapper
// failures (including panics from invalid FU kinds) come back as
// errors so a bad key cannot take down a sweep.
func (t *Table) compute(kind netgen.FUKind, kl, kr int) (sa float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("satable: computing %s(%d,%d): %v", kind, kl, kr, r)
		}
	}()
	net := netgen.PartialDatapathNetwork(kind, kl, kr, t.Width)
	res, err := mapper.Map(net, t.MapOpt)
	if err != nil {
		return 0, fmt.Errorf("satable: mapping %s(%d,%d): %w", kind, kl, kr, err)
	}
	switch t.Est {
	case EstimatorNajm:
		e := prob.EstimateNetwork(res.Mapped, prob.MethodNajm, prob.DefaultSources())
		return e.TotalActivity(res.Mapped), nil
	case EstimatorZeroDelay:
		e := prob.EstimateNetwork(res.Mapped, prob.MethodChouRoy, prob.DefaultSources())
		return e.TotalActivity(res.Mapped), nil
	default:
		return res.EstSA, nil
	}
}

// Misses returns how many unique entries were computed lazily (not
// served from a preloaded file or cache). Concurrent misses on the same
// key share one computation and count once.
func (t *Table) Misses() int {
	return t.cache.StatsFor(saClass).Misses
}

// Len returns the number of cached entries.
func (t *Table) Len() int {
	return t.cache.Len(saClass)
}

// PrecomputeCtx fills the table for every FU kind and all mux-size
// combinations up to maxMux inputs per port, computing missing entries
// on up to jobs workers (jobs <= 0 selects GOMAXPROCS). Entries are
// independent, so the filled table is identical to a serial fill.
// Workers stop picking up new entries once ctx is done and the call
// returns ctx's error. A partially filled table stays valid — completed
// entries are kept and the next call resumes from them. The first
// computation error (in key order, deterministic for any worker count)
// is returned.
func (t *Table) PrecomputeCtx(ctx context.Context, maxMux, jobs int) error {
	var keys []Key
	for _, kind := range []netgen.FUKind{netgen.FUAdd, netgen.FUMult} {
		for kl := 1; kl <= maxMux; kl++ {
			for kr := 1; kr <= maxMux; kr++ {
				keys = append(keys, Key{Kind: kind, KL: kl, KR: kr})
			}
		}
	}
	_, err := t.GetBatch(ctx, keys, jobs)
	return err
}

// GetBatch returns the SA values for keys in order, computing missing
// entries concurrently on up to jobs workers (jobs <= 0 selects
// GOMAXPROCS). This is the binding engine's scoring-round prefetch: one
// call resolves every distinct mux shape a round demands, overlapping
// the expensive netgen -> mapper characterizations instead of paying
// them serially edge by edge. Values are identical to sequential Get
// calls for any worker count, mux sizes are clamped to >= 1 like GetE,
// and concurrent misses on one key still share a single computation.
// On failure the first error in key order (deterministic for any worker
// count) is returned; completed entries remain cached.
func (t *Table) GetBatch(ctx context.Context, keys []Key, jobs int) ([]float64, error) {
	vals := make([]float64, len(keys))
	errs := make([]error, len(keys))
	par.For(len(keys), jobs, func(_, i int) {
		if err := ctx.Err(); err != nil {
			errs[i] = err
			return
		}
		vals[i], errs[i] = t.GetE(ctx, keys[i].Kind, keys[i].KL, keys[i].KR)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return vals, nil
}

// Save writes the table as a text file (one "kind kl kr sa" row per
// entry), the storage format the paper describes. An out-of-range
// estimator is a save error: writing est=estimator(N) would produce a
// file Load itself rejects.
func (t *Table) Save(w io.Writer) error {
	switch t.Est {
	case EstimatorGlitch, EstimatorNajm, EstimatorZeroDelay:
	default:
		return fmt.Errorf("satable: cannot save table with invalid estimator %s", t.Est)
	}
	snap := t.cache.Snapshot(saClass)
	keys := make([]Key, 0, len(snap))
	vals := make(map[Key]float64, len(snap))
	for ks, v := range snap {
		k, err := parseKey(ks)
		if err != nil {
			return err
		}
		keys = append(keys, k)
		vals[k] = v.(float64)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Kind != keys[j].Kind {
			return keys[i].Kind < keys[j].Kind
		}
		if keys[i].KL != keys[j].KL {
			return keys[i].KL < keys[j].KL
		}
		return keys[i].KR < keys[j].KR
	})
	if _, err := fmt.Fprintf(w, "# hlpower-satable width=%d est=%s arch=%s\n", t.Width, t.Est, t.Arch.Fingerprint()); err != nil {
		return err
	}
	for _, k := range keys {
		if _, err := fmt.Fprintf(w, "%s %d %d %.9g\n", k.Kind, k.KL, k.KR, vals[k]); err != nil {
			return err
		}
	}
	return nil
}

// Bounds Load accepts. Wider than anything the flow generates, tight
// enough that a corrupt file cannot smuggle in absurd configurations
// that later panic the partial-datapath generator or mapper.
// MaxLoadWidth is exported so other untrusted-input boundaries (the
// daemon's per-request width override) apply the same datapath bound.
const (
	MaxLoadWidth = 64
	maxLoadMux   = 256
)

// Load reads a table saved by Save. The estimator/width/architecture
// are recovered from the header; snapshots from before arch stamping
// carry no arch token and load as the default Cyclone II target (the
// only architecture that ever produced them). Loading never silently
// retargets: adopt a loaded table only after CheckArch against the
// architecture you intend to bind for.
//
// The input is treated as untrusted: a malformed header, an unknown
// estimator or FU kind, out-of-range widths or mux sizes, and
// non-finite or negative SA values are all load errors — never panics,
// and never entries that would poison a later binder run. (Entries a
// Save never emits used to flow straight into the cache and blow up
// deep inside netgen on first use.)
func Load(r io.Reader) (*Table, error) {
	sc := bufio.NewScanner(r)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("satable: reading header: %w", err)
		}
		return nil, fmt.Errorf("satable: empty input")
	}
	header := sc.Text()
	var width int
	var estName string
	if _, err := fmt.Sscanf(header, "# hlpower-satable width=%d est=%s", &width, &estName); err != nil {
		return nil, fmt.Errorf("satable: bad header %q: %w", header, err)
	}
	if width < 1 || width > MaxLoadWidth {
		return nil, fmt.Errorf("satable: header width %d out of range [1,%d]", width, MaxLoadWidth)
	}
	var est Estimator
	switch estName {
	case "glitch":
		est = EstimatorGlitch
	case "najm":
		est = EstimatorNajm
	case "zerodelay":
		est = EstimatorZeroDelay
	default:
		return nil, fmt.Errorf("satable: unknown estimator %q in header", estName)
	}
	tgt := arch.CycloneII()
	for _, field := range strings.Fields(header) {
		fp, ok := strings.CutPrefix(field, "arch=")
		if !ok {
			continue
		}
		parsed, err := arch.ParseFingerprint(fp)
		if err != nil {
			return nil, fmt.Errorf("satable: header %q: %w", header, err)
		}
		// The parsed target carries the stamped physics but no display
		// name; keep the fingerprint as the label.
		parsed.Name = fp
		tgt = parsed
		break
	}
	t := NewForArch(width, est, tgt)
	lineNo := 1
	// offset tracks the byte position of the current line's start so a
	// truncated or corrupt file reports *where* it broke and how many
	// rows survived — what makes a store quarantine log actionable
	// (dd/truncate straight to the damage) rather than just "bad row".
	offset := int64(len(header)) + 1
	seen := make(map[string]int)
	// rowErr decorates a row-level failure with its provenance: byte
	// offset of the offending line and rows recovered before it.
	rowErr := func(off int64, format string, args ...any) error {
		return fmt.Errorf("satable: line %d (byte offset %d, %d rows recovered): %w",
			lineNo, off, len(seen), fmt.Errorf(format, args...))
	}
	for sc.Scan() {
		lineNo++
		lineStart := offset
		offset += int64(len(sc.Bytes())) + 1
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var kind string
		var kl, kr int
		var sa float64
		if _, err := fmt.Sscanf(line, "%s %d %d %g", &kind, &kl, &kr, &sa); err != nil {
			return nil, rowErr(lineStart, "%w", err)
		}
		switch netgen.FUKind(kind) {
		case netgen.FUAdd, netgen.FUMult:
		default:
			return nil, rowErr(lineStart, "unknown FU kind %q", kind)
		}
		if kl < 1 || kl > maxLoadMux || kr < 1 || kr > maxLoadMux {
			return nil, rowErr(lineStart, "mux sizes (%d,%d) out of range [1,%d]", kl, kr, maxLoadMux)
		}
		if err := checkSA(sa); err != nil {
			return nil, rowErr(lineStart, "%w", err)
		}
		ks := keyString(Key{Kind: netgen.FUKind(kind), KL: kl, KR: kr})
		if prev, dup := seen[ks]; dup {
			return nil, rowErr(lineStart, "duplicate entry (%s %d %d) shadows line %d", kind, kl, kr, prev)
		}
		seen[ks] = lineNo
		t.cache.Put(saClass, ks, sa)
	}
	if err := sc.Err(); err != nil {
		return nil, rowErr(offset, "%w", err)
	}
	return t, nil
}
