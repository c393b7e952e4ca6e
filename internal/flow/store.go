package flow

// This file connects a Session to the durable artifact store
// (internal/store): which artifact classes persist, under which class
// names, and with which codecs. Three classes are durable:
//
//   - "sim" (sim.Counts) and "power" (power.Report): their in-memory
//     cache keys are already content-addressed hash chains rooted at
//     the CDFG content fingerprint, so the keys are stable across
//     processes and globally unique across configurations — they
//     persist under their own class names, unnamespaced. Simulation is
//     the flow's most expensive stage; a restarted daemon that replays
//     the (cheap, deterministic) front end re-derives the same sim key
//     and warm-starts from disk.
//   - "run" (*Result): the run cache key is semantic (profile content +
//     resolved binder parameters, see runKey) but deliberately omits
//     the session-wide configuration, so on disk the class is stamped
//     per configuration: "run@<Config.Fingerprint()>". A whole-run hit
//     skips even the front end.
//
// The SA tables attach their own "sa@<table fingerprint>" classes
// (satable.AttachStore). The mapper's memoized macro covers persist
// under "macro@<arch fingerprint>" with content-addressed keys (see
// mapper.MacroCache) — a restarted daemon re-maps a large datapath
// without re-covering a single repeated macro. Every other stage class
// (bind, map, ...) holds pointer-heavy netlists with no codec; the
// store skips them and they stay memory-only.

import (
	"repro/internal/mapper"
	"repro/internal/pipeline"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/store"
)

// Fingerprint canonically identifies the semantic content of a
// configuration: every field that influences any stage's output (the
// worker-count and lane-width knobs, which are bit-identical at every
// setting, are excluded, exactly as they are from stage cache keys).
// Power and MapOpt.K are derived from Arch, so the arch fingerprint
// covers them. Equal fingerprints mean a run result computed under one Config is
// valid under the other — the contract the durable store's
// run@<fingerprint> class namespace enforces.
func (c Config) Fingerprint() string {
	c = c.Normalize()
	h := pipeline.NewHasher().
		Str(c.Arch.Fingerprint()).Int(c.Width).Int(c.Vectors).
		Int64(c.VectorSeed).Int64(c.PortSeed).
		Str(tableFP(c.Table)).Str(tableFP(c.BaselineTable)).
		F64(c.BetaAdd).F64(c.BetaMult).
		Int(c.BindK).Bool(c.BindExact).
		Str(modselFP(resolveModSel(c))).Bool(c.PreOptimize).
		Int(int(c.Delay)).Int64(c.DelaySeed)
	return mapOptFPInto(h, c.MapOpt).Sum()
}

// AttachStore backs the session's caches with a durable store: stage
// misses on the serializable classes and run-cache misses consult the
// store before computing, and every successful computation is written
// through (atomically, checksummed) before the request returns. The
// session's SA tables attach too, so the expensive partial-datapath
// characterizations persist across processes.
//
// Call once per session, before the first Run; derived sessions
// (Derive) share the attached stage cache but must AttachStore
// themselves to persist their own run class. Concurrent sessions in one
// process may share one *store.Store; a second *process* must use its
// own store directory (Open enforces single-writer locking).
func (se *Session) AttachStore(st *store.Store) {
	st.RegisterCodec(StageSim, store.JSONOf[sim.Counts]())
	st.RegisterCodec(StagePower, store.JSONOf[power.Report]())
	st.RegisterCodec("run@", store.JSONPtr[Result]())
	st.RegisterCodec("macro@", store.JSONPtr[mapper.MacroCover]())
	se.stages.SetBacking(st)
	runClass := "run@" + se.Cfg.Fingerprint()
	se.runs.SetBacking(pipeline.RenameBacking(st, func(string) string { return runClass }))
	se.Cfg.Table.AttachStore(st)
	se.Cfg.BaselineTable.AttachStore(st)
}
