// Macro-memoized covering. Datapath elaboration emits netlists that
// are overwhelmingly replicated structure — N identical mux trees,
// adders, register-steering blocks — and tags each builder-generated
// range as a logic.Macro. Instead of re-enumerating cuts over every
// instance, the mapper covers each *distinct* macro content once, in a
// canonical coordinate space, and stitches the memoized cover into
// every instance. Covers are keyed by a content hash of the macro's
// canonical encoding (gate functions + internal/external fanin
// references + the semantic mapping options), so the cache is immune
// to node-ID drift, bus aliasing, and shape-label collisions; a shared
// MacroCache (backed by pipeline.Cache and the durable store) reuses
// covers across calls, sessions and daemon restarts.
package mapper

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/bitvec"
	"repro/internal/cuts"
	"repro/internal/glitch"
	"repro/internal/logic"
	"repro/internal/pipeline"
	"repro/internal/prob"
)

// DefaultMacroMinGates is the gate count at which Map engages macro
// covering. Below it the flat mapper is fast, and its cut selection —
// which sees real arrival times and waveforms at macro boundaries
// instead of canonical source assumptions — is slightly better
// informed. Paper benchmarks elaborate to a few thousand gates and stay
// on the flat path (bit-identical goldens); the scale workloads
// (ctrl-2k ≈ 37k gates, ctrl-10k ≈ 145k) cross it and get memoized
// covering. A copy of a net with its Macros cleared always maps flat.
const DefaultMacroMinGates = 20000

// MacroCover is the canonical cover of one distinct macro content: for
// each gate of the macro, in ID order, the selected cut in canonical
// references. A reference r < NumExt denotes the r'th distinct
// external fanin of the macro in first-use order; r >= NumExt denotes
// internal gate r-NumExt. Covers are immutable once published.
type MacroCover struct {
	// NumExt is the number of distinct external fanins.
	NumExt int
	// Leaves holds the selected cut's canonical leaf references per gate.
	Leaves [][]int
	// Funcs holds the selected cut's function per gate (variable i =
	// Leaves[gate][i]).
	Funcs []*bitvec.TruthTable
	// Waves and Flows hold the canonical covering's selected waveform
	// and area-flow per gate, computed under canonical source
	// assumptions. Stitching reuses them for every instance instead of
	// re-propagating waveforms gate by gate; they only steer downstream
	// glue tie-breaks, so canonical values trade a sliver of estimator
	// fidelity at macro boundaries for skipping the dominant per-
	// instance cost.
	Waves []glitch.Waveform
	Flows []float64
}

// macroCoverJSON is the durable-store representation of a MacroCover.
type macroCoverJSON struct {
	NumExt int             `json:"ext"`
	Gates  []macroGateJSON `json:"gates"`
}

type macroGateJSON struct {
	Leaves []int    `json:"l"`
	Vars   int      `json:"v"`
	Words  []uint64 `json:"w"`
	// Canonical selected-cut waveform (settled probability plus timed
	// activity components) and flow.
	WaveP float64   `json:"p"`
	CompT []int     `json:"ct,omitempty"`
	CompS []float64 `json:"cs,omitempty"`
	Flow  float64   `json:"f"`
}

// MarshalJSON implements the durable-store encoding (see flow's codec
// registration).
func (c *MacroCover) MarshalJSON() ([]byte, error) {
	out := macroCoverJSON{NumExt: c.NumExt, Gates: make([]macroGateJSON, len(c.Leaves))}
	for i, l := range c.Leaves {
		g := macroGateJSON{
			Leaves: l, Vars: c.Funcs[i].NumVars(), Words: c.Funcs[i].Words(),
			WaveP: c.Waves[i].P, Flow: c.Flows[i],
		}
		for _, comp := range c.Waves[i].Comps {
			g.CompT = append(g.CompT, comp.Time)
			g.CompS = append(g.CompS, comp.S)
		}
		out.Gates[i] = g
	}
	return json.Marshal(out)
}

// UnmarshalJSON decodes and validates a stored cover. The input is
// untrusted (a store file may be corrupt or truncated); any structural
// violation fails the decode, which the store layer treats as a cache
// miss.
func (c *MacroCover) UnmarshalJSON(b []byte) error {
	var in macroCoverJSON
	if err := json.Unmarshal(b, &in); err != nil {
		return err
	}
	if in.NumExt < 0 {
		return fmt.Errorf("mapper: macro cover: negative NumExt %d", in.NumExt)
	}
	leaves := make([][]int, len(in.Gates))
	funcs := make([]*bitvec.TruthTable, len(in.Gates))
	for i, g := range in.Gates {
		if len(g.Leaves) < 1 || len(g.Leaves) > MaxK {
			return fmt.Errorf("mapper: macro cover gate %d: %d leaves outside [1,%d]", i, len(g.Leaves), MaxK)
		}
		if g.Vars != len(g.Leaves) {
			return fmt.Errorf("mapper: macro cover gate %d: %d vars for %d leaves", i, g.Vars, len(g.Leaves))
		}
		for j, r := range g.Leaves {
			if r < 0 || r >= in.NumExt+i {
				return fmt.Errorf("mapper: macro cover gate %d: leaf ref %d out of range", i, r)
			}
			if j > 0 && g.Leaves[j-1] >= r {
				return fmt.Errorf("mapper: macro cover gate %d: leaf refs not strictly increasing", i)
			}
		}
		f, err := bitvec.FromWords(g.Vars, g.Words)
		if err != nil {
			return fmt.Errorf("mapper: macro cover gate %d: %w", i, err)
		}
		leaves[i], funcs[i] = g.Leaves, f
	}
	waves := make([]glitch.Waveform, len(in.Gates))
	flows := make([]float64, len(in.Gates))
	for i, g := range in.Gates {
		if len(g.CompT) != len(g.CompS) {
			return fmt.Errorf("mapper: macro cover gate %d: %d component times for %d activities", i, len(g.CompT), len(g.CompS))
		}
		wv := glitch.Waveform{P: g.WaveP}
		for j := range g.CompT {
			if j > 0 && g.CompT[j-1] >= g.CompT[j] {
				return fmt.Errorf("mapper: macro cover gate %d: component times not strictly increasing", i)
			}
			wv.Comps = append(wv.Comps, glitch.Component{Time: g.CompT[j], S: g.CompS[j]})
		}
		waves[i], flows[i] = wv, g.Flow
	}
	c.NumExt, c.Leaves, c.Funcs = in.NumExt, leaves, funcs
	c.Waves, c.Flows = waves, flows
	return nil
}

// MacroCache memoizes canonical macro covers by content key. Construct
// with NewMacroCache: with a shared pipeline.Cache it spans a
// flow.Session and writes through to the durable artifact store; with
// nil it builds a private one. A nil *MacroCache is valid and means "no
// memoization across instances beyond this call" — Map still builds a
// per-call cache internally.
type MacroCache struct {
	stages *pipeline.Cache
	class  string

	hits, misses atomic.Int64
}

// NewMacroCache returns a cover cache. stages may be nil (a private
// cache); class namespaces the entries inside the shared cache and must
// embed every fingerprint the keys do not (flow uses "macro@" + archFP).
func NewMacroCache(stages *pipeline.Cache, class string) *MacroCache {
	if stages == nil {
		stages = pipeline.NewCache()
	}
	return &MacroCache{stages: stages, class: class}
}

// Stats reports (hit, miss) counters: hits are cover demands served
// without computing (including waits on another goroutine's in-flight
// computation and durable-store reads).
func (mc *MacroCache) Stats() (hits, misses int64) {
	return mc.hits.Load(), mc.misses.Load()
}

// do returns the cover for key, computing it at most once per key.
func (mc *MacroCache) do(key string, compute func() (*MacroCover, error)) (*MacroCover, error) {
	v, hit, err := mc.stages.Do(context.Background(), mc.class, key, func() (any, error) {
		return compute()
	})
	if err != nil {
		mc.misses.Add(1)
		return nil, err
	}
	cover, ok := v.(*MacroCover)
	if !ok {
		// A foreign artifact under our class (renamed backing
		// misconfiguration); behave like a miss.
		mc.misses.Add(1)
		return compute()
	}
	if hit {
		mc.hits.Add(1)
	} else {
		mc.misses.Add(1)
	}
	return cover, nil
}

// macroInstance is the per-instance analysis of one tagged macro range:
// its distinct external fanins in first-use order and the canonical
// content key its cover is cached under.
type macroInstance struct {
	m      logic.Macro
	extIDs []int
	key    string
}

// analyzeMacro canonicalizes a macro instance. The key hashes the full
// canonical encoding — per gate: truth table and fanin references with
// externals renamed to first-use indices — plus the semantic mapping
// options, so two instances share a key exactly when they pose the
// identical covering sub-problem (same gates, same internal wiring,
// same external aliasing pattern).
func analyzeMacro(net *logic.Network, m logic.Macro, optFP string) macroInstance {
	h := pipeline.NewHasher()
	h.Str("macrocover/v1").Str(optFP).Int(m.Hi - m.Lo)
	extIdx := make(map[int]int)
	var extIDs []int
	for id := m.Lo; id < m.Hi; id++ {
		nd := net.Node(id)
		h.Int(nd.Func.NumVars())
		for _, w := range nd.Func.Words() {
			h.U64(w)
		}
		for _, f := range nd.Fanins {
			if f >= m.Lo {
				h.Int(-1).Int(f - m.Lo)
			} else {
				e, ok := extIdx[f]
				if !ok {
					e = len(extIDs)
					extIdx[f] = e
					extIDs = append(extIDs, f)
				}
				h.Int(-2).Int(e)
			}
		}
		h.Int(-3)
	}
	h.Int(len(extIDs))
	return macroInstance{m: m, extIDs: extIDs, key: h.Sum()}
}

// activeMacros validates the network's macro tags against the Macro
// invariants, returning the instances to cover canonically; a net of
// fewer than minGates gates covers none. Tags that violate an invariant
// are silently demoted to glue (skipped) — tags are advisory.
func activeMacros(net *logic.Network, minGates int) []logic.Macro {
	if len(net.Macros) == 0 || net.NumGates() < minGates {
		return nil
	}
	var out []logic.Macro
	prevHi := 0
	for _, m := range net.Macros {
		if m.Lo < prevHi || m.Lo >= m.Hi || m.Hi > net.NumNodes() {
			continue
		}
		ok := true
		for id := m.Lo; id < m.Hi; id++ {
			if net.Node(id).Kind != logic.KindGate {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		out = append(out, m)
		prevHi = m.Hi
	}
	return out
}

// computeMacroCover maps the macro's canonical sub-network flat and
// records each gate's selected cut. External fanins become pseudo
// primary inputs with the combinational-source waveform; the cover is
// therefore a pure function of the canonical encoding, which is what
// makes it cacheable and deterministic under any execution order.
func computeMacroCover(net *logic.Network, inst macroInstance, opt Options) (*MacroCover, error) {
	m := inst.m
	numExt := len(inst.extIDs)
	cn := logic.NewNetwork("macro")
	for e := 0; e < numExt; e++ {
		cn.AddInput(fmt.Sprintf("x%d", e))
	}
	extIdx := make(map[int]int, numExt)
	for i, f := range inst.extIDs {
		extIdx[f] = i
	}
	for id := m.Lo; id < m.Hi; id++ {
		nd := net.Node(id)
		fanins := make([]int, len(nd.Fanins))
		for j, f := range nd.Fanins {
			if f >= m.Lo {
				fanins[j] = numExt + (f - m.Lo)
			} else {
				fanins[j] = extIdx[f]
			}
		}
		cn.AddGate("", nd.Func, fanins...)
	}

	fanout := cn.FanoutCounts()
	states := make([]nodeState, cn.NumNodes())
	sets := make([][]cuts.Cut, cn.NumNodes())
	w := newMapWorker()
	src := prob.DefaultSources()
	for e := 0; e < numExt; e++ {
		states[e].wave = glitch.SourceWaveform(src.InputP, src.InputS)
		sets[e] = []cuts.Cut{cuts.Trivial(e)}
	}
	for id := numExt; id < cn.NumNodes(); id++ {
		if err := mapGate(cn, id, states, sets, fanout, opt, w); err != nil {
			var me *MapError
			if errors.As(err, &me) {
				me.Macro = m.Name
				me.Node = nodeName(net, m.Lo+(id-numExt))
			}
			return nil, err
		}
	}
	cover := &MacroCover{
		NumExt: numExt,
		Leaves: make([][]int, m.Hi-m.Lo),
		Funcs:  make([]*bitvec.TruthTable, m.Hi-m.Lo),
		Waves:  make([]glitch.Waveform, m.Hi-m.Lo),
		Flows:  make([]float64, m.Hi-m.Lo),
	}
	for i := range cover.Leaves {
		st := &states[numExt+i]
		cover.Leaves[i] = st.best.Leaves
		cover.Funcs[i] = st.best.Func
		cover.Waves[i] = st.wave
		cover.Flows[i] = st.flow
	}
	return cover, nil
}

// coverFits reports whether a (possibly foreign, store-loaded) cover is
// structurally compatible with the instance. Keys make mismatches
// vanishingly unlikely; on mismatch the caller recomputes fresh.
func coverFits(cover *MacroCover, inst macroInstance) bool {
	if cover == nil || cover.NumExt != len(inst.extIDs) || len(cover.Leaves) != inst.m.Hi-inst.m.Lo {
		return false
	}
	if len(cover.Funcs) != len(cover.Leaves) ||
		len(cover.Waves) != len(cover.Leaves) || len(cover.Flows) != len(cover.Leaves) {
		return false
	}
	for i, ls := range cover.Leaves {
		if len(ls) < 1 || cover.Funcs[i] == nil || cover.Funcs[i].NumVars() != len(ls) {
			return false
		}
		for j, r := range ls {
			if r < 0 || r >= cover.NumExt+i {
				return false
			}
			if j > 0 && ls[j-1] >= r {
				return false
			}
		}
	}
	return true
}

// stitchMacro translates the canonical cover into the instance's node
// space. Translated leaves are in canonical (not sorted-ID) order; the
// cut function's variable order matches the leaf order, which is the
// only correspondence downstream consumers rely on. Arrival times are
// evaluated from the instance's real leaf states (they drive the
// depth-mode objective downstream); waveforms and flows are the
// canonical covering's, copied from the cover — glue consumers use
// them only for flow tie-breaks, and copying skips a per-gate waveform
// propagation per instance, which dominated stitch cost. Macro gates
// publish only their trivial cut to glue enumeration — the macro
// boundary is a cut barrier, which is what keeps the cover independent
// of the surrounding context.
func stitchMacro(inst macroInstance, cover *MacroCover, states []nodeState, sets [][]cuts.Cut) {
	m := inst.m
	// One backing array for all translated leaf slices of the instance.
	total := 0
	for _, canon := range cover.Leaves {
		total += len(canon)
	}
	backing := make([]int, 0, total)
	for i := 0; i < m.Hi-m.Lo; i++ {
		id := m.Lo + i
		canon := cover.Leaves[i]
		start := len(backing)
		for _, r := range canon {
			if r < cover.NumExt {
				backing = append(backing, inst.extIDs[r])
			} else {
				backing = append(backing, m.Lo+(r-cover.NumExt))
			}
		}
		leaves := backing[start:len(backing):len(backing)]
		arr := 0
		for _, l := range leaves {
			if states[l].arrival+1 > arr {
				arr = states[l].arrival + 1
			}
		}
		states[id] = nodeState{
			best:    cuts.Cut{Leaves: leaves, Func: cover.Funcs[i]},
			wave:    cover.Waves[i],
			arrival: arr,
			flow:    cover.Flows[i],
		}
		sets[id] = []cuts.Cut{cuts.Trivial(id)}
	}
}
