// Package mapper implements FPGA technology mapping to K-input LUTs with
// glitch-aware switching-activity costing, in the style of GlitchMap [6
// in the paper]: K-feasible cuts are enumerated per node [8], each cut's
// output waveform is evaluated under the unit-delay discrete-time model,
// and the cover is chosen to minimize estimated switching activity
// (including glitches). The total estimated SA of the selected cover is
// the SA quantity of the paper's Eq. (3) that drives HLPower's binding
// edge weights.
//
// Two scaling features are layered over the flat algorithm without
// changing it below their engagement thresholds: memoized macro covers
// for builder-tagged repeated structure (macro.go) and a level-parallel
// execution engine whose results are bit-identical at any worker count
// (the per-gate computation is a pure function of lower-level state, and
// all writes are slot-indexed).
package mapper

import (
	"errors"
	"fmt"

	"repro/internal/arch"
	"repro/internal/cuts"
	"repro/internal/glitch"
	"repro/internal/logic"
	"repro/internal/par"
	"repro/internal/pipeline"
	"repro/internal/prob"
)

// MinK and MaxK bound the supported LUT input counts, re-exported from
// the architecture package. The upper bound is an estimator contract,
// not a tuning choice: a K-input LUT computes a K-variable function,
// and prob.Char's packed joint-code tables plus the mapper's
// truth-table handling assume at most 6 variables — beyond that the
// validated fast paths silently degrade.
const (
	MinK = arch.MinK
	MaxK = arch.MaxK
)

// KRangeError reports a LUT input count outside [MinK, MaxK]. Map
// returns it (wrapped conventions apply: match with errors.As) instead
// of silently mis-mapping under an unsupported K.
type KRangeError struct {
	// K is the rejected LUT input count.
	K int
}

func (e *KRangeError) Error() string {
	return fmt.Sprintf("mapper: K=%d outside supported LUT range [%d,%d] (prob.Char joint codes and truth-table handling assume <= %d inputs)",
		e.K, MinK, MaxK, MaxK)
}

// Mode selects the mapping objective.
type Mode int

const (
	// ModePower minimizes glitch-aware switching-activity flow, with
	// arrival time as tie break (the GlitchMap objective).
	ModePower Mode = iota
	// ModeDepth minimizes arrival time first (a conventional speed-
	// oriented mapper, used as an ablation baseline).
	ModeDepth
	// ModeArea minimizes LUT-count flow, glitch-blind (ablation).
	ModeArea
)

func (m Mode) String() string {
	switch m {
	case ModePower:
		return "power"
	case ModeDepth:
		return "depth"
	case ModeArea:
		return "area"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// Options configures the mapper. K and Mode select the Result (see
// HashInto); Jobs and Macros are execution detail (any value yields a
// bit-identical Result) and are excluded from cache fingerprints.
type Options struct {
	// K is the LUT input count (Cyclone II: 4).
	K int
	// Mode is the mapping objective.
	Mode Mode

	// Jobs caps the worker goroutines of the level-parallel forward
	// pass; <= 1 maps serially. Results are bit-identical at any value.
	Jobs int
	// Macros shares memoized macro covers across calls (and, through
	// its pipeline.Cache backing, across sessions and restarts). nil
	// falls back to a private per-call cache.
	Macros *MacroCache
}

// keep bounds the number of cuts retained per node during pruning.
const keep = 8

// DefaultOptions returns the configuration used throughout the
// reproduction: 4-LUTs and power-driven mapping. Cuts are pruned to
// keep per node and sources follow the paper's assumptions
// (prob.DefaultSources) in every mode.
func DefaultOptions() Options {
	return Options{K: 4, Mode: ModePower}
}

// OptionsForArch returns DefaultOptions retargeted to the descriptor's
// LUT input count.
func OptionsForArch(t arch.Target) Options {
	o := DefaultOptions()
	o.K = t.K
	return o
}

// HashInto writes everything that selects a mapping Result into h: K,
// the cuts kept per node, Mode and the four source values, in that
// order. It is the one place these are hashed: the flow's map key,
// config fingerprint and module-selection key, the SA table fingerprint
// and the macro-cover key all call it, so an option that changes
// results cannot be left out of one of them.
func (o Options) HashInto(h *pipeline.Hasher) *pipeline.Hasher {
	src := prob.DefaultSources()
	return h.Int(o.K).Int(keep).Int(int(o.Mode)).
		F64(src.InputP).F64(src.InputS).
		F64(src.LatchP).F64(src.LatchS)
}

// coverFP fingerprints the options that determine a canonical macro
// cover's content.
func (o Options) coverFP() string {
	return o.HashInto(pipeline.NewHasher()).Sum()
}

// Result is a completed mapping.
type Result struct {
	// Mapped is the LUT-level network (every gate is one LUT).
	Mapped *logic.Network
	// NodeMap maps original node IDs to mapped node IDs (-1 if the node
	// was absorbed into a LUT and has no mapped counterpart).
	NodeMap []int
	// LUTs is the number of LUTs in the cover (the paper's area metric).
	LUTs int
	// Depth is the LUT-level depth of the mapped network.
	Depth int
	// EstSA is the total estimated switching activity of the selected
	// cover under the unit-delay glitch model (paper Eq. 3).
	EstSA float64
	// EstGlitch is the glitch portion of EstSA.
	EstGlitch float64

	// MacroInstances counts the macro instances covered by memoized
	// canonical covers (0 when macro reuse did not engage).
	MacroInstances int
	// MacroDistinct counts the distinct cover keys among those
	// instances; MacroInstances - MacroDistinct covers were reused.
	MacroDistinct int
	// MacroGates counts original gates inside covered macros.
	MacroGates int
}

type nodeState struct {
	best    cuts.Cut
	wave    glitch.Waveform
	arrival int
	flow    float64 // objective flow value of the selected cut
}

// mapWorker bundles the per-worker reusable state of the forward pass:
// cut-enumeration scratch, a private glitch estimator (its memo is
// exact, so per-worker memo state never changes values), and small
// buffers.
type mapWorker struct {
	scratch   *cuts.Scratch
	est       *glitch.Estimator
	waves     []glitch.Waveform
	faninSets [][]cuts.Cut
	arrs      []int
	flowIns   []float64
}

func newMapWorker() *mapWorker {
	return &mapWorker{scratch: cuts.NewScratch(), est: glitch.NewEstimator()}
}

var errNoCut = errors.New("no implementable cut")

// mapTask is one unit of the forward pass: a whole macro instance
// (macro >= 0, an index into the instance list) or a single glue gate.
type mapTask struct {
	macro int
	gate  int
}

// Map covers the combinational logic of net with K-input LUTs. Tagged
// macros are covered once per distinct content and stitched per
// instance on nets of at least DefaultMacroMinGates gates; smaller nets
// map flat.
func Map(net *logic.Network, opt Options) (*Result, error) {
	return mapNet(net, opt, DefaultMacroMinGates)
}

// mapNet is Map with the macro-covering threshold as a parameter, the
// seam tests use to force covers on small nets.
func mapNet(net *logic.Network, opt Options, macroMinGates int) (*Result, error) {
	if opt.K < MinK || opt.K > MaxK {
		return nil, &KRangeError{K: opt.K}
	}
	if err := net.Check(); err != nil {
		return nil, fmt.Errorf("mapper: invalid input network: %w", err)
	}
	if maxFanin := net.Stats().MaxFanin; opt.K < maxFanin {
		return nil, fmt.Errorf("mapper: K=%d smaller than widest gate (%d inputs); decompose first", opt.K, maxFanin)
	}

	n := net.NumNodes()
	fanout := net.FanoutCounts()
	states := make([]nodeState, n)
	sets := make([][]cuts.Cut, n)

	// Sources: fixed waveforms, trivial cut sets.
	src := prob.DefaultSources()
	for id := 0; id < n; id++ {
		nd := net.Node(id)
		switch nd.Kind {
		case logic.KindInput:
			states[id].wave = glitch.SourceWaveform(src.InputP, src.InputS)
			sets[id] = []cuts.Cut{cuts.Trivial(id)}
		case logic.KindLatchOut:
			states[id].wave = glitch.SourceWaveform(src.LatchP, src.LatchS)
			sets[id] = []cuts.Cut{cuts.Trivial(id)}
		case logic.KindConst:
			states[id].wave = glitch.ConstWaveform(nd.ConstVal)
			sets[id] = []cuts.Cut{cuts.Trivial(id)}
		}
	}

	macros := activeMacros(net, macroMinGates)
	var instances []macroInstance
	if len(macros) > 0 {
		fp := opt.coverFP()
		instances = make([]macroInstance, len(macros))
		for i, m := range macros {
			instances[i] = analyzeMacro(net, m, fp)
		}
	}
	mc := opt.Macros
	if mc == nil && len(instances) > 0 {
		mc = NewMacroCache(nil, "")
	}

	levels := buildPlan(net, instances)

	runTask := func(t mapTask, w *mapWorker) error {
		if t.macro >= 0 {
			inst := &instances[t.macro]
			cover, err := mc.do(inst.key, func() (*MacroCover, error) {
				return computeMacroCover(net, *inst, opt)
			})
			if err == nil && !coverFits(cover, *inst) {
				// A corrupt or colliding stored cover: recompute fresh,
				// bypassing the cache.
				cover, err = computeMacroCover(net, *inst, opt)
			}
			if err != nil {
				return err
			}
			stitchMacro(*inst, cover, states, sets)
			return nil
		}
		return mapGate(net, t.gate, states, sets, fanout, opt, w)
	}

	if err := runLevels(levels, max(opt.Jobs, 1), runTask); err != nil {
		return nil, err
	}

	res, err := extractCover(net, states, opt)
	if err != nil {
		return nil, err
	}
	if len(instances) > 0 {
		distinct := make(map[string]struct{}, len(instances))
		for _, inst := range instances {
			distinct[inst.key] = struct{}{}
			res.MacroGates += inst.m.Hi - inst.m.Lo
		}
		res.MacroInstances = len(instances)
		res.MacroDistinct = len(distinct)
	}
	return res, nil
}

// runLevels executes the plan level by level on up to jobs workers.
// Within a level all tasks are independent (they read only lower-level
// slots and write only their own), so scheduling order cannot affect
// the Result; the return of par.For at each level boundary supplies the
// happens-before edge for the next level's reads. The first error in
// task order is returned, for a deterministic report.
func runLevels(levels [][]mapTask, jobs int, run func(mapTask, *mapWorker) error) error {
	workers := make([]*mapWorker, jobs)
	for i := range workers {
		workers[i] = newMapWorker()
	}
	var errs []error
	for _, tasks := range levels {
		if cap(errs) < len(tasks) {
			errs = make([]error, len(tasks))
		}
		errs = errs[:len(tasks)]
		clear(errs)
		par.For(len(tasks), jobs, func(w, i int) {
			errs[i] = run(tasks[i], workers[w])
		})
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// buildPlan groups the forward-pass work into condensed dependency
// levels: tasks are macro instances (supernodes) and glue-gate
// singletons; a task's level is 1 + the maximum level among the nodes
// it reads. One ascending-ID pass suffices: a macro's external
// references all precede its range, so its level is final by the time
// its first gate is visited, and glue reading macro internals always
// follows the whole macro in ID order.
func buildPlan(net *logic.Network, instances []macroInstance) [][]mapTask {
	n := net.NumNodes()
	nodeLevel := make([]int32, n)
	owner := make([]int32, n) // instance index + 1; 0 = glue
	for mi := range instances {
		for id := instances[mi].m.Lo; id < instances[mi].m.Hi; id++ {
			owner[id] = int32(mi + 1)
		}
	}
	var levels [][]mapTask
	add := func(lvl int32, t mapTask) {
		for len(levels) <= int(lvl) {
			levels = append(levels, nil)
		}
		levels[lvl] = append(levels[lvl], t)
	}
	for id := 0; id < n; id++ {
		nd := net.Node(id)
		if nd.Kind != logic.KindGate {
			continue // sources stay at level 0
		}
		if o := owner[id]; o != 0 {
			inst := &instances[o-1]
			if id != inst.m.Lo {
				continue
			}
			lvl := int32(1)
			for _, f := range inst.extIDs {
				if nodeLevel[f]+1 > lvl {
					lvl = nodeLevel[f] + 1
				}
			}
			for g := inst.m.Lo; g < inst.m.Hi; g++ {
				nodeLevel[g] = lvl
			}
			add(lvl, mapTask{macro: int(o - 1)})
			continue
		}
		lvl := int32(1)
		for _, f := range nd.Fanins {
			if nodeLevel[f]+1 > lvl {
				lvl = nodeLevel[f] + 1
			}
		}
		nodeLevel[id] = lvl
		add(lvl, mapTask{macro: -1, gate: id})
	}
	return levels
}

// mapGate runs the per-gate forward step: enumerate K-feasible cuts
// from the fanins' kept sets, evaluate each candidate's arrival, flow
// and output waveform from the leaves' selected states, keep the best,
// and publish the pruned candidate set. It writes only states[id] and
// sets[id] and reads only fanin-side slots, which is what makes it safe
// to run level-parallel.
func mapGate(net *logic.Network, id int, states []nodeState, sets [][]cuts.Cut, fanout []int, opt Options, w *mapWorker) error {
	nd := net.Node(id)
	faninSets := w.faninSets[:0]
	for _, f := range nd.Fanins {
		faninSets = append(faninSets, sets[f])
	}
	w.faninSets = faninSets
	candidates := w.scratch.EnumerateNode(nd, faninSets, opt.K)
	var (
		bestIdx  int
		bestWave glitch.Waveform
		bestArr  int
		bestFlow float64
	)
	switch opt.Mode {
	case ModeDepth:
		bestIdx, bestWave, bestArr, bestFlow = selectDepth(id, candidates, states, fanout, w)
	case ModeArea:
		bestIdx, bestWave, bestArr, bestFlow = selectArea(id, candidates, states, fanout, w)
	default:
		bestIdx, bestWave, bestArr, bestFlow = selectFlow(id, candidates, states, fanout, opt.Mode, w)
	}
	if bestIdx < 0 {
		return &MapError{Node: nodeName(net, id), Err: errNoCut}
	}
	st := nodeState{best: candidates[bestIdx], wave: bestWave, arrival: bestArr, flow: bestFlow}
	// Prune the candidate set for consumers upstream, then detach it
	// from the scratch's reused backing array.
	kept := cuts.Prune(id, candidates, keep, func(_ int, a, b cuts.Cut) bool {
		return len(a.Leaves) < len(b.Leaves)
	})
	cp := make([]cuts.Cut, len(kept))
	copy(cp, kept)
	states[id] = st
	sets[id] = cp
	return nil
}

// candMeasure computes a candidate cut's arrival time and fanout-shared
// flow-in from the leaves' selected states, without touching waveforms.
func candMeasure(c cuts.Cut, states []nodeState, fanout []int) (arr int, flowIn float64) {
	for _, l := range c.Leaves {
		ls := &states[l]
		if ls.arrival+1 > arr {
			arr = ls.arrival + 1
		}
		fo := fanout[l]
		if fo < 1 {
			fo = 1
		}
		flowIn += ls.flow / float64(fo)
	}
	return arr, flowIn
}

// candWave propagates the candidate's output waveform from the leaves'
// selected waveforms.
func candWave(c cuts.Cut, states []nodeState, w *mapWorker) glitch.Waveform {
	leafWaves := w.waves[:0]
	for _, l := range c.Leaves {
		leafWaves = append(leafWaves, states[l].wave)
	}
	w.waves = leafWaves[:0]
	return w.est.Propagate(c.Func, leafWaves)
}

// selectFlow is flow-first (ModePower) selection. The flow objective is
// the propagated waveform's activity, so every candidate pays a
// propagation.
func selectFlow(id int, candidates []cuts.Cut, states []nodeState, fanout []int, mode Mode, w *mapWorker) (int, glitch.Waveform, int, float64) {
	bestIdx := -1
	var bestWave glitch.Waveform
	var bestArr int
	var bestFlow float64
	for i, c := range candidates {
		if len(c.Leaves) == 1 && c.Leaves[0] == id {
			continue // trivial self-cut is not implementable
		}
		arr, flowIn := candMeasure(c, states, fanout)
		wave := candWave(c, states, w)
		flow := wave.Total() + flowIn
		if bestIdx < 0 || better(mode, flow, arr, len(c.Leaves), bestFlow, bestArr, len(candidates[bestIdx].Leaves)) {
			bestIdx, bestWave, bestArr, bestFlow = i, wave, arr, flow
		}
	}
	return bestIdx, bestWave, bestArr, bestFlow
}

// selectDepth is arrival-first (ModeDepth) selection. Arrival and
// flow-in are cheap integer/float reductions; the waveform matters only
// for the flow tiebreak among minimum-arrival candidates, so
// propagation — the dominant per-candidate cost — runs exclusively for
// those. The winner, its waveform, and the published state are
// bit-identical to exhaustive evaluation: a candidate above the minimum
// arrival can never win the (arrival, flow, leaves) lexicographic
// comparison, and ties keep the first-seen candidate in both forms.
func selectDepth(id int, candidates []cuts.Cut, states []nodeState, fanout []int, w *mapWorker) (int, glitch.Waveform, int, float64) {
	arrs := w.arrs[:0]
	flowIns := w.flowIns[:0]
	minArr := -1
	for _, c := range candidates {
		if len(c.Leaves) == 1 && c.Leaves[0] == id {
			arrs = append(arrs, -1) // trivial self-cut is not implementable
			flowIns = append(flowIns, 0)
			continue
		}
		arr, flowIn := candMeasure(c, states, fanout)
		arrs = append(arrs, arr)
		flowIns = append(flowIns, flowIn)
		if minArr < 0 || arr < minArr {
			minArr = arr
		}
	}
	w.arrs, w.flowIns = arrs, flowIns
	bestIdx := -1
	var bestWave glitch.Waveform
	var bestFlow float64
	if minArr < 0 {
		return -1, bestWave, 0, 0
	}
	for i, c := range candidates {
		if arrs[i] != minArr { // arrivals are >= 1, so this also skips trivial cuts
			continue
		}
		wave := candWave(c, states, w)
		flow := wave.Total() + flowIns[i]
		if bestIdx < 0 || flow < bestFlow || (flow == bestFlow && len(c.Leaves) < len(candidates[bestIdx].Leaves)) {
			bestIdx, bestWave, bestFlow = i, wave, flow
		}
	}
	return bestIdx, bestWave, minArr, bestFlow
}

// selectArea is area-mode selection: the flow objective (1 + flow-in)
// is waveform-independent, so only the winning cut is propagated.
func selectArea(id int, candidates []cuts.Cut, states []nodeState, fanout []int, w *mapWorker) (int, glitch.Waveform, int, float64) {
	bestIdx := -1
	var bestArr int
	var bestFlow float64
	for i, c := range candidates {
		if len(c.Leaves) == 1 && c.Leaves[0] == id {
			continue // trivial self-cut is not implementable
		}
		arr, flowIn := candMeasure(c, states, fanout)
		flow := 1 + flowIn
		if bestIdx < 0 || better(ModeArea, flow, arr, len(c.Leaves), bestFlow, bestArr, len(candidates[bestIdx].Leaves)) {
			bestIdx, bestArr, bestFlow = i, arr, flow
		}
	}
	if bestIdx < 0 {
		return -1, glitch.Waveform{}, 0, 0
	}
	return bestIdx, candWave(candidates[bestIdx], states, w), bestArr, bestFlow
}

// better compares candidate cut costs lexicographically per mode.
func better(mode Mode, flow float64, arr, leaves int, bFlow float64, bArr, bLeaves int) bool {
	switch mode {
	case ModeDepth:
		if arr != bArr {
			return arr < bArr
		}
		if flow != bFlow {
			return flow < bFlow
		}
		return leaves < bLeaves
	default: // ModePower, ModeArea
		if flow != bFlow {
			return flow < bFlow
		}
		if arr != bArr {
			return arr < bArr
		}
		return leaves < bLeaves
	}
}

// extractCover walks backward from the roots (primary outputs and latch
// D inputs), instantiating one LUT per needed node, then rebuilds a
// LUT-level logic.Network and evaluates the cover's SA.
func extractCover(net *logic.Network, states []nodeState, opt Options) (*Result, error) {
	needed := make([]bool, net.NumNodes())
	var need func(int)
	need = func(id int) {
		if needed[id] {
			return
		}
		needed[id] = true
		nd := net.Node(id)
		if nd.Kind != logic.KindGate {
			return
		}
		for _, l := range states[id].best.Leaves {
			need(l)
		}
	}
	for _, o := range net.Outputs {
		need(o.Node)
	}
	for _, q := range net.Latches {
		need(net.Node(q).LatchInput)
	}

	mapped := logic.NewNetwork(net.Name + "_mapped")
	nodeMap := make([]int, net.NumNodes())
	for i := range nodeMap {
		nodeMap[i] = -1
	}
	// Sources first (all kept to preserve the interface), then LUTs in
	// topological (ascending-ID) order.
	for _, id := range net.Inputs {
		nodeMap[id] = mapped.AddInput(net.Node(id).Name)
	}
	for _, q := range net.Latches {
		nodeMap[q] = mapped.AddLatch(net.Node(q).Name, net.Node(q).LatchInit)
	}
	for _, nd := range net.Nodes {
		if nd.Kind == logic.KindConst && needed[nd.ID] {
			nodeMap[nd.ID] = mapped.AddConst(nd.Name, nd.ConstVal)
		}
	}
	luts := 0
	for _, nd := range net.Nodes {
		if nd.Kind != logic.KindGate || !needed[nd.ID] {
			continue
		}
		c := states[nd.ID].best
		fanins := make([]int, len(c.Leaves))
		for i, l := range c.Leaves {
			if nodeMap[l] < 0 {
				return nil, &MapError{
					Node: nodeName(net, nd.ID),
					Err:  fmt.Errorf("internal error: cut leaf %s unmapped", nodeName(net, l)),
				}
			}
			fanins[i] = nodeMap[l]
		}
		nodeMap[nd.ID] = mapped.AddGate(lutName(net, nd.ID), c.Func.Clone(), fanins...)
		luts++
	}
	for _, q := range net.Latches {
		d := net.Node(q).LatchInput
		mapped.ConnectLatch(nodeMap[q], nodeMap[d])
	}
	for _, o := range net.Outputs {
		mapped.MarkOutput(o.Name, nodeMap[o.Node])
	}
	if err := mapped.Check(); err != nil {
		return nil, fmt.Errorf("mapper: produced invalid network: %w", err)
	}

	est := glitch.EstimateNetworkJobs(mapped, prob.DefaultSources(), opt.Jobs)
	return &Result{
		Mapped:    mapped,
		NodeMap:   nodeMap,
		LUTs:      luts,
		Depth:     mapped.Depth(),
		EstSA:     est.TotalActivity(mapped),
		EstGlitch: est.TotalGlitch(mapped),
	}, nil
}

// lutName derives a stable, unique name for the LUT rooted at id.
func lutName(net *logic.Network, id int) string {
	if name := net.Node(id).Name; name != "" {
		return name
	}
	return fmt.Sprintf("lut_%d", id)
}
