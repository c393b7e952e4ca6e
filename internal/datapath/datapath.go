// Package datapath elaborates a bound CDFG into a complete gate-level
// RTL implementation: functional units, port multiplexers, shared
// registers with steering logic, and a control-step counter FSM with
// one-hot step decoding. This substitutes for the paper's CDFG-to-VHDL
// conversion followed by Quartus II RTL synthesis (§6.1) — the output
// network is what the technology mapper, the simulator, and the power
// analyzer consume.
//
// Timing model (single-cycle resources): during control step t the
// counter holds t-1; an operation scheduled at step t reads its argument
// registers combinationally and its result is captured at the clock edge
// ending step t. Primary-input registers capture the input pads at the
// edge ending the last step, making fresh inputs available from step 1
// of the following iteration.
package datapath

import (
	"fmt"
	"sort"

	"repro/internal/binding"
	"repro/internal/cdfg"
	"repro/internal/logic"
	"repro/internal/netgen"
	"repro/internal/par"
	"repro/internal/regbind"
)

// Design is an elaborated datapath.
type Design struct {
	// Net is the gate-level implementation.
	Net *logic.Network
	// Width is the datapath bit width.
	Width int
	// Muxes summarizes all multiplexers in the design.
	Muxes MuxReport
	// CounterBits lists the FSM counter latch node IDs (LSB first).
	CounterBits []int
	// StepCount is the schedule length (iteration period in cycles).
	StepCount int
	// OutputRegs maps each CDFG output (by position) to how it is
	// observed: a register Q bus or a combinational FU output bus.
	OutputBuses [][]int
}

// MuxReport aggregates multiplexer statistics over the whole datapath.
type MuxReport struct {
	// FULargest/FULength cover the FU input port muxes — the Table 3
	// "Largest MUX" and "MUX length" metrics.
	FULargest, FULength int
	// RegLargest/RegLength cover the register steering muxes (data
	// sources only; the hold path is write-enable plumbing, not a data
	// input).
	RegLargest, RegLength int
}

// TotalLength returns the summed mux inputs over FU and register muxes.
func (m MuxReport) TotalLength() int { return m.FULength + m.RegLength }

// TotalLargest returns the largest mux anywhere in the datapath.
func (m MuxReport) TotalLargest() int {
	if m.RegLargest > m.FULargest {
		return m.RegLargest
	}
	return m.FULargest
}

// Arch selects the implementation architecture per functional unit
// (module selection, the paper's future-work extension). A nil Arch or
// nil selector uses the baseline library (ripple adder, array
// multiplier).
type Arch struct {
	// Adder returns the adder architecture for an adder-class FU.
	Adder func(fu *binding.FU) netgen.AdderArch
	// Mult returns the multiplier architecture for a multiplier FU.
	Mult func(fu *binding.FU) netgen.MultArch
}

// Elaborate builds the gate-level datapath for a scheduled, register-
// and FU-bound CDFG with the baseline resource library.
func Elaborate(g *cdfg.Graph, s *cdfg.Schedule, rb *regbind.Binding, res *binding.Result, width int) (*Design, error) {
	return ElaborateArch(g, s, rb, res, width, nil)
}

// ElaborateArch elaborates with per-FU module selection.
func ElaborateArch(g *cdfg.Graph, s *cdfg.Schedule, rb *regbind.Binding, res *binding.Result, width int, arch *Arch) (*Design, error) {
	return ElaborateArchJobs(g, s, rb, res, width, arch, 1)
}

// ElaborateArchJobs elaborates with per-FU module selection, building
// the per-FU sub-netlists (port muxes + functional unit) on up to jobs
// workers (jobs <= 1 builds them serially). Each FU is recorded onto a
// replay tape (frag); the tapes are then replayed into the network
// serially in FU order, so the resulting network — node IDs, names,
// macro tags, everything — is byte-identical at every worker count.
// Arch selector callbacks must be safe for concurrent use when jobs > 1.
func ElaborateArchJobs(g *cdfg.Graph, s *cdfg.Schedule, rb *regbind.Binding, res *binding.Result, width int, arch *Arch, jobs int) (*Design, error) {
	if width < 1 {
		return nil, fmt.Errorf("datapath: width must be >= 1")
	}
	if err := res.Validate(g, s, cdfg.ResourceConstraint{}); err != nil {
		return nil, fmt.Errorf("datapath: %w", err)
	}
	if err := rb.Validate(g, s); err != nil {
		return nil, fmt.Errorf("datapath: %w", err)
	}

	d := &Design{Width: width, StepCount: s.Len}
	net := logic.NewNetwork(g.Name + "_dp")
	d.Net = net

	// --- Control FSM: a wrapping counter over 0..Len-1 plus one-hot
	// step decode. stepMatch[t] is active while the datapath executes
	// control step t (1-based).
	nb := 0
	for (1 << nb) < s.Len {
		nb++
	}
	ctr := make([]int, nb)
	for j := 0; j < nb; j++ {
		ctr[j] = net.AddLatch(fmt.Sprintf("cstep_b%d", j), false)
	}
	d.CounterBits = ctr

	matchValue := func(prefix string, value int) int {
		// AND tree over counter literals for the given counter value.
		var lits []int
		for j := 0; j < nb; j++ {
			if value&(1<<uint(j)) != 0 {
				lits = append(lits, ctr[j])
			} else {
				lits = append(lits, net.AddGate(fmt.Sprintf("%s_nb%d", prefix, j), logic.TTNot(), ctr[j]))
			}
		}
		return buildAnd(net, prefix, lits)
	}
	stepMatch := make([]int, s.Len+1)
	for t := 1; t <= s.Len; t++ {
		stepMatch[t] = matchValue(fmt.Sprintf("step%d", t), t-1)
	}

	if nb > 0 {
		// next = (ctr + 1) unless ctr == Len-1, then 0.
		isLast := matchValue("wrap", s.Len-1)
		notLast := net.AddGate("wrap_n", logic.TTNot(), isLast)
		carry := -1
		for j := 0; j < nb; j++ {
			var inc int
			if carry < 0 {
				inc = net.AddGate(fmt.Sprintf("ctr_inc%d", j), logic.TTNot(), ctr[j])
				carry = ctr[j]
			} else {
				inc = net.AddGate(fmt.Sprintf("ctr_inc%d", j), logic.TTXor2(), ctr[j], carry)
				carry = net.AddGate(fmt.Sprintf("ctr_c%d", j), logic.TTAnd2(), ctr[j], carry)
			}
			next := net.AddGate(fmt.Sprintf("ctr_next%d", j), logic.TTAnd2(), inc, notLast)
			net.ConnectLatch(ctr[j], next)
		}
	}

	// --- Primary input pads.
	pads := make(map[int][]int, len(g.Inputs))
	for _, pi := range g.Inputs {
		name := g.Nodes[pi].Name
		if name == "" {
			name = fmt.Sprintf("in%d", pi)
		}
		bus := make([]int, width)
		for b := 0; b < width; b++ {
			bus[b] = net.AddInput(fmt.Sprintf("%s_%d", name, b))
		}
		pads[pi] = bus
	}

	// --- Registers (latch banks); steering logic is wired after FUs.
	regQ := make([][]int, rb.NumRegs)
	for r := range regQ {
		regQ[r] = make([]int, width)
		for b := 0; b < width; b++ {
			regQ[r][b] = net.AddLatch(fmt.Sprintf("r%d_q%d", r, b), false)
		}
	}

	// --- Functional units with input port muxes.
	fuOut := make([][]int, len(res.FUs))
	muxStats := func(nLeft, nRight int) {
		if nLeft > d.Muxes.FULargest {
			d.Muxes.FULargest = nLeft
		}
		if nRight > d.Muxes.FULargest {
			d.Muxes.FULargest = nRight
		}
		d.Muxes.FULength += nLeft + nRight
	}
	type fuBuild struct {
		frag          *frag
		out           []int
		nLeft, nRight int
	}
	builds := make([]fuBuild, len(res.FUs))
	par.For(len(res.FUs), max(jobs, 1), func(_, i int) {
		f := &frag{}
		out, nl, nr := buildFU(f, g, s, rb, res, res.FUs[i], arch, regQ, stepMatch)
		builds[i] = fuBuild{frag: f, out: out, nLeft: nl, nRight: nr}
	})
	for i, fu := range res.FUs {
		b := builds[i]
		base := b.frag.replay(net)
		bus := make([]int, len(b.out))
		for j, id := range b.out {
			bus[j] = fragResolve(base, id)
		}
		fuOut[fu.ID] = bus
		muxStats(b.nLeft, b.nRight)
	}

	// --- Register steering: group writes by data source, gate each with
	// the OR of its trigger steps, and fall back to the hold path.
	vpr := rb.ValuesPerRegister(g)
	for r, values := range vpr {
		type write struct {
			bus      []int
			triggers []int // step numbers whose ending edge captures
			key      string
		}
		var writes []write
		bySrc := make(map[string]int)
		for _, v := range values {
			var bus []int
			var key string
			var trigStep int
			if g.Nodes[v].Kind.IsOp() {
				fu := res.FUOf[v]
				bus = fuOut[fu]
				key = fmt.Sprintf("fu%d", fu)
				trigStep = s.Completion(g, v) // captured when the op completes
			} else {
				bus = pads[v]
				key = fmt.Sprintf("pi%d", v)
				trigStep = s.Len // pads captured at the iteration boundary
			}
			if i, ok := bySrc[key]; ok {
				writes[i].triggers = append(writes[i].triggers, trigStep)
			} else {
				bySrc[key] = len(writes)
				writes = append(writes, write{bus: bus, triggers: []int{trigStep}, key: key})
			}
		}
		sort.Slice(writes, func(i, j int) bool { return writes[i].key < writes[j].key })

		if len(writes) > d.Muxes.RegLargest {
			d.Muxes.RegLargest = len(writes)
		}
		d.Muxes.RegLength += len(writes)

		// Write triggers fire in distinct control steps, so the steering
		// logic is a one-hot AND-OR tree rather than a mux chain: each
		// source is gated by its select, the hold path by none-active,
		// and a balanced OR tree combines them. Depth stays logarithmic
		// in the source count regardless of the binding. The whole
		// steering cone for the register is one macro region (all inner
		// or-trees stay untagged).
		steerLo := net.NumNodes()
		sels := make([]int, len(writes))
		for wi, w := range writes {
			var trigs []int
			for _, t := range w.triggers {
				trigs = append(trigs, stepMatch[t])
			}
			sels[wi] = buildOr(net, fmt.Sprintf("r%d_w%d_en", r, wi), trigs)
		}
		hold := net.AddGate(fmt.Sprintf("r%d_hold", r), logic.TTNot(),
			buildOr(net, fmt.Sprintf("r%d_any", r), sels))
		for b := 0; b < width; b++ {
			terms := make([]int, 0, len(writes)+1)
			for wi, w := range writes {
				terms = append(terms, net.AddGate(fmt.Sprintf("r%d_w%d_d%d", r, wi, b), logic.TTAnd2(), sels[wi], w.bus[b]))
			}
			terms = append(terms, net.AddGate(fmt.Sprintf("r%d_h_d%d", r, b), logic.TTAnd2(), hold, regQ[r][b]))
			net.ConnectLatch(regQ[r][b], buildOr(net, fmt.Sprintf("r%d_d%d", r, b), terms))
		}
		net.TagMacro(fmt.Sprintf("r%d_steer", r), fmt.Sprintf("steer/%d/%d", len(writes), width), steerLo)
	}

	// --- Primary outputs: register Q when stored, FU output for values
	// born in the final step (readable combinationally during it).
	for i, v := range g.Outputs {
		var bus []int
		if r := rb.Reg[v]; r >= 0 {
			bus = regQ[r]
		} else {
			bus = fuOut[res.FUOf[v]]
		}
		d.OutputBuses = append(d.OutputBuses, bus)
		for b := 0; b < width; b++ {
			net.MarkOutput(fmt.Sprintf("out%d_%d", i, b), bus[b])
		}
	}

	if err := net.Check(); err != nil {
		return nil, fmt.Errorf("datapath: produced invalid network: %w", err)
	}
	return d, nil
}

// buildFU constructs one functional unit and its two input port muxes
// onto nb (a live network or a replay frag), returning the FU output
// bus and the two port-mux input counts for the mux report.
func buildFU(nb netgen.NetBuilder, g *cdfg.Graph, s *cdfg.Schedule, rb *regbind.Binding, res *binding.Result, fu *binding.FU, arch *Arch, regQ [][]int, stepMatch []int) (out []int, nLeft, nRight int) {
	left, right := binding.PortSources(g, rb, res, fu)
	lbus := buildPortMux(nb, g, s, rb, res, fu, "L", left, regQ, stepMatch, true)
	rbus := buildPortMux(nb, g, s, rb, res, fu, "R", right, regQ, stepMatch, false)
	prefix := fmt.Sprintf("fu%d_", fu.ID)
	if fu.Kind == netgen.FUAdd {
		aArch := netgen.AdderRipple
		if arch != nil && arch.Adder != nil {
			aArch = arch.Adder(fu)
		}
		out = buildAddSub(nb, g, s, res, fu, prefix, aArch, lbus, rbus, stepMatch)
	} else if s.Lib.MultPipelined && s.Lib.Latency(cdfg.KindMult) > 1 {
		out = netgen.BuildPipelinedMultiplier(nb, prefix, lbus, rbus, s.Lib.Latency(cdfg.KindMult))
	} else {
		mArch := netgen.MultArray
		if arch != nil && arch.Mult != nil {
			mArch = arch.Mult(fu)
		}
		out = netgen.BuildMultArch(nb, mArch, prefix, lbus, rbus)
	}
	return out, len(left), len(right)
}

// buildPortMux constructs one FU input port: a mux over the distinct
// source registers with gate-level select decoding derived from the
// schedule. sources is the sorted register list for the port.
func buildPortMux(net netgen.NetBuilder, g *cdfg.Graph, s *cdfg.Schedule, rb *regbind.Binding, res *binding.Result, fu *binding.FU, side string, sources []int, regQ [][]int, stepMatch []int, isLeft bool) []int {
	prefix := fmt.Sprintf("fu%d_%s", fu.ID, side)
	if len(sources) == 1 {
		return regQ[sources[0]]
	}
	index := make(map[int]int, len(sources))
	for i, r := range sources {
		index[r] = i
	}
	nb := netgen.SelBits(len(sources))
	// sel bit j = OR of step matches of ops whose source index has bit j.
	selSteps := make([][]int, nb)
	for _, op := range fu.Ops {
		l, r := res.PortArgs(g, op)
		arg := l
		if !isLeft {
			arg = r
		}
		idx := index[rb.Reg[arg]]
		for j := 0; j < nb; j++ {
			if idx&(1<<uint(j)) != 0 {
				selSteps[j] = append(selSteps[j], stepMatch[s.Step[op]])
			}
		}
	}
	// Select lines hold their last value through idle steps (registered
	// Moore-style decode): without the hold, an idle port would bounce
	// to an arbitrary source and every write to that register would
	// needlessly recompute the functional unit.
	var active []int
	for _, op := range fu.Ops {
		active = append(active, stepMatch[s.Step[op]])
	}
	busy := buildOrTagged(net, prefix+"_busy", active)
	sel := make([]int, nb)
	for j := 0; j < nb; j++ {
		raw := buildOrTagged(net, fmt.Sprintf("%s_sel%d", prefix, j), selSteps[j])
		held := net.AddLatch(fmt.Sprintf("%s_selq%d", prefix, j), false)
		eff := net.AddGate(fmt.Sprintf("%s_sele%d", prefix, j), logic.TTMux2(), busy, held, raw)
		net.ConnectLatch(held, eff)
		sel[j] = eff
	}
	data := make([][]int, len(sources))
	for i, r := range sources {
		data[i] = regQ[r]
	}
	return netgen.BuildMux(net, prefix+"m_", sel, data)
}

// buildAddSub constructs the adder-class FU: the selected adder
// architecture when every bound operation is an addition, or a ripple
// add/sub unit (a + (b XOR mode) + mode) whose mode line is the OR of
// the step matches of the subtractions (the architecture variants do
// not expose a carry-in, so mixed add/sub units stay ripple).
func buildAddSub(net netgen.NetBuilder, g *cdfg.Graph, s *cdfg.Schedule, res *binding.Result, fu *binding.FU, prefix string, arch netgen.AdderArch, a, b []int, stepMatch []int) []int {
	var subSteps []int
	for _, op := range fu.Ops {
		if g.Nodes[op].Kind == cdfg.KindSub {
			// The mode line must stay asserted for the operation's whole
			// occupation interval (multi-cycle units compute across
			// several steps).
			for t := s.Step[op]; t <= s.Completion(g, op); t++ {
				subSteps = append(subSteps, stepMatch[t])
			}
		}
	}
	if len(subSteps) == 0 {
		return netgen.BuildAdderArch(net, arch, prefix, a, b)
	}
	// The whole add/sub unit (mode decode + operand XORs + adder) is one
	// macro region; the inner buildOr stays untagged so the region has a
	// single non-nested tag.
	lo := net.NumNodes()
	mode := buildOr(net, prefix+"mode", subSteps)
	bx := make([]int, len(b))
	for i := range b {
		bx[i] = net.AddGate(fmt.Sprintf("%sbx%d", prefix, i), logic.TTXor2(), b[i], mode)
	}
	sum, _ := netgen.BuildAdder(net, prefix, a, bx, mode)
	net.TagMacro(prefix+"addsub", fmt.Sprintf("addsub/%d", len(a)), lo)
	return sum
}

// buildOrTagged is buildOr plus a macro tag over the tree's gate range
// when the tree actually materializes gates (>= 2 inputs). Callers must
// ensure the region is not nested inside another tagged region.
func buildOrTagged(net netgen.NetBuilder, prefix string, nodes []int) int {
	if len(nodes) < 2 {
		return buildOr(net, prefix, nodes)
	}
	lo := net.NumNodes()
	out := buildOr(net, prefix, nodes)
	net.TagMacro(prefix, fmt.Sprintf("or/%d", len(nodes)), lo)
	return out
}

// buildOr reduces nodes with a balanced OR tree (empty -> const 0).
func buildOr(net netgen.NetBuilder, prefix string, nodes []int) int {
	switch len(nodes) {
	case 0:
		return net.AddConst(prefix+"_c0", false)
	case 1:
		return nodes[0]
	}
	level := 0
	cur := nodes
	for len(cur) > 1 {
		var next []int
		for i := 0; i < len(cur); i += 2 {
			if i+1 == len(cur) {
				next = append(next, cur[i])
				continue
			}
			next = append(next, net.AddGate(fmt.Sprintf("%s_o%d_%d", prefix, level, i/2), logic.TTOr2(), cur[i], cur[i+1]))
		}
		cur = next
		level++
	}
	return cur[0]
}

// buildAnd reduces nodes with a balanced AND tree (empty -> const 1).
func buildAnd(net netgen.NetBuilder, prefix string, nodes []int) int {
	switch len(nodes) {
	case 0:
		return net.AddConst(prefix+"_c1", true)
	case 1:
		return nodes[0]
	}
	level := 0
	cur := nodes
	for len(cur) > 1 {
		var next []int
		for i := 0; i < len(cur); i += 2 {
			if i+1 == len(cur) {
				next = append(next, cur[i])
				continue
			}
			next = append(next, net.AddGate(fmt.Sprintf("%s_a%d_%d", prefix, level, i/2), logic.TTAnd2(), cur[i], cur[i+1]))
		}
		cur = next
		level++
	}
	return cur[0]
}

// CounterValue decodes the FSM counter from a simulator value slice.
func (d *Design) CounterValue(val []bool) int {
	v := 0
	for j, id := range d.CounterBits {
		if val[id] {
			v |= 1 << uint(j)
		}
	}
	return v
}

// ReadOutput decodes primary output i from a value slice.
func (d *Design) ReadOutput(val []bool, i int) uint64 {
	var out uint64
	for b, id := range d.OutputBuses[i] {
		if val[id] {
			out |= 1 << uint(b)
		}
	}
	return out
}

// SetInputVector fills a simulator input vector (indexed like
// Net.Inputs) from per-PI values. PIs are ordered as in the CDFG.
func (d *Design) SetInputVector(g *cdfg.Graph, values []uint64) []bool {
	if len(values) != len(g.Inputs) {
		panic("datapath: input value count mismatch")
	}
	in := make([]bool, len(d.Net.Inputs))
	pos := 0
	for pi := range g.Inputs {
		for b := 0; b < d.Width; b++ {
			in[pos] = values[pi]&(1<<uint(b)) != 0
			pos++
		}
	}
	return in
}
