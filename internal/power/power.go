// Package power implements the dynamic-power and timing models that
// substitute for Altera's Quartus II PowerPlay Power Analyzer and timing
// analysis in the paper's flow (§6.1). Dynamic power follows the
// standard equation the paper quotes in §1:
//
//	Pd = 0.5 × SA × C × Vdd² × f
//
// where SA is measured switching activity (transitions per cycle from
// the gate-level simulator), C an effective per-node capacitance
// calibrated to Cyclone II's 90 nm fabric (LUT output + average routing
// load), Vdd the 1.2 V core supply, and f the clock frequency derived
// from the mapped critical path. Absolute milliwatts are a calibration,
// not a measurement — the experiments compare ratios, which do not
// depend on the constants.
package power

import (
	"repro/internal/arch"
	"repro/internal/logic"
	"repro/internal/sim"
)

// Model holds the electrical and timing constants of the target fabric.
// Build it from the fabric's arch.Target with FromArch.
type Model struct {
	// Vdd is the core supply voltage in volts.
	Vdd float64
	// CLut is the effective switched capacitance per LUT output in
	// farads, including average local/global routing load.
	CLut float64
	// CReg is the effective switched capacitance per register output.
	CReg float64
	// LUTDelayNs is the per-level LUT+routing delay in nanoseconds.
	LUTDelayNs float64
	// ClockOverheadNs covers clock-to-Q, setup, and global network skew.
	ClockOverheadNs float64
}

// FromArch builds the power model from a target-architecture
// descriptor; FromArch(arch.CycloneII()) is the paper's testbed. The
// descriptor's Projection block is not consumed here — Analyze always
// reports the FPGA-fabric numbers; apply the projection afterwards with
// Project.
func FromArch(t arch.Target) Model {
	return Model{
		Vdd:             t.Vdd,
		CLut:            t.CLut,
		CReg:            t.CReg,
		LUTDelayNs:      t.LUTDelayNs,
		ClockOverheadNs: t.ClockOverheadNs,
	}
}

// ClockPeriodNs returns the achievable clock period for a mapped network
// of the given LUT depth.
func (m Model) ClockPeriodNs(depth int) float64 {
	return m.ClockOverheadNs + float64(depth)*m.LUTDelayNs
}

// FrequencyHz converts a clock period in nanoseconds to hertz.
func FrequencyHz(periodNs float64) float64 {
	if periodNs <= 0 {
		return 0
	}
	return 1e9 / periodNs
}

// Report is a power/timing summary for one design, mirroring the columns
// of the paper's Table 3.
type Report struct {
	// DynamicPowerMW is the estimated dynamic power in milliwatts.
	DynamicPowerMW float64
	// ClockPeriodNs is the achievable clock period.
	ClockPeriodNs float64
	// AvgToggleRateMHz is the per-signal average toggle rate in millions
	// of transitions per second (the Figure 3 metric, as reported by
	// Quartus II).
	AvgToggleRateMHz float64
	// TotalTogglesPerCycle is the raw switching activity per clock.
	TotalTogglesPerCycle float64
	// GlitchShare is the fraction of gate transitions that are spurious.
	GlitchShare float64
}

// Analyze produces the power/timing report for a mapped network and its
// measured transition counts.
func (m Model) Analyze(mapped *logic.Network, counts sim.Counts) Report {
	period := m.ClockPeriodNs(mapped.Depth())
	f := FrequencyHz(period)
	cycles := float64(counts.Cycles)
	if cycles == 0 {
		return Report{ClockPeriodNs: period}
	}
	gateTps := float64(counts.Gate) / cycles * f
	latchTps := float64(counts.Latch) / cycles * f

	pd := 0.5 * m.Vdd * m.Vdd * (m.CLut*gateTps + m.CReg*latchTps)

	numSignals := mapped.NumGates() + len(mapped.Latches)
	avgToggle := 0.0
	if numSignals > 0 {
		avgToggle = (gateTps + latchTps) / float64(numSignals) / 1e6
	}
	glitchShare := 0.0
	if counts.Gate > 0 {
		glitchShare = float64(counts.Glitches()) / float64(counts.Gate)
	}
	return Report{
		DynamicPowerMW:       pd * 1e3,
		ClockPeriodNs:        period,
		AvgToggleRateMHz:     avgToggle,
		TotalTogglesPerCycle: counts.TogglesPerCycle(),
		GlitchShare:          glitchShare,
	}
}

// AnalyzeJobs is Analyze; the worker count is ignored, since the
// analysis is a single pass over the net list.
func (m Model) AnalyzeJobs(mapped *logic.Network, counts sim.Counts, _ int) Report {
	return m.Analyze(mapped, counts)
}

// Project applies FPGA→ASIC gap factors to an FPGA-fabric report:
// dynamic power divides by PowerDiv (Kuon & Rose compare dynamic power
// with both implementations at the same frequency, so the measured
// toggle basis is unchanged) and the clock period divides by FreqMult
// (the separately achievable speedup). The per-cycle and per-signal
// activity metrics (AvgToggleRateMHz, TotalTogglesPerCycle,
// GlitchShare) describe the logic's switching behaviour at the
// comparison frequency and pass through untouched. Area has no Report
// field; project LUT counts with Projection.Area directly.
func Project(p arch.Projection, r Report) Report {
	r.DynamicPowerMW = p.Power(r.DynamicPowerMW)
	r.ClockPeriodNs = p.PeriodNs(r.ClockPeriodNs)
	return r
}
