package power

import (
	"math"
	"testing"

	"repro/internal/arch"
	"repro/internal/mapper"
	"repro/internal/netgen"
	"repro/internal/sim"
)

// TestFromArchMatchesCycloneII pins the descriptor-built model to the
// historical constants: the default arch must be bit-identical.
func TestFromArchMatchesCycloneII(t *testing.T) {
	want := Model{
		Vdd:             1.2,
		CLut:            4.5e-12,
		CReg:            3.0e-12,
		LUTDelayNs:      0.9,
		ClockOverheadNs: 3.0,
	}
	if got := FromArch(arch.CycloneII()); got != want {
		t.Errorf("FromArch(CycloneII) = %+v, want %+v", got, want)
	}
}

// cycloneII is the paper's testbed model.
func cycloneII() Model { return FromArch(arch.CycloneII()) }

// TestProjectAppliesGapFactors checks the FPGA→ASIC rescale: power ÷14
// (iso-frequency), period ÷3.4, activity metrics untouched.
func TestProjectAppliesGapFactors(t *testing.T) {
	in := Report{
		DynamicPowerMW:       14,
		ClockPeriodNs:        6.8,
		AvgToggleRateMHz:     5,
		TotalTogglesPerCycle: 123,
		GlitchShare:          0.25,
	}
	out := Project(arch.LogicProjection(), in)
	if math.Abs(out.DynamicPowerMW-1) > 1e-12 {
		t.Errorf("projected power %g, want 1", out.DynamicPowerMW)
	}
	if math.Abs(out.ClockPeriodNs-2) > 1e-12 {
		t.Errorf("projected period %g, want 2", out.ClockPeriodNs)
	}
	if out.AvgToggleRateMHz != in.AvgToggleRateMHz ||
		out.TotalTogglesPerCycle != in.TotalTogglesPerCycle ||
		out.GlitchShare != in.GlitchShare {
		t.Errorf("projection touched activity metrics: %+v", out)
	}
}

func TestClockPeriodScalesWithDepth(t *testing.T) {
	m := cycloneII()
	if m.ClockPeriodNs(0) != m.ClockOverheadNs {
		t.Fatal("zero-depth period should be pure overhead")
	}
	if m.ClockPeriodNs(10) <= m.ClockPeriodNs(5) {
		t.Fatal("period must grow with depth")
	}
}

func TestFrequency(t *testing.T) {
	if f := FrequencyHz(10); math.Abs(f-1e8) > 1 {
		t.Fatalf("10 ns -> %v Hz, want 1e8", f)
	}
	if FrequencyHz(0) != 0 {
		t.Fatal("zero period should return 0")
	}
}

func TestAnalyzeProducesConsistentReport(t *testing.T) {
	net := netgen.MultiplierNetwork(8)
	res, err := mapper.Map(net, mapper.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.New(res.Mapped)
	if err != nil {
		t.Fatal(err)
	}
	counts := s.RunRandom(1000, 21)
	rep := cycloneII().Analyze(res.Mapped, counts)

	if rep.DynamicPowerMW <= 0 {
		t.Fatal("dynamic power should be positive")
	}
	if rep.ClockPeriodNs <= cycloneII().ClockOverheadNs {
		t.Fatal("clock period should include logic depth")
	}
	if rep.AvgToggleRateMHz <= 0 {
		t.Fatal("toggle rate should be positive")
	}
	if rep.GlitchShare <= 0 || rep.GlitchShare >= 1 {
		t.Fatalf("glitch share out of range: %v", rep.GlitchShare)
	}
	if rep.TotalTogglesPerCycle <= 0 {
		t.Fatal("toggles per cycle should be positive")
	}
}

func TestAnalyzeZeroCycles(t *testing.T) {
	net := netgen.AdderNetwork(4)
	res, err := mapper.Map(net, mapper.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rep := cycloneII().Analyze(res.Mapped, sim.Counts{})
	if rep.DynamicPowerMW != 0 {
		t.Fatal("no cycles should mean no measured power")
	}
	if rep.ClockPeriodNs <= 0 {
		t.Fatal("period should still be reported")
	}
}

func TestPowerScalesWithActivity(t *testing.T) {
	// Doubling transition counts (same cycles) should double power.
	net := netgen.AdderNetwork(8)
	res, err := mapper.Map(net, mapper.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	c1 := sim.Counts{Gate: 1000, GateFunctional: 800, Latch: 100, Cycles: 100}
	c2 := sim.Counts{Gate: 2000, GateFunctional: 1600, Latch: 200, Cycles: 100}
	m := cycloneII()
	p1 := m.Analyze(res.Mapped, c1).DynamicPowerMW
	p2 := m.Analyze(res.Mapped, c2).DynamicPowerMW
	if math.Abs(p2-2*p1) > 1e-9 {
		t.Fatalf("power not linear in activity: %v vs %v", p1, p2)
	}
}

func TestDynamicPowerEquation(t *testing.T) {
	// Hand-check the Pd equation on synthetic counts: only gates, no
	// latches. Pd = 0.5 * Vdd^2 * CLut * toggles_per_second.
	net := netgen.AdderNetwork(4)
	res, err := mapper.Map(net, mapper.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	m := cycloneII()
	counts := sim.Counts{Gate: 500, GateFunctional: 500, Cycles: 100}
	period := m.ClockPeriodNs(res.Mapped.Depth())
	f := 1e9 / period
	want := 0.5 * m.Vdd * m.Vdd * m.CLut * (500.0 / 100.0 * f) * 1e3
	got := m.Analyze(res.Mapped, counts).DynamicPowerMW
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("Pd = %v, want %v", got, want)
	}
}
