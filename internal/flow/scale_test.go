package flow

import (
	"math"
	"testing"

	"repro/internal/workload"
)

// TestScaleTierPinned pins one scale tier end to end: ctrl-2k bound by
// HLPower (a=0.5) at DefaultConfig. Its netlist crosses
// mapper.DefaultMacroMinGates, so the pinned cover includes stitched
// macro covers, which no paper benchmark reaches. The estimate and the
// power are compared by their float64 bits.
func TestScaleTierPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("full scale-tier pipeline")
	}
	p, ok := workload.ScaleByName("ctrl-2k")
	if !ok {
		t.Fatal("ctrl-2k scale profile missing")
	}
	g := p.Build()
	r, err := NewSession(DefaultConfig()).RunGraphCtx(bgc, g, p.Name, p.RC, BinderHLPower05)
	if err != nil {
		t.Fatal(err)
	}
	if r.LUTs != 17832 || r.Depth != 28 {
		t.Errorf("ctrl-2k: %d LUTs, depth %d; want 17832, 28", r.LUTs, r.Depth)
	}
	if got := math.Float64bits(r.EstSA); got != 0x40ccd4068d58fc5d {
		t.Errorf("ctrl-2k EstSA %v (bits %#x), want bits 0x40ccd4068d58fc5d", r.EstSA, got)
	}
	if got := math.Float64bits(r.Power.DynamicPowerMW); got != 0x40892aa9b6be1b4f {
		t.Errorf("ctrl-2k power %v mW (bits %#x), want bits 0x40892aa9b6be1b4f (805.333 mW)",
			r.Power.DynamicPowerMW, got)
	}
}
