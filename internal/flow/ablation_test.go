package flow

import (
	"strings"
	"testing"

	"repro/internal/cdfg"
	"repro/internal/modsel"
	"repro/internal/workload"
)

func TestAblationRendersAllVariants(t *testing.T) {
	se := NewSession(testConfig())
	pr, _ := workload.ByName("pr")
	se.Benchmarks = []workload.Profile{pr}
	var sb strings.Builder
	if err := Ablation(bgc, &sb, se); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"LOPASS", "LOPASS-flow", "HLPower-glitch", "HLPower-zerodelay", "HLPower-najm", "HLPower+modsel", "HLPower+portopt"} {
		if !strings.Contains(out, want) {
			t.Fatalf("ablation output missing %q:\n%s", want, out)
		}
	}
}

func TestRunWithModSel(t *testing.T) {
	cfg := testConfig()
	ms := modsel.DefaultOptions()
	ms.Width = cfg.Width
	cfg.ModSel = &ms
	g := workload.FIR(6)
	r, err := NewSession(cfg).RunGraphCtx(bgc, g, "fir6", cdfg.ResourceConstraint{Add: 2, Mult: 2}, BinderHLPower05)
	if err != nil {
		t.Fatal(err)
	}
	if r.LUTs <= 0 || r.Power.DynamicPowerMW <= 0 {
		t.Fatal("modsel run produced no measurements")
	}
}
