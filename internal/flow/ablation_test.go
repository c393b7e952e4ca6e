package flow

import (
	"strings"
	"testing"

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

// TestAblationHonoursBindSettings: the ablation's LOPASS and
// HLPower-glitch variants are the mainline binds, so under a non-default
// row bound (Config.BindK) they must reproduce Table 3's columns.
func TestAblationHonoursBindSettings(t *testing.T) {
	cfg := testConfig()
	cfg.BindK = 2
	se := NewSession(cfg)
	pr, _ := workload.ByName("pr")
	se.Benchmarks = []workload.Profile{pr}
	t3, err := Table3Data(bgc, se)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := AblationData(bgc, se)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]AblationRow{
		"LOPASS":         {PowerMW: t3[0].PowerL, LUTs: t3[0].LUTsL},
		"HLPower-glitch": {PowerMW: t3[0].PowerH, LUTs: t3[0].LUTsH},
	}
	for _, r := range rows {
		if w, ok := want[r.Variant]; ok && (r.PowerMW != w.PowerMW || r.LUTs != w.LUTs) {
			t.Errorf("%s: %.4f mW / %d LUTs, Table 3 has %.4f mW / %d LUTs",
				r.Variant, r.PowerMW, r.LUTs, w.PowerMW, w.LUTs)
		}
	}
}
