package flow

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/pipeline"
	"repro/internal/satable"
	"repro/internal/workload"
)

// TestStoreKeysPinned pins the hex values of the keys durable artifacts
// live under: the config fingerprint (the run@ class), the SA table
// fingerprints (the sa@ classes) and every stage key of one pr run. A
// change that moves any of them orphans every store written before it,
// so a refactor that claims to keep the keys byte-identical must pass
// this test unchanged.
func TestStoreKeysPinned(t *testing.T) {
	targets := []struct {
		name string
		t    arch.Target
	}{
		{"k4", arch.CycloneII()},
		{"k6", arch.StratixLike6LUT()},
		{"asic", arch.ASICProjected(arch.CycloneII())},
	}
	check := func(what, got, want string) {
		t.Helper()
		if got != want {
			t.Errorf("%s = %q, want %q", what, got, want)
		}
	}

	wantConfig := map[string]string{
		"k4":   "c15b20aa9c1705c2",
		"k6":   "63fe36972f3cfc47",
		"asic": "f1fb6073b10b1d87",
	}
	for _, tg := range targets {
		cfg := DefaultConfig()
		cfg.Arch = tg.t
		check("Config.Fingerprint "+tg.name, cfg.Fingerprint(), wantConfig[tg.name])
	}

	wantTable := map[string]string{
		"k4/glitch":    "271817fe6d80560e",
		"k4/najm":      "3c05db5d7020efbf",
		"k4/zerodelay": "b555ad7b97e35e74",
		"k6/glitch":    "b6232b13f85b9c93",
		"k6/najm":      "a5aff73f7f83a600",
		"k6/zerodelay": "d3a20e71a38e24ed",
	}
	for _, tg := range targets[:2] {
		for _, est := range []satable.Estimator{satable.EstimatorGlitch, satable.EstimatorNajm, satable.EstimatorZeroDelay} {
			name := tg.name + "/" + est.String()
			check("Table.Fingerprint "+name, satable.NewForArch(8, est, tg.t).Fingerprint(), wantTable[name])
		}
	}

	wantStage := map[string]string{
		"LOPASS/schedule":        "9aaf22feafc5ed36",
		"LOPASS/regbind":         "8fdb17b3a572c0f",
		"LOPASS/bind":            "6b93bd0ddbaa2bce",
		"LOPASS/datapath":        "ef000e4212417687",
		"LOPASS/map":             "7ba2f56438fd4656",
		"LOPASS/sim":             "4dbd947921920518",
		"LOPASS/power":           "c54858a92d8d9bee",
		"HLPower a=0.5/schedule": "9aaf22feafc5ed36",
		"HLPower a=0.5/regbind":  "8fdb17b3a572c0f",
		"HLPower a=0.5/bind":     "15ac53332eb4225",
		"HLPower a=0.5/datapath": "4df9f886ad18607f",
		"HLPower a=0.5/map":      "b9fcdda08de7dc4d",
		"HLPower a=0.5/sim":      "418a0bf049b4dc7f",
		"HLPower a=0.5/power":    "b288328ca047ec30",
	}
	cfg := testConfig()
	cfg.Vectors = 50
	se := NewSession(cfg)
	pr, _ := workload.ByName("pr")
	for _, b := range []Binder{BinderLOPASS, BinderHLPower05} {
		var tr pipeline.Trace
		if _, err := se.Run(pipeline.WithTraces(bgc, &tr), pr, b); err != nil {
			t.Fatal(err)
		}
		got := make(map[string]string)
		for _, sp := range tr.Spans() {
			got[sp.Stage] = sp.Key
		}
		if len(got) != len(StageNames) {
			t.Errorf("%s: trace has stages %v, want %v", b.Name, got, StageNames)
		}
		for _, stage := range StageNames {
			name := b.Name + "/" + stage
			check("stage key "+name, got[stage], wantStage[name])
		}
	}
}
