// Package arch defines target-architecture descriptors for the flow:
// the LUT input count the technology mapper covers with, the electrical
// and timing constants the power model analyzes under, and an optional
// FPGA→ASIC projection block. The paper evaluates one fabric (Altera
// Cyclone II, 90 nm, 4-input LUTs); this package generalizes the
// reproduction to a parameterized family so K-sweeps and projected-ASIC
// scenarios run through the same pipeline.
//
// Presets:
//
//   - CycloneII: the paper's testbed, bit-identical to the constants
//     the reproduction has always used.
//   - StratixLike6LUT: a 6-input-LUT fabric in the style of Stratix-era
//     parts, with constants scaled following the COFFE custom-flow
//     report for an N=10, K=6 fracturable-LUT architecture
//     (SNIPPETS.md §1): a 6-LUT cell is roughly twice the 4-LUT's
//     transistor count, so its switched capacitance and intrinsic delay
//     both grow, while the shallower covers it enables claw the delay
//     back at the network level.
//   - ASICProjected: any FPGA base plus the measured FPGA↔ASIC gap
//     factors of Kuon & Rose's empirical study (logic-only designs:
//     area ÷35, dynamic power ÷14 at iso-frequency, achievable
//     frequency ×3.4), as carried by the Charm fpga2asic model
//     (SNIPPETS.md §2).
//
// A Target's Fingerprint is its cache and snapshot identity: every
// pipeline stage whose result depends on the fabric keys on it, and SA
// tables are stamped with it so a table characterized under one arch can
// never silently serve another. The fingerprint covers the physics
// (K, constants, projection) and excludes the display Name, matching
// the flow-wide rule that labels never enter cache identity.
package arch

import (
	"fmt"
	"strconv"
	"strings"
)

// MinK and MaxK bound the supported LUT input counts. The lower bound is
// structural (a 1-input LUT cannot cover logic); the upper bound is the
// estimator contract: prob.Char's packed pair-code tables and the
// mapper's truth-table fast paths assume functions of at most 6
// variables (prob.pairCodeMaxVars), so a K beyond 6 would silently fall
// off the validated paths. Cut enumeration composes each cut's function
// in one word (bitvec.WordVars) and panics past 6 leaves.
const (
	MinK = 2
	MaxK = 6
)

// Projection holds empirical FPGA→ASIC gap factors. The reference
// values (LogicProjection) come from Kuon & Rose's measured comparison
// of logic-only designs on a 90 nm Stratix II against standard-cell
// ASICs on the same node; dynamic power is compared with both
// implementations clocked at the same frequency, while FreqMult reports
// the separately achievable clock speedup.
type Projection struct {
	// AreaDiv divides FPGA logic area (LUT count as the proxy).
	AreaDiv float64
	// PowerDiv divides FPGA dynamic power (iso-frequency comparison).
	PowerDiv float64
	// FreqMult multiplies the achievable clock frequency (divides the
	// clock period).
	FreqMult float64
}

// LogicProjection returns the measured logic-only gap factors
// (area ÷35, dynamic power ÷14, frequency ×3.4).
func LogicProjection() Projection {
	return Projection{AreaDiv: 35, PowerDiv: 14, FreqMult: 3.4}
}

// Area projects an FPGA logic area onto the ASIC.
func (p Projection) Area(fpga float64) float64 {
	if p.AreaDiv <= 0 {
		return fpga
	}
	return fpga / p.AreaDiv
}

// Power projects an FPGA dynamic power onto the ASIC (iso-frequency).
func (p Projection) Power(fpga float64) float64 {
	if p.PowerDiv <= 0 {
		return fpga
	}
	return fpga / p.PowerDiv
}

// PeriodNs projects an FPGA clock period onto the ASIC's achievable
// period.
func (p Projection) PeriodNs(fpga float64) float64 {
	if p.FreqMult <= 0 {
		return fpga
	}
	return fpga / p.FreqMult
}

// Target describes one implementation fabric: the LUT input count the
// mapper targets and the electrical/timing constants the power model
// runs with. The zero value is not a valid target; start from a preset
// or fill every field and Validate.
type Target struct {
	// Name is the display label ("k4", "k6", ...). Display-only: it is
	// excluded from Fingerprint and so from every cache key.
	Name string
	// K is the LUT input count the mapper covers with.
	K int
	// Vdd is the core supply voltage in volts.
	Vdd float64
	// CLut is the effective switched capacitance per LUT output in
	// farads, including average routing load.
	CLut float64
	// CReg is the effective switched capacitance per register output.
	CReg float64
	// LUTDelayNs is the per-level LUT+routing delay in nanoseconds.
	LUTDelayNs float64
	// ClockOverheadNs covers clock-to-Q, setup, and global network skew.
	ClockOverheadNs float64
	// Projection, when non-nil, applies FPGA→ASIC gap factors to the
	// final power report (the mapping and simulation still model the
	// FPGA fabric; the projection rescales the measured outcome).
	Projection *Projection
}

// CycloneII returns the paper's testbed architecture: Altera Cyclone II,
// 90 nm, 4-input LUTs, 1.2 V. The constants are bit-identical to the
// ones the reproduction's power model has always used, so every golden
// result is unchanged under this target.
func CycloneII() Target {
	return Target{
		Name:            "k4",
		K:               4,
		Vdd:             1.2,
		CLut:            4.5e-12,
		CReg:            3.0e-12,
		LUTDelayNs:      0.9,
		ClockOverheadNs: 3.0,
	}
}

// StratixLike6LUT returns a 6-input-LUT fabric on the same 90 nm / 1.2 V
// node, in the style of Stratix-era adaptive logic modules. Constants
// follow the scaling the COFFE K=6 custom-flow report (SNIPPETS.md §1)
// implies relative to a 4-LUT cell: the larger LUT mux tree and its
// wider local interconnect raise the per-output switched capacitance
// (~1.4×) and the intrinsic per-level delay (~1.2×); the register and
// clock-network constants are fabric-level and stay put.
func StratixLike6LUT() Target {
	return Target{
		Name:            "k6",
		K:               6,
		Vdd:             1.2,
		CLut:            6.3e-12,
		CReg:            3.0e-12,
		LUTDelayNs:      1.08,
		ClockOverheadNs: 3.0,
	}
}

// ASICProjected returns base with the measured logic-only FPGA→ASIC
// gap factors attached (LogicProjection). Mapping and simulation still
// run on the base FPGA fabric — the projection is an empirical rescale
// of the final report, the way Kuon & Rose's factors are meant to be
// applied.
func ASICProjected(base Target) Target {
	t := base
	t.Name = base.Name + "-asic"
	p := LogicProjection()
	t.Projection = &p
	return t
}

// Presets returns the built-in target set the cross-architecture sweep
// compares: K=4, K=6, and the ASIC projection of the K=4 base.
func Presets() []Target {
	return []Target{CycloneII(), StratixLike6LUT(), ASICProjected(CycloneII())}
}

// ByName resolves a CLI architecture name. Recognized: "k4" (Cyclone
// II), "k6" (Stratix-like 6-LUT), "asic" (K=4 with the ASIC
// projection).
func ByName(name string) (Target, bool) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "k4", "cyclone2", "cycloneii":
		return CycloneII(), true
	case "k6", "stratix6", "stratixlike6lut":
		return StratixLike6LUT(), true
	case "asic":
		return ASICProjected(CycloneII()), true
	}
	return Target{}, false
}

// Validate reports whether the descriptor is usable: K within
// [MinK, MaxK], every electrical/timing constant positive, and — when a
// projection is attached — every gap factor positive.
func (t Target) Validate() error {
	if t.K < MinK || t.K > MaxK {
		return fmt.Errorf("arch: K=%d outside supported range [%d,%d]", t.K, MinK, MaxK)
	}
	for _, c := range []struct {
		name string
		v    float64
	}{
		{"Vdd", t.Vdd},
		{"CLut", t.CLut},
		{"CReg", t.CReg},
		{"LUTDelayNs", t.LUTDelayNs},
		{"ClockOverheadNs", t.ClockOverheadNs},
	} {
		if !(c.v > 0) {
			return fmt.Errorf("arch: %s=%g must be positive", c.name, c.v)
		}
	}
	if p := t.Projection; p != nil {
		if !(p.AreaDiv > 0) || !(p.PowerDiv > 0) || !(p.FreqMult > 0) {
			return fmt.Errorf("arch: projection factors (%g,%g,%g) must be positive",
				p.AreaDiv, p.PowerDiv, p.FreqMult)
		}
	}
	return nil
}

// g renders a float the way Fingerprint and ParseFingerprint agree on.
func g(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Fingerprint renders the target's physics as a canonical, space-free,
// parseable token: equal fingerprints mean interchangeable targets. It
// is the arch identity stage cache keys and SA-table snapshots embed.
// The display Name is deliberately excluded.
func (t Target) Fingerprint() string {
	proj := "none"
	if p := t.Projection; p != nil {
		proj = g(p.AreaDiv) + ":" + g(p.PowerDiv) + ":" + g(p.FreqMult)
	}
	return fmt.Sprintf("K%d;vdd=%s;clut=%s;creg=%s;lutns=%s;clkns=%s;proj=%s",
		t.K, g(t.Vdd), g(t.CLut), g(t.CReg), g(t.LUTDelayNs), g(t.ClockOverheadNs), proj)
}

// ParseFingerprint inverts Fingerprint. The returned Target carries no
// display Name (fingerprints never do); attach one if needed. Round
// trip: ParseFingerprint(t.Fingerprint()).Fingerprint() == t.Fingerprint().
func ParseFingerprint(s string) (Target, error) {
	var t Target
	fields := strings.Split(s, ";")
	if len(fields) != 7 || !strings.HasPrefix(fields[0], "K") {
		return Target{}, fmt.Errorf("arch: bad fingerprint %q", s)
	}
	k, err := strconv.Atoi(fields[0][1:])
	if err != nil {
		return Target{}, fmt.Errorf("arch: bad fingerprint %q: %w", s, err)
	}
	t.K = k
	want := []string{"vdd", "clut", "creg", "lutns", "clkns"}
	dst := []*float64{&t.Vdd, &t.CLut, &t.CReg, &t.LUTDelayNs, &t.ClockOverheadNs}
	for i, f := range fields[1 : 1+len(want)] {
		key, val, ok := strings.Cut(f, "=")
		if !ok || key != want[i] {
			return Target{}, fmt.Errorf("arch: bad fingerprint field %q (want %s=...)", f, want[i])
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return Target{}, fmt.Errorf("arch: bad fingerprint field %q: %w", f, err)
		}
		*dst[i] = v
	}
	proj, ok := strings.CutPrefix(fields[6], "proj=")
	if !ok {
		return Target{}, fmt.Errorf("arch: bad fingerprint field %q (want proj=...)", fields[6])
	}
	if proj != "none" {
		parts := strings.Split(proj, ":")
		if len(parts) != 3 {
			return Target{}, fmt.Errorf("arch: bad projection %q in fingerprint", proj)
		}
		var p Projection
		for i, d := range []*float64{&p.AreaDiv, &p.PowerDiv, &p.FreqMult} {
			v, err := strconv.ParseFloat(parts[i], 64)
			if err != nil {
				return Target{}, fmt.Errorf("arch: bad projection %q in fingerprint: %w", proj, err)
			}
			*d = v
		}
		t.Projection = &p
	}
	if err := t.Validate(); err != nil {
		return Target{}, fmt.Errorf("arch: fingerprint %q: %w", s, err)
	}
	return t, nil
}
