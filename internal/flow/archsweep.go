package flow

import (
	"context"
	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/arch"
	"repro/internal/power"
)

// ArchSweepRow is one (benchmark, architecture) point of the
// cross-architecture comparison: both binders' measurements on one
// fabric, with the HLPower-vs-LOPASS power reduction the paper's tables
// report.
type ArchSweepRow struct {
	Bench string
	// Arch is the target's display name ("k4", "k6", "k4-asic").
	Arch string
	// K is the target's LUT input count.
	K int
	// Projected reports whether the row carries an FPGA→ASIC projection.
	Projected bool
	// PowerL and PowerH are LOPASS's and HLPower a=0.5's dynamic power
	// (mW; projected for ASIC rows).
	PowerL, PowerH float64
	// ClockNsH is HLPower's achievable clock period (projected for ASIC
	// rows).
	ClockNsH float64
	// LUTsL and LUTsH are the mapped LUT counts (always the FPGA
	// mapping's — the projection rescales area separately, see AreaH).
	LUTsL, LUTsH int
	// AreaH is HLPower's logic area in LUT equivalents: the LUT count,
	// divided by the projection's area factor for ASIC rows.
	AreaH float64
	// DepthH is HLPower's mapped LUT depth.
	DepthH int
	// GlitchH is HLPower's glitch share of gate transitions.
	GlitchH float64
	// PowerPct is HLPower's power reduction vs LOPASS in percent
	// (positive = HLPower lower). Projection-invariant: both binders
	// scale by the same factor.
	PowerPct float64
}

// ArchSweepData runs LOPASS and HLPower a=0.5 over the session's
// benchmarks on every target architecture, deriving one session per
// target from se so all targets share the fabric-blind front end
// (schedule, regbind) through the common stage cache while bind, map,
// sim, and power are keyed per arch. Row order is deterministic:
// benchmark-major in suite order, then target order.
func ArchSweepData(ctx context.Context, se *Session, targets []arch.Target) ([]ArchSweepRow, error) {
	derived := make([]*Session, len(targets))
	for i, t := range targets {
		if err := t.Validate(); err != nil {
			return nil, fmt.Errorf("flow: archsweep: %w", err)
		}
		cfg := se.Cfg
		cfg.Arch = t
		derived[i] = se.Derive(cfg)
	}
	// Warm each target's matrix with the session's own parallelism;
	// targets run in sequence so their SA-table characterizations don't
	// compete for workers.
	for _, ds := range derived {
		if err := ds.RunAll(ctx, BinderLOPASS, BinderHLPower05); err != nil {
			return nil, err
		}
	}
	var rows []ArchSweepRow
	for _, p := range se.Benchmarks {
		for i, t := range targets {
			lo, err := derived[i].Run(ctx, p, BinderLOPASS)
			if err != nil {
				return nil, err
			}
			hi, err := derived[i].Run(ctx, p, BinderHLPower05)
			if err != nil {
				return nil, err
			}
			area := float64(hi.LUTs)
			if t.Projection != nil {
				area = t.Projection.Area(area)
			}
			pct := 0.0
			if lo.Power.DynamicPowerMW > 0 {
				pct = (1 - hi.Power.DynamicPowerMW/lo.Power.DynamicPowerMW) * 100
			}
			rows = append(rows, ArchSweepRow{
				Bench:     p.Name,
				Arch:      t.Name,
				K:         t.K,
				Projected: t.Projection != nil,
				PowerL:    lo.Power.DynamicPowerMW,
				PowerH:    hi.Power.DynamicPowerMW,
				ClockNsH:  hi.Power.ClockPeriodNs,
				LUTsL:     lo.LUTs,
				LUTsH:     hi.LUTs,
				AreaH:     area,
				DepthH:    hi.Depth,
				GlitchH:   hi.Power.GlitchShare,
				PowerPct:  pct,
			})
		}
	}
	return rows, nil
}

// ArchSweep prints the cross-architecture comparison (K=4 vs K=6 vs the
// ASIC projection when given arch.Presets()).
func ArchSweep(ctx context.Context, w io.Writer, se *Session, targets []arch.Target) error {
	rows, err := ArchSweepData(ctx, se, targets)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Benchmark\tArch\tK\tPowerL(mW)\tPowerH(mW)\tHLPower%\tClkH(ns)\tFmaxH(MHz)\tLUTsH\tAreaH(eq)\tDepthH\tGlitchH%")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%.3f\t%.3f\t%.1f\t%.2f\t%.1f\t%d\t%.1f\t%d\t%.1f\n",
			r.Bench, r.Arch, r.K, r.PowerL, r.PowerH, r.PowerPct,
			r.ClockNsH, power.FrequencyHz(r.ClockNsH)/1e6, r.LUTsH, r.AreaH, r.DepthH, r.GlitchH*100)
	}
	return tw.Flush()
}
