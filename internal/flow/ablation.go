package flow

import (
	"context"
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"repro/internal/binding"
	"repro/internal/modsel"
	"repro/internal/satable"
)

// AblationRow is one (benchmark, variant) measurement of the ablation
// study: estimator variants inside HLPower, the stronger flow-based
// baseline, and module selection on top of the main configuration.
type AblationRow struct {
	Bench    string
	Variant  string
	PowerMW  float64
	LUTs     int
	MuxLen   int
	DiffMean float64
	BindTime time.Duration
}

// ablationVariants enumerates the study: binder/estimator combinations
// the paper's design decisions are tested against.
var ablationVariants = []string{
	"LOPASS",            // the paper's baseline (glitch-blind power table)
	"LOPASS-flow",       // path-cover flow binder (temporal-stability control)
	"HLPower-glitch",    // the paper's configuration
	"HLPower-zerodelay", // Eq. 4 with the glitch-blind SA table
	"HLPower-najm",      // Eq. 4 with Najm's overestimating table
	"HLPower+modsel",    // paper config + module selection (future work)
	"HLPower+portopt",   // paper config + post-binding port re-assignment [2]
}

// ablationSpec resolves one variant into its binding-stage spec and its
// (optional) module-selection request. Every variant starts from the
// mainline LOPASS or HLPower a=0.5 spec, so the config's bind settings
// (BindK, BindExact, BindJobs) reach the study. The estimator variants
// allocate their own SA tables; the stage cache keys tables by content
// fingerprint, so repeated studies on one session still share binds.
func ablationSpec(variant string, cfg Config, zeroTable, najmTable *satable.Table) (bindSpec, *modsel.Options) {
	switch variant {
	case "LOPASS":
		return specForBinder(BinderLOPASS, cfg), nil
	case "LOPASS-flow":
		spec := specForBinder(BinderLOPASS, cfg)
		spec.algo, spec.table = "lopass-flow", nil
		return spec, nil
	}
	spec := specForBinder(BinderHLPower05, cfg)
	var ms *modsel.Options
	switch variant {
	case "HLPower-zerodelay":
		spec.table = zeroTable
	case "HLPower-najm":
		spec.table = najmTable
	case "HLPower+modsel":
		opt := modsel.DefaultOptions()
		opt.Width = cfg.Width
		opt.MapOpt = cfg.MapOpt
		ms = &opt
	case "HLPower+portopt":
		spec.portOpt = true
	}
	return spec, ms
}

// AblationData runs every ablation variant over the session's
// benchmarks, fanning the per-benchmark pipelines out over Session.Jobs
// workers. Every variant flows through the session's stage cache: all
// seven variants of a benchmark share its schedule and register-binding
// artifacts with each other and with the mainline sweep, the
// HLPower-glitch variant is the same bind-stage invocation as the
// mainline HLPower a=0.5 run, and variants whose bindings coincide
// (portopt frequently flips nothing) share the mapped netlist,
// simulation, and power analysis too. Row order is deterministic:
// benchmark-major in suite order, then variant order.
func AblationData(ctx context.Context, se *Session) ([]AblationRow, error) {
	cfg := se.Cfg
	zeroTable := satable.NewForArch(cfg.Width, satable.EstimatorZeroDelay, cfg.Arch)
	najmTable := satable.NewForArch(cfg.Width, satable.EstimatorNajm, cfg.Arch)
	perBench := make([][]AblationRow, len(se.Benchmarks))
	err := firstError(runItems(ctx, len(se.Benchmarks), se.Jobs, true, func(ctx context.Context, bi int) error {
		p := se.Benchmarks[bi]
		fe, err := stageSchedule.Exec(ctx, se.stages, p)
		if err != nil {
			return err
		}
		rba, err := stageRegbind.Exec(ctx, se.stages, regbindIn{name: p.Name, fe: fe, portSeed: cfg.PortSeed})
		if err != nil {
			return err
		}
		for _, variant := range ablationVariants {
			spec, ms := ablationSpec(variant, cfg, zeroTable, najmTable)
			ba, err := stageBind.Exec(ctx, se.stages, bindIn{
				name: p.Name, binder: variant, fe: fe, rba: rba, rc: p.RC, spec: spec,
			})
			if err != nil {
				return err
			}
			_, ma, _, rep, err := runBackEnd(ctx, se.stages, cfg, fe, rba, ba, p.Name, variant, ms)
			if err != nil {
				return err
			}
			st := binding.ComputeMuxStats(fe.g, rba.rb, ba.res)
			perBench[bi] = append(perBench[bi], AblationRow{
				Bench:    p.Name,
				Variant:  variant,
				PowerMW:  rep.DynamicPowerMW,
				LUTs:     ma.m.LUTs,
				MuxLen:   st.Length,
				DiffMean: st.DiffMean,
				BindTime: ba.bindTime,
			})
		}
		return nil
	}))
	if err != nil {
		return nil, err
	}
	var rows []AblationRow
	for _, br := range perBench {
		rows = append(rows, br...)
	}
	return rows, nil
}

// Ablation prints the ablation study.
func Ablation(ctx context.Context, w io.Writer, se *Session) error {
	rows, err := AblationData(ctx, se)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Benchmark\tVariant\tPower(mW)\tLUTs\tMUXLen\tmuxDiff\tBindTime")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%.2f\t%d\t%d\t%.2f\t%v\n",
			r.Bench, r.Variant, r.PowerMW, r.LUTs, r.MuxLen, r.DiffMean, r.BindTime.Round(time.Millisecond))
	}
	return tw.Flush()
}
