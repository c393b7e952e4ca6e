// DCT example: run a real 8-point DCT kernel through the complete
// HLPower flow — scheduling, register binding, LOPASS and HLPower
// functional-unit binding, gate-level datapath elaboration, glitch-aware
// 4-LUT technology mapping, random-vector simulation, and power
// analysis — and compare the two bindings like the paper's Table 3.
//
// Run with: go run ./examples/dct
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/cdfg"
	"repro/internal/flow"
	"repro/internal/satable"
	"repro/internal/workload"
)

func main() {
	g := workload.DCT8()
	st := g.Stats()
	fmt.Printf("dct8 kernel: %d inputs, %d outputs, %d additions, %d multiplications\n",
		st.PIs, st.POs, st.Adds, st.Mults)

	cfg := flow.DefaultConfig()
	cfg.Width = 8
	cfg.Vectors = 500
	cfg.Table = satable.New(cfg.Width, satable.EstimatorGlitch)
	cfg.BaselineTable = satable.New(cfg.Width, satable.EstimatorZeroDelay)
	rc := cdfg.ResourceConstraint{Add: 2, Mult: 3}

	fmt.Printf("\n%-14s %10s %8s %6s %10s %8s %8s\n",
		"binder", "power(mW)", "clk(ns)", "LUTs", "muxLen", "toggle", "glitch%")
	se := flow.NewSession(cfg)
	var results []*flow.Result
	for _, b := range []flow.Binder{flow.BinderLOPASS, flow.BinderHLPower05} {
		r, err := se.RunGraphCtx(context.Background(), g, "dct8", rc, b)
		if err != nil {
			log.Fatal(err)
		}
		results = append(results, r)
		fmt.Printf("%-14s %10.2f %8.2f %6d %10d %8.2f %7.1f%%\n",
			b.Name, r.Power.DynamicPowerMW, r.Power.ClockPeriodNs, r.LUTs,
			r.FUMux.Length, r.Power.AvgToggleRateMHz, r.Power.GlitchShare*100)
	}
	lo, hi := results[0], results[1]
	fmt.Printf("\nHLPower vs LOPASS: power %+.1f%%, LUTs %+.1f%%, toggle rate %+.1f%%\n",
		pct(lo.Power.DynamicPowerMW, hi.Power.DynamicPowerMW),
		pct(float64(lo.LUTs), float64(hi.LUTs)),
		pct(lo.Power.AvgToggleRateMHz, hi.Power.AvgToggleRateMHz))
}

func pct(base, v float64) float64 {
	if base == 0 {
		return 0
	}
	return (v - base) / base * 100
}
