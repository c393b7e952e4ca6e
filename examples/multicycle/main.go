// Multicycle example: the paper's future-work extensions working
// together. An 8-tap FIR kernel is implemented three ways:
//
//  1. the paper's single-cycle library (array multiplier),
//  2. a 2-cycle multi-cycle multiplier (multi-cycle timing paths allow a
//     much faster clock at the cost of schedule length),
//  3. the 2-cycle schedule plus module selection (Wallace-tree
//     multipliers and carry-lookahead adders where they pay off).
//
// For each variant the example reports schedule length, mapped area,
// STA-derived clock period, and simulated dynamic power.
//
// Run with: go run ./examples/multicycle
package main

import (
	"fmt"
	"log"
	"strings"

	"repro/internal/arch"
	"repro/internal/cdfg"
	"repro/internal/core"
	"repro/internal/datapath"
	"repro/internal/mapper"
	"repro/internal/modsel"
	"repro/internal/netgen"
	"repro/internal/power"
	"repro/internal/regbind"
	"repro/internal/satable"
	"repro/internal/sim"
	"repro/internal/timing"
	"repro/internal/workload"
)

const width = 8

// fabric is the paper's Cyclone II target, read by both the timing and
// the power model.
var fabric = arch.CycloneII()

func main() {
	g := workload.FIR(8)
	rc := cdfg.ResourceConstraint{Add: 2, Mult: 2}
	table := satable.New(width, satable.EstimatorGlitch)

	fmt.Printf("%-28s %6s %6s %9s %9s %10s\n",
		"variant", "steps", "LUTs", "Tclk(ns)", "f(MHz)", "power(mW)")

	single, err := cdfg.ListScheduleLat(g, rc, cdfg.SingleCycle())
	if err != nil {
		log.Fatal(err)
	}
	run("single-cycle, array mult", g, single, rc, table, nil, 1)

	lib := cdfg.Library{AddLatency: 1, MultLatency: 2}
	multi, err := cdfg.ListScheduleLat(g, rc, lib)
	if err != nil {
		log.Fatal(err)
	}
	run("2-cycle mult", g, multi, rc, table, nil, 2)
	run("2-cycle mult + modsel", g, multi, rc, table, &modsel.Options{Width: width, MapOpt: mapper.DefaultOptions()}, 2)

	// Pipelined multipliers: same latency, initiation interval 1 — the
	// schedule shrinks back toward single-cycle length while the clock
	// keeps the multi-cycle benefit (the pipeline cut shortens the
	// multiplier's combinational cone for real).
	plib := cdfg.Library{AddLatency: 1, MultLatency: 2, MultPipelined: true}
	piped, err := cdfg.ListScheduleLat(g, rc, plib)
	if err != nil {
		log.Fatal(err)
	}
	run("2-cycle pipelined mult", g, piped, rc, table, nil, 1)
}

func run(label string, g *cdfg.Graph, s *cdfg.Schedule, rc cdfg.ResourceConstraint, table *satable.Table, ms *modsel.Options, multAllowance int) {
	rb, err := regbind.Bind(g, s)
	if err != nil {
		log.Fatal(err)
	}
	res, _, err := core.Bind(g, s, rb, rc, core.DefaultOptions(table))
	if err != nil {
		log.Fatal(err)
	}

	var arch *datapath.Arch
	if ms != nil {
		sel, err := modsel.NewSelector(*ms).Select(g, rb, res)
		if err != nil {
			log.Fatal(err)
		}
		adder, mult := sel.Arch()
		arch = &datapath.Arch{Adder: adder, Mult: mult}
	}
	d, err := datapath.ElaborateArch(g, s, rb, res, width, arch)
	if err != nil {
		log.Fatal(err)
	}
	m, err := mapper.Map(d.Net, mapper.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}

	tm := timing.FromArch(fabric)
	an := timing.Analyze(m.Mapped, tm)
	// Multi-cycle timing exception: a register whose worst path passes
	// through a multiplier gets `multAllowance` periods to settle.
	multPrefix := map[string]bool{}
	for _, fu := range res.FUs {
		if fu.Kind == netgen.FUMult {
			multPrefix[fmt.Sprintf("fu%d_", fu.ID)] = true
		}
	}
	throughMult := func(sink int) int {
		for _, id := range an.PathTo(sink) {
			name := m.Mapped.Node(id).Name
			if i := strings.Index(name, "_"); i > 0 && multPrefix[name[:i+1]] {
				return multAllowance
			}
		}
		return 1
	}
	period := timing.PeriodWithAllowance(m.Mapped, an, tm, throughMult)

	sr, err := sim.NewWithDelays(m.Mapped, sim.DelayHeterogeneous, 7)
	if err != nil {
		log.Fatal(err)
	}
	counts := sr.RunRandom(500, 2009)
	pm := power.FromArch(fabric) // period comes from STA above
	f := 1e9 / period
	gateTps := float64(counts.Gate) / float64(counts.Cycles) * f
	latchTps := float64(counts.Latch) / float64(counts.Cycles) * f
	mw := 0.5 * pm.Vdd * pm.Vdd * (pm.CLut*gateTps + pm.CReg*latchTps) * 1e3

	fmt.Printf("%-28s %6d %6d %9.2f %9.1f %10.2f\n",
		label, s.Len, m.LUTs, period, 1e3/period, mw)
}
