// Command mapnet technology-maps a BLIF netlist to K-input LUTs with the
// glitch-aware mapper and reports area, depth, estimated switching
// activity, and (optionally) simulated toggle counts.
//
// Usage:
//
//	mapnet [-k 4] [-mode power|depth|area] [-sim N [-vcd out.vcd]] [-timing] [-o out.blif] FILE.blif
//
// Bad flags exit 2 before the netlist is read; failures exit 1.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/arch"
	"repro/internal/blif"
	"repro/internal/mapper"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/timing"
)

func main() {
	var (
		k     = flag.Int("k", 4, "LUT input count")
		mode  = flag.String("mode", "power", "mapping objective: power, depth, or area")
		simN  = flag.Int("sim", 0, "simulate N random vectors after mapping")
		vcd   = flag.String("vcd", "", "dump a VCD of the simulation to this file (requires -sim)")
		sta   = flag.Bool("timing", false, "run static timing analysis and print the critical path")
		out   = flag.String("o", "", "write the mapped netlist as BLIF to this file")
		model = flag.String("model", "", "model to map (default: first)")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	// Usage errors exit 2 before the netlist is read.
	opt := mapper.DefaultOptions()
	opt.K = *k
	if *k < mapper.MinK || *k > mapper.MaxK {
		usageErr(fmt.Errorf("-k must be in [%d, %d], got %d", mapper.MinK, mapper.MaxK, *k))
	}
	switch *mode {
	case "power":
		opt.Mode = mapper.ModePower
	case "depth":
		opt.Mode = mapper.ModeDepth
	case "area":
		opt.Mode = mapper.ModeArea
	default:
		usageErr(fmt.Errorf("unknown -mode %q (want power, depth, or area)", *mode))
	}
	if *simN < 0 {
		usageErr(fmt.Errorf("-sim must be >= 0, got %d", *simN))
	}
	if *vcd != "" && *simN == 0 {
		usageErr(fmt.Errorf("-vcd requires -sim N with N >= 1"))
	}

	lib, err := blif.ParseFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	name := *model
	if name == "" {
		if len(lib.Order) == 0 {
			fatal(fmt.Errorf("no models in %s", flag.Arg(0)))
		}
		name = lib.Order[0]
	}
	net, err := blif.Flatten(lib, name)
	if err != nil {
		fatal(err)
	}

	res, err := mapper.Map(net, opt)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("model %s: %d gates -> %d LUT%d, depth %d\n",
		name, net.NumGates(), res.LUTs, *k, res.Depth)
	fmt.Printf("estimated SA %.3f (glitch %.3f)\n", res.EstSA, res.EstGlitch)

	// Timing and power read the paper's Cyclone II constants at any -k.
	target := arch.CycloneII()
	if *sta {
		an := timing.Analyze(res.Mapped, timing.FromArch(target))
		fmt.Print(an.Report(res.Mapped))
	}
	if *simN > 0 {
		s, err := sim.New(res.Mapped)
		if err != nil {
			fatal(err)
		}
		var vcdFile *os.File
		if *vcd != "" {
			vcdFile, err = os.Create(*vcd)
			if err != nil {
				fatal(err)
			}
			defer vcdFile.Close()
			if err := s.EnableVCD(vcdFile, nil); err != nil {
				fatal(err)
			}
		}
		counts := s.RunRandom(*simN, 1)
		if err := s.VCDErr(); err != nil {
			fatal(err)
		}
		rep := power.FromArch(target).Analyze(res.Mapped, counts)
		fmt.Printf("simulated %d vectors: %.2f toggles/cycle, glitch share %.1f%%, est. dynamic power %.2f mW at %.1f ns\n",
			*simN, counts.TogglesPerCycle(), rep.GlitchShare*100, rep.DynamicPowerMW, rep.ClockPeriodNs)
	}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := blif.WriteModel(f, blif.FromNetwork(res.Mapped)); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mapnet:", err)
	os.Exit(1)
}

// usageErr reports bad usage (exit 2).
func usageErr(err error) {
	fmt.Fprintln(os.Stderr, "mapnet:", err)
	os.Exit(2)
}
