package verify

import (
	"testing"

	"repro/internal/blif"
	"repro/internal/logic"
	"repro/internal/mapper"
	"repro/internal/netgen"
)

func TestEquivalentIdentical(t *testing.T) {
	a := netgen.AdderNetwork(6)
	b := netgen.AdderNetwork(6)
	res, err := Equivalent(a, b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equivalent {
		t.Fatalf("identical adders reported different at %s with %v", res.FailedOutput, res.Counterexample)
	}
}

func TestEquivalentArchitectures(t *testing.T) {
	// Ripple, CLA, and carry-select adders are all the same function.
	ripple := netgen.AdderArchNetwork(netgen.AdderRipple, 8)
	cla := netgen.AdderArchNetwork(netgen.AdderCLA, 8)
	csel := netgen.AdderArchNetwork(netgen.AdderCarrySelect, 8)
	for _, other := range []*logic.Network{cla, csel} {
		res, err := Equivalent(ripple, other, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Equivalent {
			t.Fatalf("%s differs from ripple at %s, counterexample %v", other.Name, res.FailedOutput, res.Counterexample)
		}
	}
	// Array vs Wallace multipliers.
	arr := netgen.MultArchNetwork(netgen.MultArray, 6)
	wal := netgen.MultArchNetwork(netgen.MultWallace, 6)
	res, err := Equivalent(arr, wal, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equivalent {
		t.Fatalf("wallace differs from array at %s", res.FailedOutput)
	}
}

func TestEquivalentMapping(t *testing.T) {
	// Formal sign-off of the technology mapper.
	net := netgen.MultiplierNetwork(5)
	m, err := mapper.Map(net, mapper.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Equivalent(net, m.Mapped, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equivalent {
		t.Fatalf("mapping changed the function at %s (counterexample %v)", res.FailedOutput, res.Counterexample)
	}
}

func TestInequivalenceDetectedWithCounterexample(t *testing.T) {
	a := logic.NewNetwork("a")
	x := a.AddInput("x")
	y := a.AddInput("y")
	a.MarkOutput("o", a.AddGate("g", logic.TTAnd2(), x, y))

	b := logic.NewNetwork("b")
	x2 := b.AddInput("x")
	y2 := b.AddInput("y")
	b.MarkOutput("o", b.AddGate("g", logic.TTOr2(), x2, y2))

	res, err := Equivalent(a, b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Equivalent {
		t.Fatal("AND vs OR reported equivalent")
	}
	if res.FailedOutput != "o" {
		t.Fatalf("failed output %q", res.FailedOutput)
	}
	// The counterexample must actually distinguish them.
	in := func(net *logic.Network) []bool {
		v := make([]bool, len(net.Inputs))
		for i, id := range net.Inputs {
			v[i] = res.Counterexample[net.Node(id).Name]
		}
		return v
	}
	oa := a.OutputValues(a.Eval(in(a), nil))[0]
	ob := b.OutputValues(b.Eval(in(b), nil))[0]
	if oa == ob {
		t.Fatalf("counterexample %v does not distinguish the networks", res.Counterexample)
	}
}

func TestSequentialEquivalenceViaLatchSurface(t *testing.T) {
	// Same toggle FF built two ways: q' = NOT q vs q' = q XOR 1.
	mk := func(viaXor bool) *logic.Network {
		n := logic.NewNetwork("t")
		q := n.AddLatch("q", false)
		var d int
		if viaXor {
			one := n.AddConst("one", true)
			d = n.AddGate("d", logic.TTXor2(), q, one)
		} else {
			d = n.AddGate("d", logic.TTNot(), q)
		}
		n.ConnectLatch(q, d)
		n.MarkOutput("y", q)
		return n
	}
	res, err := Equivalent(mk(false), mk(true), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equivalent {
		t.Fatalf("equivalent sequential circuits rejected at %s", res.FailedOutput)
	}
}

func TestBlifRoundTripSignOff(t *testing.T) {
	net := netgen.PartialDatapathNetwork(netgen.FUMult, 2, 2, 4)
	m := blif.FromNetwork(net)
	lib := blif.NewLibrary()
	lib.Add(m)
	back, err := blif.Flatten(lib, net.Name)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Equivalent(net, back, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equivalent {
		t.Fatalf("BLIF round trip changed the function at %s", res.FailedOutput)
	}
}

func TestNodeBudgetReported(t *testing.T) {
	a := netgen.MultiplierNetwork(8)
	b := netgen.MultiplierNetwork(8)
	if _, err := Equivalent(a, b, Options{MaxNodes: 128}); err == nil {
		t.Fatal("tiny budget should error, not mis-report")
	}
}

func TestOutputMismatchErrors(t *testing.T) {
	a := netgen.AdderNetwork(3)
	b := netgen.AdderNetwork(4)
	if _, err := Equivalent(a, b, Options{}); err == nil {
		t.Fatal("different output sets should be an error")
	}
}
