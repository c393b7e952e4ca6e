package mapper

import (
	"encoding/json"
	"math"
	"slices"
	"testing"

	"repro/internal/logic"
	"repro/internal/netgen"
)

// FuzzMacroCover feeds arbitrary bytes to MacroCover.UnmarshalJSON, the
// decoder of durable-store cover entries. Neither the decode nor
// coverFits may panic, and a cover that decodes must re-marshal and
// decode again to the same leaves, table words, waveform bits and
// flows.
func FuzzMacroCover(f *testing.F) {
	net := netgen.MuxNetwork(4, 2)
	inst := analyzeMacro(net, net.Macros[0], DefaultOptions().coverFP())
	cover, err := computeMacroCover(net, inst, DefaultOptions())
	if err != nil {
		f.Fatal(err)
	}
	stored, err := json.Marshal(cover)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(stored, uint8(len(inst.extIDs)), uint8(len(cover.Leaves)))
	f.Add([]byte(`{"ext":2,"gates":[{"l":[0,1],"v":2,"w":[8],"p":0.25,"ct":[1,2],"cs":[0.5,-0],"f":1.5}]}`), uint8(2), uint8(1))
	f.Add([]byte(`{"ext":1,"gates":[{"l":[0],"v":1,"w":[4],"p":0.5,"f":0}]}`), uint8(1), uint8(1))
	f.Add([]byte(`{"ext":0,"gates":[{"l":[],"v":0,"w":[1],"p":0,"f":0}]}`), uint8(0), uint8(1))
	f.Add([]byte(`{"ext":3,"gates":[{"l":[2,1],"v":2,"w":[1],"p":0,"f":0}]}`), uint8(3), uint8(1))
	f.Add([]byte(`{"ext":-1,"gates":null}`), uint8(0), uint8(0))
	f.Add([]byte(`{"ext":1e400}`), uint8(0), uint8(0))
	f.Add([]byte(`null`), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, ext, gates uint8) {
		var c MacroCover
		err := json.Unmarshal(data, &c)
		// A fuzz-shaped instance, and one the cover's shape matches.
		coverFits(&c, macroInstance{m: logic.Macro{Hi: int(gates)}, extIDs: make([]int, ext)})
		if err != nil {
			return
		}
		if c.NumExt <= 1<<16 {
			coverFits(&c, macroInstance{m: logic.Macro{Hi: len(c.Leaves)}, extIDs: make([]int, c.NumExt)})
		}
		enc, err := json.Marshal(&c)
		if err != nil {
			t.Fatalf("re-marshaling a decoded cover: %v", err)
		}
		var back MacroCover
		if err := json.Unmarshal(enc, &back); err != nil {
			t.Fatalf("decoding a re-marshaled cover: %v\n%s", err, enc)
		}
		if !sameCover(&c, &back) {
			t.Fatalf("the cover changed in the round trip\nin:  %s\nout: %s", data, enc)
		}
	})
}

// sameCover compares two covers' leaves, tables, waveforms and flows,
// floats by their bits.
func sameCover(a, b *MacroCover) bool {
	if a.NumExt != b.NumExt || len(a.Leaves) != len(b.Leaves) {
		return false
	}
	for i := range a.Leaves {
		if !slices.Equal(a.Leaves[i], b.Leaves[i]) ||
			a.Funcs[i].NumVars() != b.Funcs[i].NumVars() ||
			!slices.Equal(a.Funcs[i].Words(), b.Funcs[i].Words()) ||
			math.Float64bits(a.Waves[i].P) != math.Float64bits(b.Waves[i].P) ||
			math.Float64bits(a.Flows[i]) != math.Float64bits(b.Flows[i]) ||
			len(a.Waves[i].Comps) != len(b.Waves[i].Comps) {
			return false
		}
		for j, ca := range a.Waves[i].Comps {
			cb := b.Waves[i].Comps[j]
			if ca.Time != cb.Time || math.Float64bits(ca.S) != math.Float64bits(cb.S) {
				return false
			}
		}
	}
	return true
}
