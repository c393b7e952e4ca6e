package mapper

import (
	"testing"

	"repro/internal/netgen"
)

// TestStoreKeysPinned pins the key one macro cover is stored under (the
// flow's macro@<arch> class) at the flow's mapping options. The key
// hashes the option fingerprint and the macro's canonical content; a
// change that moves it orphans every cover a store already holds.
func TestStoreKeysPinned(t *testing.T) {
	net := netgen.MuxNetwork(6, 8)
	if len(net.Macros) == 0 {
		t.Fatal("mux network carries no macro tags")
	}
	opt := DefaultOptions()
	opt.Mode = ModeDepth
	got := analyzeMacro(net, net.Macros[0], opt.coverFP()).key
	if want := "60b46801e6e4cf9b"; got != want {
		t.Errorf("macro cover key = %q, want %q", got, want)
	}
}
