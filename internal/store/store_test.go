package store

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/pipeline"
)

func openT(t *testing.T, dir string, opt Options) *Store {
	t.Helper()
	s, err := Open(dir, opt)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestRoundTrip pins the basic durability contract: a Put survives
// Close and a fresh Open, decoding to the identical value.
func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	s := openT(t, dir, Options{})
	s.RegisterCodec("sa@", Float64())
	s.Put(ctx, "sa@abc", "mux/4/7", 0.123456789012345678)
	if v, ok := s.Get(ctx, "sa@abc", "mux/4/7"); !ok || v.(float64) != 0.123456789012345678 {
		t.Fatalf("same-process Get = %v, %v", v, ok)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2 := openT(t, dir, Options{})
	s2.RegisterCodec("sa@", Float64())
	v, ok := s2.Get(ctx, "sa@abc", "mux/4/7")
	if !ok {
		t.Fatal("entry did not survive reopen")
	}
	if v.(float64) != 0.123456789012345678 {
		t.Fatalf("reopened value %v is not bit-identical", v)
	}
	// A different key or class must never alias.
	if _, ok := s2.Get(ctx, "sa@abc", "mux/4/8"); ok {
		t.Fatal("Get hit a key never written")
	}
	if _, ok := s2.Get(ctx, "sa@other", "mux/4/7"); ok {
		t.Fatal("Get hit a class never written")
	}
}

// TestCodeclessClassIsMemoryOnly: classes with no registered codec are
// skipped on Put and always miss on Get — never an error.
func TestCodeclessClassIsMemoryOnly(t *testing.T) {
	s := openT(t, t.TempDir(), Options{})
	ctx := context.Background()
	s.Put(ctx, "bind", "k1", struct{ X chan int }{}) // not even encodable
	if got := s.Stats().PutSkips; got != 1 {
		t.Fatalf("PutSkips = %d, want 1", got)
	}
	if _, ok := s.Get(ctx, "bind", "k1"); ok {
		t.Fatal("Get hit a codec-less class")
	}
	if got := s.Len(); got != 0 {
		t.Fatalf("Len = %d, want 0", got)
	}
}

// TestCorruptEntryQuarantineAndHeal flips one on-disk payload bit: the
// next Get must miss (never error), move the file to quarantine/, and a
// re-Put must heal the slot.
func TestCorruptEntryQuarantineAndHeal(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	s := openT(t, dir, Options{})
	s.RegisterCodec("power", JSONOf[map[string]float64]())
	want := map[string]float64{"mw": 76.5}
	s.Put(ctx, "power", "k", want)

	names, _ := os.ReadDir(filepath.Join(dir, "objects"))
	if len(names) != 1 {
		t.Fatalf("objects holds %d files, want 1", len(names))
	}
	path := filepath.Join(dir, "objects", names[0].Name())
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-2] ^= 0x01 // payload byte: checksum now mismatches
	if err := os.WriteFile(path, b, 0o666); err != nil {
		t.Fatal(err)
	}

	if _, ok := s.Get(ctx, "power", "k"); ok {
		t.Fatal("Get returned a corrupt entry")
	}
	st := s.Stats()
	if st.Quarantined != 1 {
		t.Fatalf("Quarantined = %d, want 1", st.Quarantined)
	}
	if got := s.QuarantineLen(); got != 1 {
		t.Fatalf("QuarantineLen = %d, want 1 (corrupt bytes must be kept for post-mortem)", got)
	}
	if got := s.Len(); got != 0 {
		t.Fatalf("Len = %d after quarantine, want 0", got)
	}

	// Recompute-and-heal: the caller re-Puts, the slot works again.
	s.Put(ctx, "power", "k", want)
	v, ok := s.Get(ctx, "power", "k")
	if !ok || v.(map[string]float64)["mw"] != want["mw"] {
		t.Fatalf("healed Get = %v, %v", v, ok)
	}
}

// TestTornWriteCrashRecovery is the crash drill: a writer killed
// mid-write (injected short write — the rename lands, the payload is
// half there) must, after "restart", yield a quarantined entry and a
// bit-identical recompute. This is the satellite-3 contract at the
// store level; the flow-level version is TestDurableStoreRoundTrip.
func TestTornWriteCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	want := 3.14159265358979
	tear := pipeline.WithInjector(context.Background(),
		pipeline.NewFaultInjector(1, pipeline.FaultRule{Class: "sa@t", PShortWrite: 1}))

	s := openT(t, dir, Options{})
	s.RegisterCodec("sa@", Float64())
	s.Put(tear, "sa@t", "k", want)
	if got := s.Stats().Puts; got != 1 {
		t.Fatalf("Puts = %d, want 1 (a torn write still renames)", got)
	}
	// "Crash": drop the in-memory state, reopen the directory.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openT(t, dir, Options{})
	s2.RegisterCodec("sa@", Float64())
	ctx := context.Background()
	if _, ok := s2.Get(ctx, "sa@t", "k"); ok {
		t.Fatal("Get returned a torn entry")
	}
	if got := s2.Stats().Quarantined; got != 1 {
		t.Fatalf("Quarantined = %d, want 1", got)
	}
	// Recompute (no fault this time) and verify bit-identical recovery.
	s2.Put(ctx, "sa@t", "k", want)
	v, ok := s2.Get(ctx, "sa@t", "k")
	if !ok {
		t.Fatal("recomputed entry missing")
	}
	if v.(float64) != want {
		t.Fatalf("recomputed value %v, want bit-identical %v", v, want)
	}
}

// TestInjectedENOSPCAbsorbed: a failed write is logged and absorbed,
// never surfaced, and leaves no entry behind.
func TestInjectedENOSPCAbsorbed(t *testing.T) {
	s := openT(t, t.TempDir(), Options{})
	s.RegisterCodec("sim", Float64())
	full := pipeline.WithInjector(context.Background(),
		pipeline.NewFaultInjector(1, pipeline.FaultRule{PENOSPC: 1}))
	s.Put(full, "sim", "k", 1.0)
	st := s.Stats()
	if st.PutErrors != 1 || st.Puts != 0 || st.Entries != 0 {
		t.Fatalf("after injected ENOSPC: %+v", st)
	}
	if _, ok := s.Get(context.Background(), "sim", "k"); ok {
		t.Fatal("Get hit an entry whose write failed")
	}
}

// TestInjectedChecksumFlipCaught: silent media corruption (bit flipped
// after the CRC was computed) lands durably but is caught on read.
func TestInjectedChecksumFlipCaught(t *testing.T) {
	s := openT(t, t.TempDir(), Options{})
	s.RegisterCodec("sim", Float64())
	flip := pipeline.WithInjector(context.Background(),
		pipeline.NewFaultInjector(1, pipeline.FaultRule{PChecksumFlip: 1}))
	s.Put(flip, "sim", "k", 2.5)
	if got := s.Stats().Puts; got != 1 {
		t.Fatalf("Puts = %d, want 1 (corruption is silent at write time)", got)
	}
	if _, ok := s.Get(context.Background(), "sim", "k"); ok {
		t.Fatal("checksum verification missed a flipped bit")
	}
	if got := s.Stats().Quarantined; got != 1 {
		t.Fatalf("Quarantined = %d, want 1", got)
	}
}

// TestLRUEvictionByteAccounting: a byte-bounded store evicts least
// recently used entries first and keeps Bytes equal to the on-disk sum.
func TestLRUEvictionByteAccounting(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	s := openT(t, dir, Options{MaxBytes: 1}) // every second Put evicts
	s.RegisterCodec("sa@", Float64())

	s.Put(ctx, "sa@e", "a", 1.0)
	s.Put(ctx, "sa@e", "b", 2.0) // evicts a (LRU)
	if _, ok := s.Get(ctx, "sa@e", "a"); ok {
		t.Fatal("evicted entry still served")
	}
	if v, ok := s.Get(ctx, "sa@e", "b"); !ok || v.(float64) != 2.0 {
		t.Fatal("surviving entry lost")
	}
	st := s.Stats()
	if st.Evicted != 1 || st.Entries != 1 {
		t.Fatalf("eviction stats %+v", st)
	}
	var diskBytes int64
	des, _ := os.ReadDir(filepath.Join(dir, "objects"))
	for _, de := range des {
		fi, _ := de.Info()
		diskBytes += fi.Size()
	}
	if st.Bytes != diskBytes {
		t.Fatalf("accounted %d bytes, disk holds %d", st.Bytes, diskBytes)
	}
}

// TestRecencySurvivesReopen: LRU order is seeded from mtimes at Open,
// so a restart evicts the same victims a long-lived process would.
func TestRecencySurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	s := openT(t, dir, Options{})
	s.RegisterCodec("sa@", Float64())
	s.Put(ctx, "sa@r", "old", 1.0)
	oneEntry := s.Stats().Bytes
	// Backdate the first entry so mtime ordering is unambiguous even on
	// coarse filesystem clocks.
	des, _ := os.ReadDir(filepath.Join(dir, "objects"))
	old := filepath.Join(dir, "objects", des[0].Name())
	past := time.Now().Add(-time.Hour)
	os.Chtimes(old, past, past)
	s.Put(ctx, "sa@r", "new", 2.0)
	s.Close()

	// A budget of exactly one entry forces Open's seeding pass to pick
	// a victim; mtime recency must make it the older one.
	s2 := openT(t, dir, Options{MaxBytes: oneEntry})
	s2.RegisterCodec("sa@", Float64())
	// Open's budget pass must have evicted the older entry.
	if _, ok := s2.Get(ctx, "sa@r", "old"); ok {
		t.Fatal("older entry survived the reopen budget")
	}
	if _, ok := s2.Get(ctx, "sa@r", "new"); !ok {
		t.Fatal("newer entry evicted instead of the older one")
	}
}

// TestSingleWriterLock: a second Open on a live store is refused with
// an error naming the directory; Close releases the lock.
func TestSingleWriterLock(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("second Open on a locked store succeeded")
	} else if !strings.Contains(err.Error(), dir) {
		t.Fatalf("lock error %q does not name the directory", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open after Close: %v", err)
	}
	s2.Close()
}

// TestTmpDebrisRemovedAtOpen: temp files from a writer killed before
// its rename are swept at Open and never counted as entries.
func TestTmpDebrisRemovedAtOpen(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	s.Close()
	debris := filepath.Join(dir, "objects", ".tmp-12345")
	if err := os.WriteFile(debris, []byte("half an entr"), 0o666); err != nil {
		t.Fatal(err)
	}
	s2 := openT(t, dir, Options{})
	if got := s2.Len(); got != 0 {
		t.Fatalf("Len = %d, want 0", got)
	}
	if _, err := os.Stat(debris); !os.IsNotExist(err) {
		t.Fatalf("temp debris still present (stat err %v)", err)
	}
}

// TestFormatMismatchRefused: a directory stamped by a different layout
// version is refused outright rather than quarantined entry by entry.
func TestFormatMismatchRefused(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	s.Close()
	if err := os.WriteFile(filepath.Join(dir, "format"), []byte("hlpower-store v999\n"), 0o666); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("Open adopted a future-format store")
	}
}

// TestOversizedLenQuarantined plants entry headers whose len= exceeds
// the bytes that follow: one absurdly large, one a byte too many. Each
// must be a quarantined miss, never a panic (a huge len used to reach
// make([]byte, len) and panic), and a demand through a store-backed
// pipeline.Cache must recompute at once rather than wait on a key a
// panicking backing read left in flight.
func TestOversizedLenQuarantined(t *testing.T) {
	lenRE := regexp.MustCompile(`(?m)^len=(\d+)$`)
	for _, tc := range []struct {
		name string
		len  func(n int64) int64
	}{
		{"huge", func(int64) int64 { return 1 << 50 }},
		{"one-over", func(n int64) int64 { return n + 1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := openT(t, dir, Options{})
			s.RegisterCodec("power", JSONOf[map[string]float64]())
			want := map[string]float64{"mw": 76.5}
			s.Put(context.Background(), "power", "k", want)

			names, _ := os.ReadDir(filepath.Join(dir, "objects"))
			if len(names) != 1 {
				t.Fatalf("objects holds %d files, want 1", len(names))
			}
			path := filepath.Join(dir, "objects", names[0].Name())
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			m := lenRE.FindSubmatchIndex(b)
			if m == nil {
				t.Fatalf("no len= header line in %q", b)
			}
			n, _ := strconv.ParseInt(string(b[m[2]:m[3]]), 10, 64)
			b = append(append(append([]byte(nil), b[:m[2]]...), strconv.FormatInt(tc.len(n), 10)...), b[m[3]:]...)
			if err := os.WriteFile(path, b, 0o666); err != nil {
				t.Fatal(err)
			}

			c := pipeline.NewCache()
			c.SetBacking(s)
			computed := 0
			demand := func() (v any, hit bool, err error) {
				defer func() {
					if r := recover(); r != nil {
						err = fmt.Errorf("panicked: %v", r)
					}
				}()
				ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
				defer cancel()
				return c.Do(ctx, "power", "k", func() (any, error) {
					computed++
					return want, nil
				})
			}
			if _, hit, err := demand(); err != nil || hit || computed != 1 {
				t.Errorf("first demand: hit=%v err=%v computed=%d, want an immediate recompute", hit, err, computed)
			}
			if v, _, err := demand(); err != nil || v.(map[string]float64)["mw"] != want["mw"] {
				t.Fatalf("second demand: %v, %v", v, err)
			}
			if st := s.Stats(); st.Quarantined != 1 {
				t.Fatalf("Quarantined = %d, want 1", st.Quarantined)
			}
			if got := s.QuarantineLen(); got != 1 {
				t.Fatalf("QuarantineLen = %d, want 1", got)
			}
			// The recompute was written through: the slot is healed.
			if v, ok := s.Get(context.Background(), "power", "k"); !ok || v.(map[string]float64)["mw"] != want["mw"] {
				t.Fatalf("healed Get = %v, %v", v, ok)
			}
		})
	}
}
