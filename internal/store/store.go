// Package store implements the durable, crash-safe artifact store that
// backs the pipeline's in-memory caches (pipeline.Backing). It is what
// turns a cold hlpower invocation or a restarted hlpowerd daemon into a
// warm one: content-addressed stage artifacts (simulation counts, power
// reports), SA-table entries, and whole run results persist across
// processes, fingerprint-stamped so an entry computed under one
// architecture or configuration can never serve another.
//
// Durability discipline, in order of paranoia:
//
//   - Writes are atomic: encode to a temp file in the same directory,
//     fsync, rename. A crashed writer leaves only .tmp- debris (removed
//     at the next Open), never a half-visible entry under its final
//     name.
//   - Every entry carries its payload length and CRC-32 checksum in a
//     header that also repeats the class and key. A short read, a
//     flipped bit, a hash-collision mismatch, or an undecodable payload
//     quarantines the entry (moved aside for post-mortem, accounting
//     adjusted) and reports a miss — a corrupt cache file never fails a
//     request; the caller recomputes and the next Put heals the slot.
//   - The store is size-bounded: byte-accounted LRU eviction keeps the
//     on-disk footprint under Options.MaxBytes, recency seeded from
//     file mtimes at Open and maintained on every hit.
//   - One writer per store: Open takes an exclusive flock on the
//     directory's lock file, so two daemons pointed at one store fail
//     fast instead of tearing each other's entries. The lock dies with
//     the process, so a crashed daemon never wedges the store.
//
// Fault injection: Put consults the context's pipeline.FaultInjector
// (DiskFault) and will deliberately tear, corrupt, or fail its own
// write — the recovery paths above are tested exactly the way stage
// failures are.
package store

import (
	"bufio"
	"bytes"
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/pipeline"
)

// formatLine is the first header line of every entry and the content of
// the store's format file; bump the version when the layout changes or
// when the flow changes the keys it stores entries under. v2: the power
// stage key and the run@<config fingerprint> class no longer hash a
// power model apart from the arch, so v1 entries would sit unreachable.
const formatLine = "hlpower-store v2"

// Options configures Open.
type Options struct {
	// MaxBytes bounds the summed entry payload+header bytes on disk
	// (0 = unbounded). When a Put pushes past it, least-recently-used
	// entries are evicted until the store fits (the entry just written
	// is never its own eviction victim).
	MaxBytes int64
	// Logf receives corruption, quarantine, and write-failure reports
	// (nil = silent). The store never fails a request over them; this is
	// the operator's only window into self-healing events.
	Logf func(format string, args ...any)
}

// Stats is a snapshot of store traffic and state.
type Stats struct {
	// Hits and Misses count Get outcomes; Quarantined is the subset of
	// misses caused by corrupt entries moved aside.
	Hits, Misses, Quarantined int
	// Puts counts entries durably written; PutSkips counts Puts dropped
	// because no codec covers the class (memory-only artifact classes);
	// PutErrors counts write failures (ENOSPC, injected or real).
	Puts, PutSkips, PutErrors int
	// Evicted counts LRU eviction victims.
	Evicted int
	// Entries and Bytes describe the current on-disk footprint.
	Entries int
	Bytes   int64
}

// entryInfo is the in-memory accounting record of one on-disk entry.
type entryInfo struct {
	name string // file name under objects/
	size int64
}

type codecBinding struct {
	prefix string
	codec  Codec
}

// Store is the durable artifact store. It implements pipeline.Backing.
// Safe for concurrent use; operations serialize internally (entries are
// small — the expensive part of a miss is the recompute, not this
// lock).
type Store struct {
	dir    string
	objDir string
	qDir   string
	maxB   int64
	logf   func(string, ...any)
	lockF  *os.File

	mu     sync.Mutex
	codecs []codecBinding
	ent    map[string]*list.Element // objects/ file name -> LRU element
	lru    *list.List               // front = most recently used
	bytes  int64
	stats  Stats
	qseq   int
	closed bool
}

// Open opens (creating if needed) the store rooted at dir and takes the
// single-writer lock. A second Open on a locked store fails immediately
// with an error naming the directory. Crash debris from torn writers
// (temp files) is removed; entry recency is seeded from file mtimes.
func Open(dir string, opt Options) (*Store, error) {
	objDir := filepath.Join(dir, "objects")
	qDir := filepath.Join(dir, "quarantine")
	for _, d := range []string{dir, objDir, qDir} {
		if err := os.MkdirAll(d, 0o777); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}

	lockF, err := os.OpenFile(filepath.Join(dir, ".lock"), os.O_CREATE|os.O_RDWR, 0o666)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if err := syscall.Flock(int(lockF.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		lockF.Close()
		return nil, fmt.Errorf("store: %s is locked by another process: %w", dir, err)
	}

	// Format stamp: refuse to adopt a directory written by a different
	// layout version rather than quarantining everything in it.
	fmtPath := filepath.Join(dir, "format")
	if b, err := os.ReadFile(fmtPath); err == nil {
		if got := strings.TrimSpace(string(b)); got != formatLine {
			lockF.Close()
			return nil, fmt.Errorf("store: %s holds format %q, this build writes %q", dir, got, formatLine)
		}
	} else if errors.Is(err, fs.ErrNotExist) {
		if err := os.WriteFile(fmtPath, []byte(formatLine+"\n"), 0o666); err != nil {
			lockF.Close()
			return nil, fmt.Errorf("store: %w", err)
		}
	} else {
		lockF.Close()
		return nil, fmt.Errorf("store: %w", err)
	}

	s := &Store{
		dir: dir, objDir: objDir, qDir: qDir,
		maxB: opt.MaxBytes, logf: opt.Logf, lockF: lockF,
		ent: make(map[string]*list.Element), lru: list.New(),
	}

	// Scan existing entries: drop temp debris, seed LRU from mtimes
	// (oldest first so they evict first). Headers are verified lazily on
	// Get — a corrupt survivor costs nothing until demanded.
	des, err := os.ReadDir(objDir)
	if err != nil {
		lockF.Close()
		return nil, fmt.Errorf("store: %w", err)
	}
	type seed struct {
		name  string
		size  int64
		mtime time.Time
	}
	var seeds []seed
	for _, de := range des {
		name := de.Name()
		if strings.HasPrefix(name, ".tmp-") {
			os.Remove(filepath.Join(objDir, name))
			continue
		}
		if !strings.HasSuffix(name, ".art") {
			continue
		}
		fi, err := de.Info()
		if err != nil {
			continue
		}
		seeds = append(seeds, seed{name: name, size: fi.Size(), mtime: fi.ModTime()})
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i].mtime.Before(seeds[j].mtime) })
	for _, sd := range seeds {
		s.ent[sd.name] = s.lru.PushFront(&entryInfo{name: sd.name, size: sd.size})
		s.bytes += sd.size
	}
	s.evictLocked(nil)
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Close flushes directory metadata and releases the single-writer lock.
// The store must not be used afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.syncDirLocked()
	if uerr := syscall.Flock(int(s.lockF.Fd()), syscall.LOCK_UN); uerr != nil && err == nil {
		err = uerr
	}
	if cerr := s.lockF.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// Flush fsyncs the objects directory so completed renames are durable.
// Entry payloads are fsynced before their rename, so this is the only
// deferred durability work; the daemon calls it on drain.
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	return s.syncDirLocked()
}

func (s *Store) syncDirLocked() error {
	d, err := os.Open(s.objDir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	if cerr := d.Close(); serr == nil {
		serr = cerr
	}
	return serr
}

// RegisterCodec binds a codec to every class beginning with prefix
// (longest prefix wins; an exact class name is the degenerate prefix).
// Registering a prefix again replaces the codec. Classes with no codec
// are memory-only: Put skips them and Get always misses — which is how
// non-serializable artifact classes (bound netlists, mapped networks)
// coexist with durable ones on one cache.
func (s *Store) RegisterCodec(prefix string, c Codec) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.codecs {
		if s.codecs[i].prefix == prefix {
			s.codecs[i].codec = c
			return
		}
	}
	s.codecs = append(s.codecs, codecBinding{prefix: prefix, codec: c})
}

func (s *Store) codecForLocked(class string) Codec {
	best := -1
	for i, cb := range s.codecs {
		if strings.HasPrefix(class, cb.prefix) && (best < 0 || len(cb.prefix) > len(s.codecs[best].prefix)) {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	return s.codecs[best].codec
}

// entryName maps (class, key) to the entry's file name. Content
// addressing by hash keeps arbitrary key bytes out of the filesystem;
// the header repeats both strings so a collision (or a renamed file)
// is detected on read.
func entryName(class, key string) string {
	h := sha256.Sum256([]byte(class + "\x00" + key))
	return hex.EncodeToString(h[:20]) + ".art"
}

// Stats returns a snapshot of the store's counters and footprint.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Entries = s.lru.Len()
	st.Bytes = s.bytes
	return st
}

// Len returns the number of on-disk entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lru.Len()
}

// Get implements pipeline.Backing: it returns the decoded artifact for
// (class, key), or false. Every corruption mode — missing bytes, bad
// checksum, header mismatch, undecodable payload — quarantines the
// entry and reports a miss; Get never returns an error and never
// panics on a bad file.
func (s *Store) Get(_ context.Context, class, key string) (any, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, false
	}
	name := entryName(class, key)
	el, ok := s.ent[name]
	if !ok {
		s.stats.Misses++
		return nil, false
	}
	codec := s.codecForLocked(class)
	if codec == nil {
		// No codec (anymore): the file may be a survivor from a build
		// that had one. Not corruption — leave it for eviction.
		s.stats.Misses++
		return nil, false
	}
	path := filepath.Join(s.objDir, name)
	payload, err := readEntry(path, class, key)
	if err != nil {
		s.quarantineLocked(el, class, key, err)
		s.stats.Misses++
		return nil, false
	}
	v, err := codec.Decode(bytes.NewReader(payload))
	if err != nil {
		s.quarantineLocked(el, class, key, err)
		s.stats.Misses++
		return nil, false
	}
	s.lru.MoveToFront(el)
	now := time.Now()
	os.Chtimes(path, now, now) // best-effort: persists recency across restarts
	s.stats.Hits++
	return v, true
}

// readEntry reads and verifies one entry file, returning its payload.
// The header's len is checked against the bytes the file actually holds
// before the payload buffer is allocated, so a corrupt header cannot
// demand an absurd allocation.
func readEntry(path, class, key string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	rest := fi.Size() // bytes not yet consumed by the header
	br := bufio.NewReader(f)
	line := func() (string, error) {
		l, err := br.ReadString('\n')
		rest -= int64(len(l))
		if err != nil {
			return "", fmt.Errorf("truncated header: %w", err)
		}
		return strings.TrimSuffix(l, "\n"), nil
	}
	l, err := line()
	if err != nil {
		return nil, err
	}
	if l != formatLine {
		return nil, fmt.Errorf("bad magic %q", l)
	}
	var gotClass, gotKey string
	var wantLen int64 = -1
	var wantCRC uint64
	var haveCRC bool
	for {
		l, err := line()
		if err != nil {
			return nil, err
		}
		if l == "---" {
			break
		}
		k, v, ok := strings.Cut(l, "=")
		if !ok {
			return nil, fmt.Errorf("bad header line %q", l)
		}
		switch k {
		case "class":
			gotClass, err = url.QueryUnescape(v)
		case "key":
			gotKey, err = url.QueryUnescape(v)
		case "len":
			wantLen, err = strconv.ParseInt(v, 10, 64)
		case "crc32":
			wantCRC, err = strconv.ParseUint(v, 16, 32)
			haveCRC = true
		default:
			// Unknown header fields are forward-compatible padding.
		}
		if err != nil {
			return nil, fmt.Errorf("bad header line %q: %w", l, err)
		}
	}
	if gotClass != class || gotKey != key {
		return nil, fmt.Errorf("entry is %s/%s, want %s/%s (hash collision or relocated file)",
			gotClass, gotKey, class, key)
	}
	if wantLen < 0 || !haveCRC {
		return nil, fmt.Errorf("header missing len/crc32")
	}
	if wantLen > rest {
		return nil, fmt.Errorf("payload truncated: header len=%d, %d bytes follow", wantLen, rest)
	}
	payload := make([]byte, wantLen)
	if n, err := io.ReadFull(br, payload); err != nil {
		return nil, fmt.Errorf("payload truncated at %d of %d bytes: %w", n, wantLen, err)
	}
	if n, _ := br.Read(make([]byte, 1)); n != 0 {
		return nil, fmt.Errorf("trailing bytes after %d-byte payload", wantLen)
	}
	if got := crc32.ChecksumIEEE(payload); uint64(got) != wantCRC {
		return nil, fmt.Errorf("checksum mismatch: payload crc32 %08x, header %08x", got, wantCRC)
	}
	return payload, nil
}

// Put implements pipeline.Backing: it durably stores the artifact,
// best-effort. A class without a codec is skipped; an encode or write
// failure (including injected ENOSPC) is logged and absorbed — the
// caller's request already has its value, so persistence failures must
// never surface. The context's FaultInjector, if any, is consulted for
// disk faults (short write, checksum flip, ENOSPC).
func (s *Store) Put(ctx context.Context, class, key string, val any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	codec := s.codecForLocked(class)
	if codec == nil {
		s.stats.PutSkips++
		return
	}
	var buf bytes.Buffer
	if err := codec.Encode(&buf, val); err != nil {
		s.stats.PutErrors++
		s.logfSafe("store: encoding %s/%s: %v", class, key, err)
		return
	}
	payload := buf.Bytes()
	crc := crc32.ChecksumIEEE(payload)

	fault := ""
	if fi := pipeline.InjectorFrom(ctx); fi != nil {
		fault = fi.DiskFault(class, key)
	}
	if fault == pipeline.DiskENOSPC {
		s.stats.PutErrors++
		s.logfSafe("store: writing %s/%s: %v (injected)", class, key, syscall.ENOSPC)
		return
	}
	if fault == pipeline.DiskChecksumFlip && len(payload) > 0 {
		// Flip a payload bit after the checksum was computed: the entry
		// lands durably but silently corrupt, the shape Get's checksum
		// verification exists to catch.
		payload = append([]byte(nil), payload...)
		payload[len(payload)/2] ^= 0x10
	}
	writeLen := len(payload)
	if fault == pipeline.DiskShortWrite {
		// Write only half the payload but still rename: the torn-entry
		// shape a killed writer (or a power cut beating the fsync)
		// leaves under the final name.
		writeLen /= 2
	}

	var header bytes.Buffer
	fmt.Fprintf(&header, "%s\nclass=%s\nkey=%s\nlen=%d\ncrc32=%08x\n---\n",
		formatLine, url.QueryEscape(class), url.QueryEscape(key), len(payload), crc)

	name := entryName(class, key)
	size, err := writeAtomic(s.objDir, name, header.Bytes(), payload[:writeLen])
	if err != nil {
		s.stats.PutErrors++
		s.logfSafe("store: writing %s/%s: %v", class, key, err)
		return
	}
	s.stats.Puts++
	if el, ok := s.ent[name]; ok {
		info := el.Value.(*entryInfo)
		s.bytes += size - info.size
		info.size = size
		s.lru.MoveToFront(el)
	} else {
		el := s.lru.PushFront(&entryInfo{name: name, size: size})
		s.ent[name] = el
		s.bytes += size
	}
	s.evictLocked(s.ent[name])
}

// writeAtomic writes header+payload to a temp file in dir, fsyncs, and
// renames it to name. Returns the entry's on-disk size.
func writeAtomic(dir, name string, header, payload []byte) (int64, error) {
	f, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return 0, err
	}
	tmp := f.Name()
	cleanup := func(err error) (int64, error) {
		f.Close()
		os.Remove(tmp)
		return 0, err
	}
	if _, err := f.Write(header); err != nil {
		return cleanup(err)
	}
	if _, err := f.Write(payload); err != nil {
		return cleanup(err)
	}
	if err := f.Sync(); err != nil {
		return cleanup(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return 0, err
	}
	if err := os.Rename(tmp, filepath.Join(dir, name)); err != nil {
		os.Remove(tmp)
		return 0, err
	}
	return int64(len(header) + len(payload)), nil
}

// evictLocked removes least-recently-used entries until the store fits
// its byte budget. keep (the entry just written, if any) is exempt: a
// single oversized artifact may briefly exceed the budget rather than
// evict itself into a pointless recompute loop.
func (s *Store) evictLocked(keep *list.Element) {
	if s.maxB <= 0 {
		return
	}
	for s.bytes > s.maxB {
		el := s.lru.Back()
		if el == nil || el == keep {
			return
		}
		info := el.Value.(*entryInfo)
		os.Remove(filepath.Join(s.objDir, info.name))
		s.lru.Remove(el)
		delete(s.ent, info.name)
		s.bytes -= info.size
		s.stats.Evicted++
	}
}

// quarantineLocked moves a corrupt entry into quarantine/ (keeping the
// bytes for post-mortem) and drops it from the accounting, so the next
// Put writes a fresh entry in its place.
func (s *Store) quarantineLocked(el *list.Element, class, key string, cause error) {
	info := el.Value.(*entryInfo)
	s.qseq++
	dst := filepath.Join(s.qDir, fmt.Sprintf("%s.q%d", info.name, s.qseq))
	src := filepath.Join(s.objDir, info.name)
	if err := os.Rename(src, dst); err != nil {
		// Even the rename failing must not fail the request; removing
		// the corrupt entry is the fallback.
		os.Remove(src)
		dst = "(removed: " + err.Error() + ")"
	}
	s.lru.Remove(el)
	delete(s.ent, info.name)
	s.bytes -= info.size
	s.stats.Quarantined++
	s.logfSafe("store: quarantined corrupt entry %s/%s -> %s: %v", class, key, dst, cause)
}

// QuarantineLen returns the number of quarantined files on disk.
func (s *Store) QuarantineLen() int {
	des, err := os.ReadDir(s.qDir)
	if err != nil {
		return 0
	}
	return len(des)
}

func (s *Store) logfSafe(format string, args ...any) {
	if s.logf != nil {
		s.logf(format, args...)
	}
}
