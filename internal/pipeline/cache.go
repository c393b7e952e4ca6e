// Package pipeline provides the keyed, cached, instrumented stage
// primitives the experiment harness composes its end-to-end flow from.
// A pipeline is a chain of Stage values; each stage derives an explicit
// cache key from its input (configuration fields plus the content
// fingerprint of the upstream artifact), so independent runs that share
// a prefix — every binder over one benchmark, every ablation point of a
// parameter sweep — share the prefix's computed artifacts through one
// content-addressed Cache. The same Cache primitive backs the
// switching-activity table (internal/satable), unifying the repo's
// singleflight logic in one place.
package pipeline

import (
	"context"
	"fmt"
	"sync"
)

// Stats counts cache traffic for one artifact class. A waiter served by
// another goroutine's in-flight computation counts as a hit: the work
// ran once. A demand served from the backing store counts as a
// BackingHit — it avoided the computation but paid a disk read.
type Stats struct {
	Hits        int
	Misses      int
	BackingHits int
}

// Backing is a second-level artifact store a Cache consults on miss and
// writes through to on every successful computation. Implementations
// must be safe for concurrent use, must treat Get misses and Put
// failures as non-fatal (a durable store never fails a request — see
// internal/store), and must return values that satisfy the same
// immutability contract as cached artifacts.
type Backing interface {
	// Get returns the stored artifact for (class, key), or false. A
	// corrupt or undecodable entry is a miss, never an error.
	Get(ctx context.Context, class, key string) (any, bool)
	// Put stores an artifact. Best effort: errors are absorbed (and
	// logged) by the implementation.
	Put(ctx context.Context, class, key string, val any)
}

// renamedBacking rewrites the class of every Get/Put, so one physical
// store can namespace logically distinct caches (e.g. per-table SA
// entries, per-config run results) without the caches knowing.
type renamedBacking struct {
	b      Backing
	rename func(class string) string
}

func (r renamedBacking) Get(ctx context.Context, class, key string) (any, bool) {
	return r.b.Get(ctx, r.rename(class), key)
}

func (r renamedBacking) Put(ctx context.Context, class, key string, val any) {
	r.b.Put(ctx, r.rename(class), key, val)
}

// RenameBacking returns a view of b with every class rewritten through
// rename. Callers whose in-memory class names are not globally unique
// (satable's "sa", the session run cache's "run") use it to stamp the
// persisted class with the fingerprint that makes entries portable.
func RenameBacking(b Backing, rename func(class string) string) Backing {
	return renamedBacking{b: b, rename: rename}
}

// entry is one cached artifact slot. Waiters block on done and read
// val/err afterwards.
type entry struct {
	done chan struct{}
	val  any
	err  error
}

// Cache is a content-addressed artifact cache with singleflight
// deduplication and per-class hit/miss accounting. Keys are namespaced
// by an artifact class (typically the stage name), so one Cache serves a
// whole pipeline. The zero value is not usable; construct with NewCache.
//
// Cached artifacts are shared across callers and must be treated as
// immutable by everyone downstream.
type Cache struct {
	mu      sync.Mutex
	classes map[string]map[string]*entry
	stats   map[string]*Stats
	backing Backing
}

// NewCache returns an empty cache.
func NewCache() *Cache {
	return &Cache{
		classes: make(map[string]map[string]*entry),
		stats:   make(map[string]*Stats),
	}
}

// class returns the entry map and stats for a class, creating them on
// first use. Callers must hold c.mu.
func (c *Cache) class(class string) (map[string]*entry, *Stats) {
	m, ok := c.classes[class]
	if !ok {
		m = make(map[string]*entry)
		c.classes[class] = m
		c.stats[class] = &Stats{}
	}
	return m, c.stats[class]
}

// Do returns the artifact stored under (class, key), computing it with
// fn on first use. Concurrent calls on the same key share a single
// successful execution; the duplicates block and count as hits. Errors
// are never cached, and a waiter whose computation fails under another
// caller retries under its own call instead of adopting the foreign
// error — so the error every caller ultimately reports carries its own
// provenance and is deterministic regardless of which goroutine happened
// to compute first. (A retrying waiter counts one hit for the wait and
// one miss for its own computation.)
//
// ctx cancels the wait on an in-flight computation (and is checked
// before computing); the computation itself is fn's to cancel — stage
// closures thread their own context. If fn panics, the panic propagates
// to the caller that ran it and waiters retry.
//
// The returned hit flag reports whether this call was served without
// invoking fn — from memory, from an in-flight computation, or from the
// backing store (see SetBacking).
func (c *Cache) Do(ctx context.Context, class, key string, fn func() (any, error)) (val any, hit bool, err error) {
	for {
		if err := ctx.Err(); err != nil {
			return nil, false, err
		}
		c.mu.Lock()
		m, st := c.class(class)
		if e, ok := m[key]; ok {
			st.Hits++
			c.mu.Unlock()
			select {
			case <-e.done:
			case <-ctx.Done():
				return nil, false, ctx.Err()
			}
			if e.err != nil {
				// The shared computation failed (error, panic, or the
				// computing caller's cancellation). The entry is already
				// gone; compute under our own call.
				continue
			}
			return e.val, true, nil
		}
		e := &entry{done: make(chan struct{})}
		m[key] = e
		b := c.backing
		c.mu.Unlock()

		// Second level: a disk-backed store, consulted outside the lock
		// (it does I/O). Waiters block on e.done either way, so the read
		// is still singleflight.
		if b != nil {
			if v, ok := b.Get(ctx, class, key); ok {
				e.val = v
				c.mu.Lock()
				st.BackingHits++
				c.mu.Unlock()
				close(e.done)
				return v, true, nil
			}
		}
		c.mu.Lock()
		st.Misses++
		c.mu.Unlock()

		completed := false
		defer func() {
			if !completed {
				// fn panicked: unblock waiters with an error, drop the entry,
				// and let the panic propagate.
				e.err = fmt.Errorf("pipeline: computing %s/%s panicked", class, key)
			}
			c.mu.Lock()
			if e.err != nil {
				delete(m, key)
			}
			c.mu.Unlock()
			close(e.done)
		}()
		e.val, e.err = fn()
		completed = true
		if e.err == nil && b != nil {
			// Write-through before returning: the computing caller pays
			// the (small, atomic) disk write, so a drain that waits out
			// in-flight requests has durably stored everything they
			// computed. Put is best-effort by contract.
			b.Put(ctx, class, key, e.val)
		}
		return e.val, false, e.err
	}
}

// SetBacking attaches a second-level store: Do consults it after a
// memory miss and writes every successful computation through to it.
// Externally produced artifacts (Put) stay memory-only — they typically
// came *from* the backing store or a snapshot file in the first place.
// Pass nil to detach. Safe to call concurrently with Do; in-flight
// demands keep the backing they started with.
func (c *Cache) SetBacking(b Backing) {
	c.mu.Lock()
	c.backing = b
	c.mu.Unlock()
}

// Put stores an externally produced artifact (e.g. one loaded from
// disk), overwriting any completed entry. It does not count as a hit or
// a miss. Put on a key with an in-flight computation is a no-op: the
// running computation wins.
func (c *Cache) Put(class, key string, val any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m, _ := c.class(class)
	if e, ok := m[key]; ok {
		select {
		case <-e.done:
		default:
			return // in flight; let the computation finish
		}
	}
	e := &entry{done: make(chan struct{}), val: val}
	close(e.done)
	m[key] = e
}

// Lookup returns the completed artifact under (class, key) without
// computing or touching the stats.
func (c *Cache) Lookup(class, key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.classes[class][key]
	if !ok {
		return nil, false
	}
	select {
	case <-e.done:
	default:
		return nil, false // still computing
	}
	if e.err != nil {
		return nil, false
	}
	return e.val, true
}

// Len returns the number of completed entries in a class.
func (c *Cache) Len(class string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, e := range c.classes[class] {
		select {
		case <-e.done:
			if e.err == nil {
				n++
			}
		default:
		}
	}
	return n
}

// StatsFor returns the hit/miss counters of one class.
func (c *Cache) StatsFor(class string) Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	if st, ok := c.stats[class]; ok {
		return *st
	}
	return Stats{}
}

// AllStats returns the hit/miss counters of every class with traffic.
func (c *Cache) AllStats() map[string]Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]Stats, len(c.stats))
	for k, st := range c.stats {
		out[k] = *st
	}
	return out
}

// Snapshot returns a copy of the completed entries of a class, keyed as
// stored. Used by persistence layers (satable Save).
func (c *Cache) Snapshot(class string) map[string]any {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]any, len(c.classes[class]))
	for k, e := range c.classes[class] {
		select {
		case <-e.done:
			if e.err == nil {
				out[k] = e.val
			}
		default:
		}
	}
	return out
}
