// Package memo is the one content-addressed memo table behind every
// cache in the repository: the build cache (internal/core/buildcache),
// the run cache (internal/core/runcache) and the analyzer reports a
// frozen release label keeps (internal/core/release) are each a Cache
// specialised to their value type.
//
// Soundness rests on the release-label invariant of the paper's
// Section 3: regressions only run against frozen labels, so everything
// the matrix reuses — trees, objects, images, run outcomes, analyzer
// reports — is a pure function of frozen content, and a key that names
// the content names the value. A Cache computes each key once: concurrent
// callers of one key share a single fill (singleflight), errors are
// cached like values, and an optional persistent Backend
// (internal/core/castore in production) carries values across processes.
package memo

import (
	"fmt"
	"sync"
)

// Backend is an optional persistent second tier behind the in-memory
// table: a durable byte store keyed by the same content addresses. A
// miss in memory consults the backend before running the fill function;
// a successful fill is written through. Backends must be safe for
// concurrent use; all three methods may be called from any worker.
type Backend interface {
	// Get returns the bytes stored under key, reporting a miss (not an
	// error) for absent or unreadable entries.
	Get(key string) ([]byte, bool)
	// Put stores bytes under key.
	Put(key string, data []byte) error
	// Lock takes the cross-process advisory lock for key and returns
	// the unlock function — the singleflight for same-key writers in
	// other processes. The in-memory table already deduplicates
	// in-process callers.
	Lock(key string) func()
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	// Hits counts Do calls answered from a completed entry.
	Hits uint64
	// Misses counts Do calls that ran the fill function.
	Misses uint64
	// Merged counts Do calls that blocked on another caller's in-flight
	// fill instead of duplicating it (singleflight deduplication).
	Merged uint64
	// DiskHits counts Do calls answered from the persistent backend
	// instead of running the fill function.
	DiskHits uint64
	// Bypassed counts lookups the caller skipped because the value was
	// not memoisable (see Cache.Bypass).
	Bypassed uint64
	// Entries is the number of cached entries (including cached errors).
	Entries int
	// Bytes sums the sizes reported by the fill and decode functions.
	Bytes int64
}

// String renders a one-line summary.
func (s Stats) String() string {
	line := fmt.Sprintf("%d hits, %d misses, %d merged (%.1f%% reuse), %d entries",
		s.Hits, s.Misses, s.Merged, s.Reuse(), s.Entries)
	if s.Bytes > 0 {
		line += fmt.Sprintf(", %.1f KiB cached", float64(s.Bytes)/1024)
	}
	if s.Bypassed > 0 {
		line += fmt.Sprintf(", %d bypassed", s.Bypassed)
	}
	if s.DiskHits > 0 {
		line += fmt.Sprintf(", %d from store", s.DiskHits)
	}
	return line
}

// Reuse is the percentage of lookups served without running the fill
// function (hits, singleflight merges, and persistent-store hits), 0 on
// an untouched cache. Bypassed lookups are outside the denominator —
// they were never candidates.
func (s Stats) Reuse() float64 {
	total := s.Hits + s.Misses + s.Merged + s.DiskHits
	if total == 0 {
		return 0
	}
	return float64(s.Hits+s.Merged+s.DiskHits) / float64(total) * 100
}

// Since returns the lookups counted between an earlier snapshot of the
// same cache and s. Entries and Bytes are levels, not events, and keep
// s's values.
func (s Stats) Since(before Stats) Stats {
	s.Hits -= before.Hits
	s.Misses -= before.Misses
	s.Merged -= before.Merged
	s.DiskHits -= before.DiskHits
	s.Bypassed -= before.Bypassed
	return s
}

// entry is one cache slot. ready is closed once val/err are final.
type entry[V any] struct {
	ready chan struct{}
	val   V
	err   error
}

// Cache is a content-addressed memo table with singleflight semantics.
// The zero value is not usable; call New.
type Cache[V any] struct {
	mu      sync.Mutex
	entries map[string]*entry[V]
	stats   Stats
	clone   func(V) V
	backend Backend
	enc     func(V) ([]byte, bool)
	dec     func([]byte) (V, int64, bool)
}

// New creates an empty cache. clone, when non-nil, deep-copies values
// so that no two callers, and no caller and the table, share one: the
// table keeps a copy of each value it settles, and every hit hands out
// a fresh copy of that.
func New[V any](clone func(V) V) *Cache[V] {
	return &Cache[V]{entries: make(map[string]*entry[V]), clone: clone}
}

// SetBackend attaches a persistent second tier: on an in-memory miss
// the backend is consulted (dec turning its bytes back into a value and
// its size), and a successful fill is written through (enc turning the
// value into bytes; ok=false keeps the value in memory only). A payload
// dec rejects reads as a miss. Backend failures degrade to the uncached
// path — persistence is an optimisation, never a correctness
// dependency. Errors are never persisted. A nil backend detaches.
func (c *Cache[V]) SetBackend(b Backend, enc func(V) ([]byte, bool), dec func([]byte) (V, int64, bool)) {
	c.mu.Lock()
	c.backend, c.enc, c.dec = b, enc, dec
	c.mu.Unlock()
}

// Bypass records a lookup the caller skipped because its value is not a
// pure function of the key, for the reuse accounting.
func (c *Cache[V]) Bypass() {
	c.mu.Lock()
	c.stats.Bypassed++
	c.mu.Unlock()
}

// Stats returns a snapshot of the counters.
func (c *Cache[V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// give hands one caller its value: a private copy when the cache clones.
// A failed fill's value is never copied — callers take the error.
func (c *Cache[V]) give(v V, err error) V {
	if c.clone != nil && err == nil {
		return c.clone(v)
	}
	return v
}

// Do returns the value cached under key, running fill to compute it on
// first use. Concurrent calls for the same key run fill exactly once;
// the others block until it completes and share the result. fill
// returns the value, its approximate size in bytes (for Stats
// accounting), and an error. Errors are cached too: the memoised
// functions are deterministic, so a failure fails identically for every
// caller and retrying would only duplicate the work.
//
// With a backend attached, an in-memory miss consults the persistent
// tier first (a DiskHit), then takes the key's cross-process lock,
// re-checks the tier (another process may have filled it while we
// waited), and only then runs fill — whose successful result is written
// through for the next process.
//
// If fill panics, the panic propagates to the caller that ran it, any
// waiting callers receive an error, and the entry is dropped so a later
// Do retries.
func (c *Cache[V]) Do(key string, fill func() (V, int64, error)) (V, error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		select {
		case <-e.ready:
			c.stats.Hits++
			c.mu.Unlock()
		default:
			c.stats.Merged++
			c.mu.Unlock()
			<-e.ready
		}
		return c.give(e.val, e.err), e.err
	}
	// The error pre-set here is what waiters observe if fill panics.
	e := &entry[V]{ready: make(chan struct{}), err: fmt.Errorf("memo: fill for key %.12s aborted", key)}
	c.entries[key] = e
	c.stats.Entries++
	backend, enc, dec := c.backend, c.enc, c.dec
	c.mu.Unlock()

	settled := false
	defer func() {
		if !settled {
			c.mu.Lock()
			delete(c.entries, key)
			c.stats.Entries--
			c.mu.Unlock()
		}
		close(e.ready)
	}()
	settle := func(v V, n int64, err error, fromStore bool) {
		c.mu.Lock()
		if fromStore {
			c.stats.DiskHits++
		}
		c.stats.Bytes += n
		c.mu.Unlock()
		e.val, e.err, settled = c.give(v, err), err, true
	}

	if backend != nil && dec != nil {
		stored := func() (v V, ok bool) {
			if data, hit := backend.Get(key); hit {
				var n int64
				if v, n, ok = dec(data); ok {
					settle(v, n, nil, true)
				}
			}
			return v, ok
		}
		if v, ok := stored(); ok {
			return v, nil
		}
		// Same-key writers in other processes serialise on the key's
		// lock; the lock loser finds the winner's entry on the re-check
		// instead of refilling.
		unlock := backend.Lock(key)
		defer unlock()
		if v, ok := stored(); ok {
			return v, nil
		}
	}

	c.mu.Lock()
	c.stats.Misses++
	c.mu.Unlock()
	v, n, err := fill()
	settle(v, n, err, false)
	if err == nil && backend != nil && enc != nil {
		if data, ok := enc(v); ok {
			// A failed write-through costs the next process one refill.
			_ = backend.Put(key, data)
		}
	}
	return v, err
}
