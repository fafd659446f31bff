// Package runcache is a concurrency-safe, content-addressed memoisation
// layer for regression runs: the keys, codec and purity rules that
// specialise the memo table (internal/core/memo) to run outcomes. A
// regression matrix re-executes the same
// linked image on the same simulated hardware many times across
// regressions (and, with overlapping module selections, within one), yet
// the deterministic platforms — golden, RTL, gate — are pure functions
// of (image, platform kind, hardware config, run bounds): no wall-clock,
// no randomness, no external input. The cache keys each outcome by a
// SHA-256 content address over exactly those inputs, and the memo table
// deduplicates concurrent runs of one key.
//
// Soundness rests on the same release-label invariant as the build
// cache (the paper's Section 3): regressions only run against frozen
// labels, so an image content hash fully determines the program, and a
// platform kind plus hardware config fully determines the machine.
// Anything that breaks run purity bypasses the cache: fault-injection
// harnesses (Spec.NewPlatform), trace callbacks, event streams, and the
// non-deterministic platform rungs (emulator, bondout, silicon, whose
// models carry approximate timing and asynchronous peripherals).
package runcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"fmt"

	"repro/internal/core/buildcache"
	"repro/internal/core/memo"
	"repro/internal/obj"
	"repro/internal/platform"
	"repro/internal/soc"
)

// Cacheable reports whether a platform kind's runs are deterministic
// functions of (image, config, bounds) and may be memoised. The golden
// model, RTL and gate-level simulations qualify; the emulator, bondout
// and product-silicon models do not (approximate timing, asynchronous
// peripheral behaviour).
func Cacheable(k platform.Kind) bool {
	switch k {
	case platform.KindGolden, platform.KindRTL, platform.KindGate:
		return true
	}
	return false
}

// ImageHash content-addresses a linked image: entry point, segment
// addresses and bytes, and BSS geometry — every input that affects
// execution. Symbol and line tables are excluded; they only feed
// tracing, which bypasses the cache.
func ImageHash(img *obj.Image) string {
	h := sha256.New()
	var n [8]byte
	w32 := func(v uint32) {
		binary.LittleEndian.PutUint32(n[:4], v)
		h.Write(n[:4])
	}
	w32(img.Entry)
	w32(img.BssAddr)
	w32(img.BssSize)
	for _, seg := range img.Segments {
		w32(seg.Addr)
		binary.LittleEndian.PutUint64(n[:], uint64(len(seg.Data)))
		h.Write(n[:])
		h.Write(seg.Data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// OutcomeKey content-addresses one regression cell without needing the
// built image: the release epoch (the content hash of the frozen module
// environments) pins every source the cell's build reads, and the build
// pipeline is deterministic, so (epoch, module, test, derivative, kind)
// determines the image exactly. Keying on the inputs instead of the
// output is what lets a warm hit skip the build entirely — the run
// cache then subsumes the build cache for memoised cells. HWConfig is a
// flat value struct, so its deterministic %+v rendering is a faithful
// serialisation.
//
// Purity audit — which RunSpec fields are keyed: only the run bounds
// (MaxInstructions, MaxCycles) affect a run's observable outcome.
// RunSpec.Engine is deliberately NOT keyed: every execution engine
// (interpreter, predecode, translate) is bit-identical by contract —
// same final state, counters, and stop reason — so a cached outcome is
// valid for any engine and engines share cache entries. (Engine-divergence
// is tested, not assumed: the golden package's differential fuzz suite
// enforces the contract.) Trace/Events/Context/DebugStops never reach
// the key because traced or cancellable runs bypass the cache entirely
// (see regress.Run). Anyone adding a RunSpec field that changes
// observable results must add it to the key.
func OutcomeKey(epoch, module, test, deriv string, k platform.Kind, hw soc.HWConfig, spec platform.RunSpec) string {
	return buildcache.Key(
		epoch, module, test, deriv,
		k.String(),
		fmt.Sprintf("%+v", hw),
		fmt.Sprintf("max-insts=%d max-cycles=%d", spec.MaxInstructions, spec.MaxCycles),
	)
}

// persistVersion tags the on-disk result encoding; a decoder that sees
// any other version treats the entry as a miss, so the format can
// evolve without migrations (stale entries simply re-run once).
const persistVersion = 1

// persistedResult is the gob envelope for one stored outcome.
type persistedResult struct {
	V   int
	Res *platform.Result
}

// encodeResult serialises a result for the backend; a nil result (no
// verdict) is not persisted.
func encodeResult(r *platform.Result) ([]byte, bool) {
	if r == nil {
		return nil, false
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(persistedResult{V: persistVersion, Res: r}); err != nil {
		return nil, false
	}
	return buf.Bytes(), true
}

// decodeResult deserialises a backend payload; any decode failure or
// version mismatch reads as a miss.
func decodeResult(data []byte) (*platform.Result, bool) {
	var p persistedResult
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&p); err != nil {
		return nil, false
	}
	if p.V != persistVersion || p.Res == nil {
		return nil, false
	}
	return p.Res, true
}

// clone deep-copies a result so callers can mutate what they receive
// (triage annotations, detail rewrites) without corrupting the cache.
func clone(r *platform.Result) *platform.Result {
	if r == nil {
		return nil
	}
	out := *r
	if r.State != nil {
		st := *r.State
		out.State = &st
	}
	if r.Checkpoints != nil {
		out.Checkpoints = append([]uint32(nil), r.Checkpoints...)
	}
	return &out
}

// Cache memoises run outcomes under content-address keys. Every caller
// receives its own deep copy of an outcome, and Bypass counts the runs
// that skipped the cache: non-deterministic platform kinds,
// fault-injection harnesses, traced runs.
type Cache struct {
	*memo.Cache[*platform.Result]
}

// New creates an empty cache.
func New() *Cache { return &Cache{memo.New(clone)} }

// SetBackend attaches a persistent second tier, shared with the build
// cache — one on-disk store (internal/core/castore) serves both, keyed
// by their disjoint content-address namespaces. Memoised outcomes then
// survive process restarts and are shared between concurrent processes.
// Errors are never persisted — only results that produced a verdict. A
// nil backend detaches.
func (c *Cache) SetBackend(b memo.Backend) {
	c.Cache.SetBackend(b, encodeResult, func(data []byte) (*platform.Result, int64, bool) {
		r, ok := decodeResult(data)
		return r, 0, ok
	})
}

// Do returns the outcome cached under key, executing run to produce it
// on first use; see memo.Cache.Do for the singleflight, error-caching and
// panic rules. The second return reports whether the outcome came from
// the cache (hit, merged or store) rather than this caller's own
// execution.
func (c *Cache) Do(key string, run func() (*platform.Result, error)) (*platform.Result, bool, error) {
	ran := false
	res, err := c.Cache.Do(key, func() (*platform.Result, int64, error) {
		ran = true
		r, err := run()
		return r, 0, err
	})
	return res, !ran, err
}
