// Package buildcache is a concurrency-safe, content-addressed
// memoisation layer for the ADVM build pipeline. Every cell of a
// regression matrix re-renders the materialised source tree and
// re-assembles the five translation units, yet four of the five depend
// only on (derivative, platform kind, module) and the tree depends only
// on the derivative — so the same artefacts are rebuilt hundreds of
// times per regression. The cache keys each artefact by a SHA-256
// content address (unit source + resolved include closure + sorted
// defines) in a memo table (internal/core/memo) that deduplicates
// concurrent builds of the same key: one worker assembles, the others
// block on the in-flight entry and share the result.
//
// Soundness rests on the release-label invariant of the paper's
// Section 3: a regression only runs against a frozen label, the module
// environments are immutable while the label holds, and the global layer
// is a pure function of the derivative. The epoch (the content hash of
// the frozen environments) is part of every tree key, so a mutated
// system can never observe stale entries.
package buildcache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sort"

	"repro/internal/core/memo"
)

// Key hashes an ordered list of parts into a content address. Parts are
// length-prefixed so that ("ab","c") and ("a","bc") cannot collide.
func Key(parts ...string) string {
	h := sha256.New()
	var n [8]byte
	for _, p := range parts {
		binary.LittleEndian.PutUint64(n[:], uint64(len(p)))
		h.Write(n[:])
		h.Write([]byte(p))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// HashTree hashes a file tree deterministically (sorted path/content
// pairs). The release-label content hashes use the same algorithm, which
// is what lets a frozen label double as a cache epoch.
func HashTree(tree map[string]string) string {
	paths := make([]string, 0, len(tree))
	for p := range tree {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		h.Write([]byte(p))
		h.Write([]byte{0})
		h.Write([]byte(tree[p]))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Cache memoises build artefacts — trees, objects, images — of any type.
type Cache = memo.Cache[any]

// New creates an empty cache.
func New() *Cache { return memo.New[any](nil) }
