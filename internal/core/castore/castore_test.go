package castore

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core/memo"
)

func testKey(s string) string {
	// Keys are content addresses in production; tests use readable
	// stand-ins long enough to pass validation.
	return "k" + s + "0000000000000000"
}

func TestPutGetRoundtrip(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("the artifact payload")
	if _, ok := s.Get(testKey("a")); ok {
		t.Fatal("hit on empty store")
	}
	if err := s.Put(testKey("a"), payload); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(testKey("a"))
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get = %q, %v; want %q, true", got, ok, payload)
	}
	st := s.Stats()
	if st.Entries != 1 || st.Hits != 1 || st.Misses != 1 || st.Puts != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if want := int64(len(payload) + entryOverhead); st.Bytes != want {
		t.Fatalf("bytes = %d, want %d", st.Bytes, want)
	}
}

func TestReopenSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testKey("a"), []byte("persisted")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// A new Store over the same directory is the "restarted process".
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := s2.Get(testKey("a"))
	if !ok || string(got) != "persisted" {
		t.Fatalf("after reopen: Get = %q, %v", got, ok)
	}
	if st := s2.Stats(); st.Entries != 1 || st.Puts != 1 {
		t.Fatalf("reopened stats lost the persisted counters: %+v", st)
	}
}

func TestRejectsUnsafeKeys(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"", "short", "../../../../etc/passwd", testKey("a") + "/x", testKey("a") + "."} {
		if err := s.Put(key, []byte("x")); err == nil {
			t.Errorf("Put(%q) accepted an unsafe key", key)
		}
		if _, ok := s.Get(key); ok {
			t.Errorf("Get(%q) hit on an unsafe key", key)
		}
	}
}

// TestTruncatedEntryIsMissAndRewritten covers the kill-mid-rename /
// torn-disk case: a truncated entry must read as a miss, be deleted,
// and accept a clean rewrite.
func TestTruncatedEntryIsMissAndRewritten(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	key := testKey("trunc")
	payload := []byte("full payload that will be cut short")
	if err := s.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	path, err := s.entryPath(key)
	if err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, full[:len(full)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(key); ok {
		t.Fatal("truncated entry read as a hit")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("truncated entry not deleted on read")
	}
	if st := s.Stats(); st.Corrupt != 1 {
		t.Fatalf("corrupt counter = %d, want 1", st.Corrupt)
	}
	// The miss heals: the next writer rewrites a valid entry.
	if err := s.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(key)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("rewritten entry: Get = %q, %v", got, ok)
	}
}

// TestHashMismatchIsMiss covers bit rot: a checksum-failing entry reads
// as a miss and is deleted.
func TestHashMismatchIsMiss(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	key := testKey("rot")
	if err := s.Put(key, []byte("pristine payload bytes")); err != nil {
		t.Fatal(err)
	}
	path, _ := s.entryPath(key)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(magic)+8+3] ^= 0x40 // flip one payload bit; length still matches
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(key); ok {
		t.Fatal("bit-flipped entry read as a hit")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("corrupt entry not deleted")
	}
	if st := s.Stats(); st.Corrupt != 1 {
		t.Fatalf("corrupt counter = %d, want 1", st.Corrupt)
	}
}

// TestKillDuringWriteSweep covers a writer killed between stage and
// rename: the stale temp file is swept by the next Open, while a fresh
// temp file (a possibly-live writer) survives.
func TestKillDuringWriteSweep(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(s.tmpDir(), "put-killed")
	if err := os.WriteFile(stale, []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-time.Hour)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}
	fresh := filepath.Join(s.tmpDir(), "put-live")
	if err := os.WriteFile(fresh, []byte("in flight"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{TmpMaxAge: time.Minute}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatal("stale temp file survived the sweep")
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Fatal("fresh temp file was swept")
	}
}

// table is a memo table over s holding raw payloads — the shape in
// which the build and run caches put the store behind their tables.
func table(s *Store) *memo.Cache[[]byte] {
	c := memo.New[[]byte](nil)
	c.SetBackend(s,
		func(data []byte) ([]byte, bool) { return data, true },
		func(data []byte) ([]byte, int64, bool) { return data, int64(len(data)), true })
	return c
}

// TestDoSingleflightGoroutines races 16 goroutines on one key through
// four memo tables over one store. Each table merges its own callers;
// across tables only the store's per-key Lock and the re-read under it
// keep the fill to one run.
func TestDoSingleflightGoroutines(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	tables := []*memo.Cache[[]byte]{table(s), table(s), table(s), table(s)}
	key := testKey("flight")
	var fills atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(c *memo.Cache[[]byte]) {
			defer wg.Done()
			data, err := c.Do(key, func() ([]byte, int64, error) {
				fills.Add(1)
				time.Sleep(20 * time.Millisecond)
				return []byte("the one payload"), 15, nil
			})
			if err != nil || string(data) != "the one payload" {
				t.Errorf("Do = %q, %v", data, err)
			}
		}(tables[i%len(tables)])
	}
	wg.Wait()
	if n := fills.Load(); n != 1 {
		t.Fatalf("%d fills ran, want 1 (singleflight)", n)
	}
	if got, ok := s.Get(key); !ok || string(got) != "the one payload" {
		t.Fatalf("store holds %q, %v after the fill", got, ok)
	}
}

func TestDoErrorNotStored(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	key := testKey("err")
	if _, err := table(s).Do(key, func() ([]byte, int64, error) { return nil, 0, fmt.Errorf("boom") }); err == nil {
		t.Fatal("fill error swallowed")
	}
	// The failure was not persisted; the next table over the store fills
	// for real.
	filled := false
	data, err := table(s).Do(key, func() ([]byte, int64, error) { filled = true; return []byte("ok"), 2, nil })
	if err != nil || !filled || string(data) != "ok" {
		t.Fatalf("Do after error = %q, filled=%v, err=%v", data, filled, err)
	}
}

// TestGCUnderByteBudget fills past a budget and checks the LRU sweep:
// oldest-by-mtime entries go first, recently-read entries survive.
func TestGCUnderByteBudget(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("x"), 1000)
	perEntry := int64(len(payload) + entryOverhead)
	for i := 0; i < 10; i++ {
		key := testKey(fmt.Sprintf("gc%d", i))
		if err := s.Put(key, payload); err != nil {
			t.Fatal(err)
		}
		// Backdate each entry so mtime order equals insertion order
		// regardless of filesystem timestamp granularity.
		path, _ := s.entryPath(key)
		mt := time.Now().Add(-time.Duration(10-i) * time.Hour)
		if err := os.Chtimes(path, mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	// Touch the oldest entry: a Get refreshes recency, so it must now
	// survive a sweep that evicts half the store.
	if _, ok := s.Get(testKey("gc0")); !ok {
		t.Fatal("miss on a live entry")
	}
	evicted, freed := s.GC(5 * perEntry)
	if evicted != 5 || freed != 5*perEntry {
		t.Fatalf("GC evicted %d entries / %d bytes, want 5 / %d", evicted, freed, 5*perEntry)
	}
	st := s.Stats()
	if st.Entries != 5 || st.Bytes != 5*perEntry {
		t.Fatalf("after GC: %d entries / %d bytes", st.Entries, st.Bytes)
	}
	// gc0 was touched (most recent), gc1..gc5 were the LRU victims.
	if _, ok := s.Get(testKey("gc0")); !ok {
		t.Fatal("recently-read entry was evicted")
	}
	for i := 1; i <= 5; i++ {
		path, _ := s.entryPath(testKey(fmt.Sprintf("gc%d", i)))
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("LRU victim gc%d survived", i)
		}
	}
	for i := 6; i <= 9; i++ {
		if _, ok := s.Get(testKey(fmt.Sprintf("gc%d", i))); !ok {
			t.Fatalf("recent entry gc%d was evicted", i)
		}
	}
}

// TestAutoGCOnPut checks the byte budget is enforced by Put itself.
func TestAutoGCOnPut(t *testing.T) {
	payload := bytes.Repeat([]byte("y"), 1000)
	perEntry := int64(len(payload) + entryOverhead)
	s, err := Open(t.TempDir(), Options{MaxBytes: 4 * perEntry})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		key := testKey(fmt.Sprintf("auto%d", i))
		if err := s.Put(key, payload); err != nil {
			t.Fatal(err)
		}
		path, _ := s.entryPath(key)
		mt := time.Now().Add(-time.Duration(100-i) * time.Minute)
		if err := os.Chtimes(path, mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Bytes > 4*perEntry {
		t.Fatalf("store at %d bytes, budget %d: auto-GC never ran", st.Bytes, 4*perEntry)
	}
	if st.Evicted == 0 {
		t.Fatal("no evictions recorded")
	}
	// The newest entry always survives the sweep that its own Put
	// triggered.
	if _, ok := s.Get(testKey("auto11")); !ok {
		t.Fatal("newest entry was evicted")
	}
}

func TestPutReplaceKeepsAccounting(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	key := testKey("re")
	if err := s.Put(key, bytes.Repeat([]byte("a"), 100)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(key, bytes.Repeat([]byte("b"), 300)); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Entries != 1 {
		t.Fatalf("entries = %d after replacing one key", st.Entries)
	}
	if want := int64(300 + entryOverhead); st.Bytes != want {
		t.Fatalf("bytes = %d, want %d", st.Bytes, want)
	}
}
