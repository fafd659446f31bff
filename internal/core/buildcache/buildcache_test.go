package buildcache

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core/castore"
)

func TestKeyIsLengthPrefixed(t *testing.T) {
	if Key("ab", "c") == Key("a", "bc") {
		t.Error("length prefixing failed: concatenation collision")
	}
	if Key("x") != Key("x") {
		t.Error("Key is not deterministic")
	}
	if Key("x") == Key("x", "") {
		t.Error("empty trailing part must change the key")
	}
}

func TestHashTreeDeterministic(t *testing.T) {
	a := HashTree(map[string]string{"p1": "c1", "p2": "c2"})
	b := HashTree(map[string]string{"p2": "c2", "p1": "c1"})
	if a != b {
		t.Error("HashTree depends on map iteration order")
	}
	if a == HashTree(map[string]string{"p1": "c1", "p2": "c2x"}) {
		t.Error("content change must change the hash")
	}
	if HashTree(map[string]string{"ab": "c"}) == HashTree(map[string]string{"a": "bc"}) {
		t.Error("path/content boundary is ambiguous")
	}
}

// The tests below pin the memo-table rules the build pipeline relies on,
// through the build cache's own constructor; the mechanism itself is
// tested in internal/core/memo.

func TestDoCachesErrors(t *testing.T) {
	c := New()
	fills := 0
	boom := errors.New("boom")
	fill := func() (any, int64, error) { fills++; return nil, 0, boom }
	for i := 0; i < 2; i++ {
		if _, err := c.Do("k", fill); !errors.Is(err, boom) {
			t.Fatalf("err = %v, want boom", err)
		}
	}
	if fills != 1 {
		t.Errorf("failed fill ran %d times, want 1 (errors are cached)", fills)
	}
}

func TestDoSingleflight(t *testing.T) {
	c := New()
	var fills atomic.Int32
	release := make(chan struct{})
	started := make(chan struct{})
	go func() {
		v, err := c.Do("k", func() (any, int64, error) {
			close(started)
			<-release
			fills.Add(1)
			return "v", 1, nil
		})
		if err != nil || v.(string) != "v" {
			t.Errorf("leader Do = %v, %v", v, err)
		}
	}()
	<-started

	const waiters = 9
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := c.Do("k", func() (any, int64, error) {
				fills.Add(1)
				return "dup", 1, nil
			})
			if err != nil || v.(string) != "v" {
				t.Errorf("waiter Do = %v, %v", v, err)
			}
		}()
	}
	close(release)
	wg.Wait()
	if n := fills.Load(); n != 1 {
		t.Errorf("fill ran %d times under contention, want 1", n)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits+st.Merged != waiters {
		t.Errorf("stats = %+v, want 1 miss and %d hits+merged", st, waiters)
	}
}

// TestStatsStringZero pins the empty-cache rendering: with no lookups
// the reuse percentage must read 0.0%, never NaN%.
func TestStatsStringZero(t *testing.T) {
	got := New().Stats().String()
	if !strings.Contains(got, "0.0% reuse") || strings.Contains(got, "NaN") {
		t.Errorf("zero stats render %q, want 0.0%% reuse", got)
	}
}

func TestBackendErrorsNotPersisted(t *testing.T) {
	store, err := castore.Open(t.TempDir(), castore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := New()
	c.SetBackend(store,
		func(v any) ([]byte, bool) { s, ok := v.(string); return []byte(s), ok },
		func(data []byte) (any, int64, bool) { return string(data), int64(len(data)), true })
	key := Key("unit", "bad")
	if _, err := c.Do(key, func() (any, int64, error) { return nil, 0, fmt.Errorf("boom") }); err == nil {
		t.Fatal("fill error swallowed")
	}
	if _, ok := store.Get(key); ok || store.Stats().Puts != 0 {
		t.Fatal("failed fill was written to the backend")
	}
}
