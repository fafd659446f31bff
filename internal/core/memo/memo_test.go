package memo

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestDoCachesValues(t *testing.T) {
	c := New[int](nil)
	fills := 0
	fill := func() (int, int64, error) { fills++; return 42, 8, nil }
	for i := 0; i < 3; i++ {
		v, err := c.Do("k", fill)
		if err != nil || v != 42 {
			t.Fatalf("Do = %v, %v", v, err)
		}
	}
	if fills != 1 {
		t.Errorf("fill ran %d times, want 1", fills)
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Entries != 1 || st.Bytes != 8 {
		t.Errorf("stats = %+v", st)
	}
}

func TestDoCachesErrors(t *testing.T) {
	c := New[int](nil)
	fills := 0
	boom := errors.New("boom")
	fill := func() (int, int64, error) { fills++; return 0, 0, boom }
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
	c := New[string](nil)
	var fills atomic.Int32
	release := make(chan struct{})
	started := make(chan struct{})
	go func() {
		v, err := c.Do("k", func() (string, int64, error) {
			close(started)
			<-release
			fills.Add(1)
			return "v", 1, nil
		})
		if err != nil || v != "v" {
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
			v, err := c.Do("k", func() (string, int64, error) {
				fills.Add(1)
				return "dup", 1, nil
			})
			if err != nil || v != "v" {
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

// TestConcurrentOverlappingKeys is the stress test: many builders racing
// over a small overlapping key set must run each key's fill exactly once
// and all observe the same value. Run with -race.
func TestConcurrentOverlappingKeys(t *testing.T) {
	c := New[int](nil)
	const keys = 20
	const workers = 16
	const opsPerWorker = 200
	var fills [keys]atomic.Int32
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opsPerWorker; i++ {
				k := (w + i) % keys
				v, err := c.Do(fmt.Sprintf("key-%d", k), func() (int, int64, error) {
					fills[k].Add(1)
					return k * 7, 4, nil
				})
				if err != nil || v != k*7 {
					t.Errorf("key %d: Do = %v, %v", k, v, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for k := 0; k < keys; k++ {
		if n := fills[k].Load(); n != 1 {
			t.Errorf("key %d filled %d times, want 1", k, n)
		}
	}
	st := c.Stats()
	if st.Misses != keys || st.Entries != keys {
		t.Errorf("stats = %+v, want %d misses/entries", st, keys)
	}
	if st.Hits+st.Merged+st.Misses != workers*opsPerWorker {
		t.Errorf("stats don't account for every call: %+v", st)
	}
}

func TestPanicInFillPropagatesAndRetries(t *testing.T) {
	c := New[string](nil)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("panic in fill must propagate to the filling caller")
			}
		}()
		c.Do("k", func() (string, int64, error) { panic("kaboom") })
	}()
	// The entry was dropped, so a later Do retries and can succeed.
	v, err := c.Do("k", func() (string, int64, error) { return "ok", 2, nil })
	if err != nil || v != "ok" {
		t.Errorf("Do after panic = %v, %v, want ok", v, err)
	}
	if st := c.Stats(); st.Entries != 1 {
		t.Errorf("entries = %d, want 1 (panicked entry dropped)", st.Entries)
	}
}

func TestPanicInFillFailsWaiters(t *testing.T) {
	c := New[string](nil)
	started := make(chan struct{})
	release := make(chan struct{})
	go func() {
		defer func() { recover() }()
		c.Do("k", func() (string, int64, error) {
			close(started)
			<-release
			panic("kaboom")
		})
	}()
	<-started
	errc := make(chan error)
	go func() {
		_, err := c.Do("k", func() (string, int64, error) { return "late", 1, nil })
		errc <- err
	}()
	// Only release the panic once the waiter is provably blocked on the
	// in-flight entry, otherwise it would retry with its own fill.
	for c.Stats().Merged == 0 {
		runtime.Gosched()
	}
	close(release)
	if err := <-errc; err == nil || !strings.Contains(err.Error(), "aborted") {
		t.Errorf("waiter err = %v, want aborted", err)
	}
}

func TestStatsString(t *testing.T) {
	s := Stats{Hits: 3, Misses: 1, Merged: 0, Entries: 1, Bytes: 2048}
	out := s.String()
	for _, want := range []string{"3 hits", "1 misses", "75.0% reuse", "2.0 KiB"} {
		if !strings.Contains(out, want) {
			t.Errorf("Stats.String() = %q, missing %q", out, want)
		}
	}
}

// TestStatsStringZero pins the empty-cache rendering: with no lookups
// the reuse percentage must read 0.0%, never NaN%.
func TestStatsStringZero(t *testing.T) {
	got := Stats{}.String()
	if !strings.Contains(got, "0.0% reuse") || strings.Contains(got, "NaN") {
		t.Errorf("zero stats render %q, want 0.0%% reuse", got)
	}
}

// TestBypassCounting: bypassed lookups are counted but stay outside the
// reuse denominator, so a cache that only ever bypassed reads 0.0%.
func TestBypassCounting(t *testing.T) {
	c := New[int](nil)
	c.Bypass()
	c.Bypass()
	st := c.Stats()
	if st.Bypassed != 2 || st.Entries != 0 {
		t.Errorf("stats = %+v, want 2 bypassed", st)
	}
	if s := st.String(); !strings.Contains(s, "0.0% reuse") || !strings.Contains(s, "2 bypassed") || strings.Contains(s, "NaN") {
		t.Errorf("all-bypass stats render %q, want 0.0%% reuse and 2 bypassed", s)
	}
}
