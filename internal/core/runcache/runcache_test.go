package runcache

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/obj"
	"repro/internal/platform"
	"repro/internal/soc"
)

func res(code uint32) *platform.Result {
	return &platform.Result{
		Reason:      platform.StopHalt,
		MboxResult:  code,
		MboxDone:    true,
		Cycles:      1234,
		Checkpoints: []uint32{1, 2, 3},
		State:       &platform.ArchState{PC: 0x40, D: [16]uint32{code}},
	}
}

func TestDoCachesAndDeepCopies(t *testing.T) {
	c := New()
	runs := 0
	fill := func() (*platform.Result, error) { runs++; return res(0x600D), nil }

	r1, cached, err := c.Do("k", fill)
	if err != nil || cached {
		t.Fatalf("first Do: cached=%v err=%v", cached, err)
	}
	r2, cached, err := c.Do("k", fill)
	if err != nil || !cached {
		t.Fatalf("second Do: cached=%v err=%v", cached, err)
	}
	if runs != 1 {
		t.Fatalf("run executed %d times", runs)
	}
	// Mutating one caller's copy must not corrupt the cache or other
	// callers (triage and the regress runner annotate results in place).
	r1.Checkpoints[0] = 99
	r1.State.PC = 0xdead
	r1.MboxResult = 0
	if r2.Checkpoints[0] != 1 || r2.State.PC != 0x40 || r2.MboxResult != 0x600D {
		t.Fatal("cached result shares memory with a caller's copy")
	}
	r3, _, _ := c.Do("k", fill)
	if r3.Checkpoints[0] != 1 || r3.State.PC != 0x40 {
		t.Fatal("cache entry was corrupted by caller mutation")
	}

	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v", st)
	}
	if !strings.Contains(st.String(), "2 hits") {
		t.Errorf("stats string: %s", st.String())
	}
}

// TestDoSingleflight: concurrent callers of one key share one run, and
// exactly one of them — the one that ran it — reports an uncached outcome.
func TestDoSingleflight(t *testing.T) {
	c := New()
	var runs, uncached atomic.Int64
	gate := make(chan struct{})
	const callers = 16
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, cached, err := c.Do("shared", func() (*platform.Result, error) {
				<-gate
				runs.Add(1)
				return res(0x600D), nil
			})
			if err != nil || r.MboxResult != 0x600D {
				t.Errorf("Do: %v %+v", err, r)
			}
			if !cached {
				uncached.Add(1)
			}
		}()
	}
	close(gate)
	wg.Wait()
	if got := runs.Load(); got != 1 {
		t.Fatalf("run executed %d times, want 1", got)
	}
	if got := uncached.Load(); got != 1 {
		t.Errorf("%d callers reported an uncached outcome, want 1", got)
	}
	st := c.Stats()
	if st.Hits+st.Merged != callers-1 || st.Misses != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestDoCachesErrors(t *testing.T) {
	c := New()
	boom := errors.New("platform wedged")
	runs := 0
	for i := 0; i < 2; i++ {
		_, _, err := c.Do("k", func() (*platform.Result, error) { runs++; return nil, boom })
		if !errors.Is(err, boom) {
			t.Fatalf("call %d: err = %v", i, err)
		}
	}
	if runs != 1 {
		t.Fatalf("failed run executed %d times, want 1 (errors are deterministic too)", runs)
	}
}

func TestDoPanicDropsEntry(t *testing.T) {
	c := New()
	func() {
		defer func() { recover() }()
		c.Do("k", func() (*platform.Result, error) { panic("injected") })
	}()
	r, cached, err := c.Do("k", func() (*platform.Result, error) { return res(7), nil })
	if err != nil || cached || r.MboxResult != 7 {
		t.Fatalf("retry after panic: r=%+v cached=%v err=%v", r, cached, err)
	}
}

func TestCacheable(t *testing.T) {
	want := map[platform.Kind]bool{
		platform.KindGolden:   true,
		platform.KindRTL:      true,
		platform.KindGate:     true,
		platform.KindEmulator: false,
		platform.KindBondout:  false,
		platform.KindSilicon:  false,
	}
	for k, w := range want {
		if Cacheable(k) != w {
			t.Errorf("Cacheable(%s) = %v, want %v", k, !w, w)
		}
	}
}

func img(entry uint32, data ...byte) *obj.Image {
	return &obj.Image{
		Entry:    entry,
		Segments: []obj.Segment{{Addr: 0, Data: data}},
	}
}

func TestImageHashAndOutcomeKey(t *testing.T) {
	a := img(0, 1, 2, 3)
	b := img(0, 1, 2, 3)
	cDiff := img(0, 1, 2, 4)
	if ImageHash(a) != ImageHash(b) {
		t.Error("identical images hash differently")
	}
	if ImageHash(a) == ImageHash(cDiff) {
		t.Error("different contents share a hash")
	}

	hw := soc.DefaultConfig()
	hw2 := hw
	hw2.RamWait = 7
	base := OutcomeKey("e", "m", "t", "d", platform.KindRTL, hw, platform.RunSpec{})
	if OutcomeKey("e", "m", "t", "d", platform.KindRTL, hw, platform.RunSpec{}) != base {
		t.Error("key is not deterministic")
	}
	for name, k := range map[string]string{
		"epoch":           OutcomeKey("e2", "m", "t", "d", platform.KindRTL, hw, platform.RunSpec{}),
		"module":          OutcomeKey("e", "m2", "t", "d", platform.KindRTL, hw, platform.RunSpec{}),
		"test":            OutcomeKey("e", "m", "t2", "d", platform.KindRTL, hw, platform.RunSpec{}),
		"derivative":      OutcomeKey("e", "m", "t", "d2", platform.KindRTL, hw, platform.RunSpec{}),
		"platform kind":   OutcomeKey("e", "m", "t", "d", platform.KindGate, hw, platform.RunSpec{}),
		"hardware config": OutcomeKey("e", "m", "t", "d", platform.KindRTL, hw2, platform.RunSpec{}),
		"run bounds":      OutcomeKey("e", "m", "t", "d", platform.KindRTL, hw, platform.RunSpec{MaxInstructions: 5}),
	} {
		if k == base {
			t.Errorf("key must depend on %s", name)
		}
	}
}

// TestStatsStringZero pins the all-bypass/empty-matrix rendering: with
// no lookups at all the reuse percentage must read 0.0%, never NaN%.
func TestStatsStringZero(t *testing.T) {
	c := New()
	got := c.Stats().String()
	if !strings.Contains(got, "0.0% reuse") {
		t.Errorf("zero stats render %q, want 0.0%% reuse", got)
	}
	if strings.Contains(got, "NaN") {
		t.Errorf("zero stats render NaN: %q", got)
	}
	// A fresh cache that only ever bypassed must render the same way.
	c.Bypass()
	if s := c.Stats().String(); !strings.Contains(s, "0.0% reuse") || strings.Contains(s, "NaN") {
		t.Errorf("all-bypass stats render %q, want 0.0%% reuse", s)
	}
}

// TestKeysEngineAgnostic pins the purity contract documented on
// OutcomeKey: execution engines are bit-identical, so the engine knob
// must NOT reach the cache key — a result computed under one engine is
// served to runs requesting any other.
func TestKeysEngineAgnostic(t *testing.T) {
	hw := soc.DefaultConfig()
	engines := []platform.Engine{
		platform.EngineDefault, platform.EngineInterp,
		platform.EnginePredecode, platform.EngineTranslate,
	}
	key := func(e platform.Engine) string {
		return OutcomeKey("e", "m", "t", "d", platform.KindGolden, hw, platform.RunSpec{Engine: e})
	}
	for _, e := range engines[1:] {
		if key(e) != key(engines[0]) {
			t.Errorf("OutcomeKey depends on engine %v", e)
		}
	}

	// End to end: an outcome cached under one engine's run answers a
	// request made with another engine selected, without re-running.
	c := New()
	runs := 0
	r1, hit1, err := c.Do(key(platform.EngineInterp), func() (*platform.Result, error) { runs++; return res(0xCAFE), nil })
	if err != nil || hit1 {
		t.Fatalf("first Do: hit=%v err=%v", hit1, err)
	}
	r2, hit2, err := c.Do(key(platform.EngineTranslate), func() (*platform.Result, error) { runs++; return res(0xDEAD), nil })
	if err != nil || !hit2 {
		t.Fatalf("cross-engine Do: hit=%v err=%v", hit2, err)
	}
	if runs != 1 {
		t.Errorf("cross-engine request re-ran: %d runs", runs)
	}
	if r1.MboxResult != r2.MboxResult {
		t.Errorf("cached outcome differs across engines: %#x vs %#x", r1.MboxResult, r2.MboxResult)
	}
}
