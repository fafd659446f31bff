package regress

import (
	"strings"
	"testing"

	"repro/internal/core/buildcache"
	"repro/internal/core/content"
	"repro/internal/core/derivative"
	"repro/internal/core/journal"
	"repro/internal/core/runcache"
	"repro/internal/core/telemetry"
	"repro/internal/obj"
	"repro/internal/platform"
	"repro/internal/soc"
)

// panicKind is a test-only platform class whose Run always panics. It is
// outside the six paper kinds, so AllKinds never reports it.
const panicKind = platform.Kind(42)

func init() {
	platform.Register(panicKind, func(cfg soc.HWConfig) platform.Platform {
		return panicPlatform{}
	})
}

type panicPlatform struct{}

func (panicPlatform) Name() string          { return "panic/test" }
func (panicPlatform) Kind() platform.Kind   { return panicKind }
func (panicPlatform) Caps() platform.Caps   { return platform.Caps{} }
func (panicPlatform) SoC() *soc.SoC         { return nil }
func (panicPlatform) Load(*obj.Image) error { return nil }
func (panicPlatform) Run(platform.RunSpec) (*platform.Result, error) {
	panic("simulated platform crash")
}

// TestWorkerPanicRecordedAsBrokenCell: a panicking platform must not
// kill the regression — its cells are recorded as broken and every other
// cell still completes.
func TestWorkerPanicRecordedAsBrokenCell(t *testing.T) {
	s := content.PortedSystem()
	sl := freeze(t, s)
	rep, err := Run(s, sl, Spec{
		Derivatives: []*derivative.Derivative{derivative.A()},
		Kinds:       []platform.Kind{panicKind, platform.KindGolden},
		Modules:     []string{"NVM"},
		Workers:     4,
	})
	if err != nil {
		t.Fatal(err)
	}
	var broken, passed int
	for _, o := range rep.Outcomes {
		switch o.Platform {
		case panicKind:
			if !strings.Contains(o.BuildErr, "panic: simulated platform crash") {
				t.Errorf("panic cell not diagnosed: %+v", o)
			}
			if o.Passed {
				t.Error("panicked cell marked passed")
			}
			broken++
		case platform.KindGolden:
			if o.Passed {
				passed++
			}
		}
	}
	if broken == 0 || passed == 0 {
		t.Errorf("broken=%d passed=%d: panic kind should break, golden should pass", broken, passed)
	}
	if _, _, b := rep.Counts(); b != broken {
		t.Errorf("Counts broken = %d, want %d", b, broken)
	}
}

// TestBuildRunTimingRecorded: every completed cell reports its build and
// run time split.
func TestBuildRunTimingRecorded(t *testing.T) {
	s := content.PortedSystem()
	sl := freeze(t, s)
	rep, err := Run(s, sl, Spec{
		Derivatives: []*derivative.Derivative{derivative.A()},
		Kinds:       []platform.Kind{platform.KindGolden},
		Modules:     []string{"NVM"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range rep.Outcomes {
		if o.BuildNanos <= 0 {
			t.Errorf("%s/%s: BuildNanos = %d", o.Module, o.Test, o.BuildNanos)
		}
		if o.RunNanos <= 0 {
			t.Errorf("%s/%s: RunNanos = %d", o.Module, o.Test, o.RunNanos)
		}
	}
	kts := rep.TimesByKind()
	if len(kts) != 1 || kts[0].Kind != platform.KindGolden || kts[0].Cells != len(rep.Outcomes) {
		t.Errorf("TimesByKind = %+v", kts)
	}
	if kts[0].BuildNanos <= 0 || kts[0].RunNanos <= 0 {
		t.Errorf("aggregated times missing: %+v", kts[0])
	}
	table := rep.Table()
	for _, want := range []string{"build_ms", "run_ms"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
	var sb strings.Builder
	if err := rep.WriteJUnit(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"time=", "build_time=", "run_time="} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("junit missing %q", want)
		}
	}
}

// TestCachedRegressionMatchesUncached: same verdicts with the cache on
// and off, and a second cached run is all image hits.
func TestCachedRegressionMatchesUncached(t *testing.T) {
	s := content.PortedSystem()
	sl := freeze(t, s)
	spec := Spec{
		Derivatives: derivative.Family(),
		Kinds:       []platform.Kind{platform.KindGolden},
		Workers:     8,
	}
	plain, err := Run(s, sl, spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Cache = buildcache.New()
	cached, err := Run(s, sl, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Outcomes) != len(cached.Outcomes) {
		t.Fatalf("outcome counts differ: %d vs %d", len(plain.Outcomes), len(cached.Outcomes))
	}
	for i := range plain.Outcomes {
		p, c := plain.Outcomes[i], cached.Outcomes[i]
		if p.Passed != c.Passed || p.Reason != c.Reason || p.MboxResult != c.MboxResult ||
			p.Cycles != c.Cycles || p.Insts != c.Insts || p.BuildErr != c.BuildErr {
			t.Errorf("cell %d differs: %+v vs %+v", i, p, c)
		}
	}
	missesAfterFirst := spec.Cache.Stats().Misses
	warm, err := Run(s, sl, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.AllPassed() {
		t.Error("warm regression failed")
	}
	if got := spec.Cache.Stats().Misses; got != missesAfterFirst {
		t.Errorf("warm regression caused %d new misses", got-missesAfterFirst)
	}
}

// sharedCacheSpec is one small matrix over a build cache and a run cache
// that every run of it shares, as advm.NewBuildCache recommends.
func sharedCacheSpec() Spec {
	return Spec{
		Derivatives: []*derivative.Derivative{derivative.A()},
		Kinds:       []platform.Kind{platform.KindGolden},
		Modules:     []string{"NVM"},
		SkipVet:     true,
		Cache:       buildcache.New(),
		RunCache:    runcache.New(),
	}
}

// TestSharedCacheMetricsStayWithTheirRun: a run's registry receives its
// own cache lookups only — a later run over the same caches neither
// keeps counting into the finished run's registry nor inherits its
// counts.
func TestSharedCacheMetricsStayWithTheirRun(t *testing.T) {
	s := content.PortedSystem()
	sl := freeze(t, s)
	spec := sharedCacheSpec()
	first := telemetry.NewRegistry()
	spec.Metrics = first
	rep, err := Run(s, sl, spec)
	if err != nil {
		t.Fatal(err)
	}
	before := first.Snapshot().Counters
	if before["runcache.misses"] != uint64(len(rep.Outcomes)) {
		t.Fatalf("first run counted %d run-cache misses, want %d", before["runcache.misses"], len(rep.Outcomes))
	}
	spec.Metrics = nil
	if _, err := Run(s, sl, spec); err != nil {
		t.Fatal(err)
	}
	for name, n := range first.Snapshot().Counters {
		if n != before[name] {
			t.Errorf("a later run moved the finished run's %s from %d to %d", name, before[name], n)
		}
	}
	spec.Metrics = telemetry.NewRegistry()
	if _, err := Run(s, sl, spec); err != nil {
		t.Fatal(err)
	}
	got := spec.Metrics.Snapshot().Counters
	if got["runcache.hits"] != uint64(len(rep.Outcomes)) || got["runcache.misses"] != 0 || got["buildcache.misses"] != 0 {
		t.Errorf("warm run counted %d run hits, %d run misses, %d build misses; want %d, 0, 0",
			got["runcache.hits"], got["runcache.misses"], got["buildcache.misses"], len(rep.Outcomes))
	}
}

// TestJournalEndReportsOwnLookups: the end record of a run served
// entirely from a shared run cache reports that run's hits, not the
// misses an earlier run paid.
func TestJournalEndReportsOwnLookups(t *testing.T) {
	s := content.PortedSystem()
	sl := freeze(t, s)
	spec := sharedCacheSpec()
	rep, err := Run(s, sl, spec)
	if err != nil {
		t.Fatal(err)
	}
	sink := &collectSink{}
	spec.Journal = sink
	if _, err := Run(s, sl, spec); err != nil {
		t.Fatal(err)
	}
	end := sink.byKind(journal.KindEnd)
	if len(end) != 1 {
		t.Fatalf("end records = %d, want 1", len(end))
	}
	if e := end[0]; e.RunHits != uint64(len(rep.Outcomes)) || e.RunMiss != 0 || e.BuildHits != 0 || e.BuildMiss != 0 {
		t.Errorf("warm run's end record: run %d hits/%d misses, build %d hits/%d misses; want %d/0, 0/0",
			e.RunHits, e.RunMiss, e.BuildHits, e.BuildMiss, len(rep.Outcomes))
	}
}
