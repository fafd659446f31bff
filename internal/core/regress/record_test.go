package regress

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/core/content"
	"repro/internal/core/derivative"
	"repro/internal/core/journal"
	"repro/internal/core/release"
	"repro/internal/core/resilience"
	"repro/internal/core/sysenv"
	"repro/internal/core/telemetry"
	"repro/internal/flaky"
	"repro/internal/platform"
	"repro/internal/soc"

	_ "repro/internal/bondout"
)

// TestOutcomeRecordReadsBack: over a real matrix with passed, failed,
// flaky and broken cells, every outcome's record reads back to the
// fields a served reply carries — all but BackoffNanos, Quarantined and
// Triage — with a broken cell's detail spelled as the bundle spells it,
// empty beside its build error.
func TestOutcomeRecordReadsBack(t *testing.T) {
	s := content.PortedSystem()
	sl := freeze(t, s)
	// One fault regime per physical rung: emulator cells fail once and
	// then pass (flaky), bondout cells never get past a transient fault
	// (broken), silicon cells lose their mailbox verdict on every run
	// (failed); golden cells pass.
	harness := map[platform.Kind]*flaky.Harness{
		platform.KindEmulator: flaky.New(flaky.Plan{Fault: flaky.FaultTransient, FailFirst: 1}),
		platform.KindBondout:  flaky.New(flaky.Plan{Fault: flaky.FaultTransient, FailFirst: 1000}),
		platform.KindSilicon:  flaky.New(flaky.Plan{Fault: flaky.FaultDropMbox, FailFirst: 1000}),
	}
	rep, err := Run(s, sl, Spec{
		Derivatives: []*derivative.Derivative{derivative.A()},
		Kinds: []platform.Kind{platform.KindGolden, platform.KindEmulator,
			platform.KindBondout, platform.KindSilicon},
		Modules: []string{"NVM"},
		Retry:   resilience.RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Millisecond},
		NewPlatform: func(k platform.Kind, hw soc.HWConfig) (platform.Platform, error) {
			if h := harness[k]; h != nil {
				return h.NewPlatform(k, hw)
			}
			return platform.New(k, hw)
		},
		SkipVet: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for _, o := range rep.Outcomes {
		seen[o.Status()]++
		want := o
		want.BackoffNanos, want.Quarantined, want.Triage = 0, false, nil
		if want.BuildErr != "" {
			want.Detail = ""
		}
		got, err := OutcomeFromRecord(o.Record())
		if err != nil {
			t.Fatalf("%s/%s on %s: %v", o.Module, o.Test, o.Platform, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s/%s on %s reads back as\n%+v\nwant\n%+v", o.Module, o.Test, o.Platform, got, want)
		}
	}
	for _, status := range []string{journal.StatusPassed, journal.StatusFailed, journal.StatusFlaky, journal.StatusBroken} {
		if seen[status] == 0 {
			t.Errorf("the matrix has no %s cell: %v", status, seen)
		}
	}
}

// TestOutcomeFromRecordRefusesMalformed: a record whose status is not a
// verdict, or disagrees with its build error, or that is not an outcome
// at all, does not read back as some other verdict.
func TestOutcomeFromRecordRefusesMalformed(t *testing.T) {
	ok := journal.Record{Kind: journal.KindOutcome, Module: "M", Test: "T", Deriv: "d",
		Platform: "golden", Status: journal.StatusPassed}
	if _, err := OutcomeFromRecord(ok); err != nil {
		t.Fatalf("well-formed record refused: %v", err)
	}
	for name, mutate := range map[string]func(*journal.Record){
		"unknown status":          func(r *journal.Record) { r.Status = "maybe" },
		"broken without a reason": func(r *journal.Record) { r.Status = journal.StatusBroken },
		"passed with a reason":    func(r *journal.Record) { r.BuildErr = "link failed" },
		"not an outcome":          func(r *journal.Record) { r.Kind = journal.KindStart },
		"unknown platform":        func(r *journal.Record) { r.Platform = "abacus" },
	} {
		r := ok
		mutate(&r)
		if o, err := OutcomeFromRecord(r); err == nil {
			t.Errorf("%s: read back as %+v", name, o)
		}
	}
}

// TestConcurrentRunsCountOwnEngineWork: two regressions running at once
// in one process, each with its own registry, each count exactly the
// engine work of their own cells — what each counts when run alone.
func TestConcurrentRunsCountOwnEngineWork(t *testing.T) {
	type frozen struct {
		sys   *sysenv.System
		label *release.SystemLabel
	}
	kinds := []platform.Kind{platform.KindGolden, platform.KindRTL}
	run := func(k platform.Kind, f frozen) ([2]uint64, error) {
		m := telemetry.NewRegistry()
		_, err := Run(f.sys, f.label, Spec{
			Derivatives: []*derivative.Derivative{derivative.A()},
			Kinds:       []platform.Kind{k},
			Metrics:     m,
			SkipVet:     true,
		})
		return [2]uint64{m.Counter("predecode.fetches").Value(),
			m.Counter("translate.blocks_executed").Value()}, err
	}
	systems := make([]frozen, len(kinds))
	for i := range systems {
		s := content.PortedSystem()
		systems[i] = frozen{s, freeze(t, s)}
	}
	alone := make([][2]uint64, len(kinds))
	for i, k := range kinds {
		var err error
		if alone[i], err = run(k, systems[i]); err != nil {
			t.Fatal(err)
		}
	}
	if alone[0][0] == 0 || alone[0][1] == 0 || alone[1][0] == 0 {
		t.Fatalf("alone, golden counted %v and rtl %v: want predecode fetches on both and blocks on golden",
			alone[0], alone[1])
	}
	together := make([][2]uint64, len(kinds))
	errs := make([]error, len(kinds))
	var wg sync.WaitGroup
	for i, k := range kinds {
		wg.Add(1)
		go func(i int, k platform.Kind) {
			defer wg.Done()
			together[i], errs[i] = run(k, systems[i])
		}(i, k)
	}
	wg.Wait()
	for i, k := range kinds {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if together[i] != alone[i] {
			t.Errorf("%s run beside another counted predecode.fetches, translate.blocks_executed = %v, alone %v",
				k, together[i], alone[i])
		}
	}
}
