package release

import (
	"bytes"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core/content"
	"repro/internal/core/env"
	"repro/internal/core/sysenv"
	"repro/internal/core/vet"
)

// countChecks replaces the analyzer Preflight runs with a wrapper that
// counts its runs, for the duration of the test.
func countChecks(t *testing.T, wrap func(s *sysenv.System, opts vet.Options) *vet.Report) *atomic.Int64 {
	t.Helper()
	var n atomic.Int64
	orig := check
	check = func(s *sysenv.System, opts vet.Options) *vet.Report {
		n.Add(1)
		if wrap != nil {
			return wrap(s, opts)
		}
		return orig(s, opts)
	}
	t.Cleanup(func() { check = orig })
	return &n
}

func reportJSON(t *testing.T, r *vet.Report) []byte {
	t.Helper()
	out, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestFreezeCoversEveryModule(t *testing.T) {
	s := content.PortedSystem()
	sl, err := Freeze("SYSREG_F", s)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range s.Modules() {
		if l := sl.Sub[m]; l == nil || l.Name != "SYSREG_F_"+m {
			t.Errorf("module %s: sub-label %+v, want SYSREG_F_%s", m, l, m)
		}
	}
	if err := sl.Verify(s); err != nil {
		t.Fatal(err)
	}
	again, err := Freeze("SYSREG_F", content.PortedSystem())
	if err != nil {
		t.Fatal(err)
	}
	if again.Epoch() != sl.Epoch() {
		t.Error("freezing the same content twice gave two epochs")
	}
}

// TestPreflightAnalysesOncePerLabel: eight concurrent gates on one label
// run the analyzer once, and every caller gets its own copy of the same
// report.
func TestPreflightAnalysesOncePerLabel(t *testing.T) {
	runs := countChecks(t, func(s *sysenv.System, opts vet.Options) *vet.Report {
		time.Sleep(20 * time.Millisecond) // keep the run in flight while the others arrive
		return vet.Check(s, opts)
	})
	s := content.PortedSystem()
	sl := freeze(t, "SYSREG_MEMO", s)
	const callers = 8
	reports := make([]*vet.Report, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := Preflight(s, sl, vet.NewOptions())
			if err != nil {
				t.Error(err)
			}
			reports[i] = r
		}(i)
	}
	wg.Wait()
	if n := runs.Load(); n != 1 {
		t.Fatalf("%d concurrent preflights ran the analyzer %d times, want 1", callers, n)
	}
	if n := sl.Analyses(); n != 1 {
		t.Errorf("label holds %d analyses, want 1", n)
	}
	want := reportJSON(t, reports[0])
	reports[0].Findings[0].Message = "scribbled by one caller"
	for i, r := range reports[1:] {
		if !bytes.Equal(reportJSON(t, r), want) {
			t.Errorf("caller %d got a different report, or shares one with another caller", i+1)
		}
	}
	// Certify on the same label and options reuses the analysis too.
	b, err := Certify(s, sl, vet.NewOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := runs.Load(); n != 1 {
		t.Errorf("certify after preflight ran the analyzer again (%d runs)", n)
	}
	if !bytes.Equal(reportJSON(t, b.Vet), want) {
		t.Error("certify sealed a different report than the gate produced")
	}
}

// TestPreflightKeysSystemNameAndCatalogue: one label's module content
// under a different system name, requirements catalogue or module subset
// is a different analysis input, and gets its own report.
func TestPreflightKeysSystemNameAndCatalogue(t *testing.T) {
	runs := countChecks(t, nil)
	s := content.PortedSystem()
	sl := freeze(t, "SYSREG_KEYS", s)
	renamed := s.Clone()
	renamed.Name = "OTHER_SYSTEM"
	extraReq := s.Clone()
	extraReq.SetRequirements(append(s.Requirements(), sysenv.Requirement{ID: "REQ-NEW-001", Title: "uncovered"}))
	subset := sysenv.New(s.Name)
	for _, e := range s.Envs()[1:] {
		if err := subset.AddEnv(e.Clone()); err != nil {
			t.Fatal(err)
		}
	}
	subset.SetRequirements(s.Requirements())

	for _, sys := range []*sysenv.System{s, renamed, extraReq, subset} {
		got, _ := Preflight(sys, sl, vet.NewOptions())
		if got == nil {
			t.Fatalf("%s: no report", sys.Name)
		}
		want := reportJSON(t, vet.Check(sys, vet.NewOptions()))
		if !bytes.Equal(reportJSON(t, got), want) {
			t.Errorf("system %s with %d modules and %d requirements: the label served another system's report",
				sys.Name, len(sys.Modules()), len(sys.Requirements()))
		}
	}
	if n := runs.Load(); n != 4 {
		t.Errorf("four distinct analysis inputs ran the analyzer %d times, want 4", n)
	}
	if n := sl.Analyses(); n != 4 {
		t.Errorf("label holds %d analyses, want 4", n)
	}
}

// TestPreflightVerifiesEveryCall: a memoised analysis never stands in
// for content that changed after the label was cut.
func TestPreflightVerifiesEveryCall(t *testing.T) {
	s := content.PortedSystem()
	sl := freeze(t, "SYSREG_DRIFT", s)
	if _, err := Preflight(s, sl, vet.NewOptions()); err != nil {
		t.Fatal(err)
	}
	e, _ := s.Env(content.ModuleNVM)
	e.MustAddTest(env.TestCell{ID: "TEST_NVM_LATE", Source: e.Tests()[0].Source})
	for i := 0; i < 2; i++ {
		r, err := Preflight(s, sl, vet.NewOptions())
		if err == nil || r != nil {
			t.Fatalf("call %d: drifted content passed preflight (report %v)", i+1, r != nil)
		}
		var pe *PreflightError
		if errors.As(err, &pe) {
			t.Fatalf("call %d: drift reported as analyzer findings: %v", i+1, err)
		}
	}
}

// TestMemoisedErrorReportStillRefuses: the second gate on a dirty label
// refuses with a *PreflightError as the first did, from the memo.
func TestMemoisedErrorReportStillRefuses(t *testing.T) {
	runs := countChecks(t, nil)
	s := withTest(t, env.TestCell{
		ID: "TEST_NVM_RAW",
		Source: `.INCLUDE "Globals.inc"
test_main:
    LOAD d0, 0x80002014
    CALL Base_Report_Pass
`,
	})
	sl := freeze(t, "SYSREG_DIRTY_MEMO", s)
	for i := 0; i < 2; i++ {
		r, err := Preflight(s, sl, vet.NewOptions())
		var pe *PreflightError
		if !errors.As(err, &pe) {
			t.Fatalf("call %d: error = %v, want *PreflightError", i+1, err)
		}
		if r == nil || r.Errors() == 0 || pe.Report.Errors() == 0 {
			t.Fatalf("call %d: refusal carries no error findings", i+1)
		}
	}
	if _, err := Certify(s, sl, vet.NewOptions(), nil); err == nil {
		t.Fatal("certify sealed a release the gate refused")
	}
	if n := runs.Load(); n != 1 {
		t.Errorf("analyzer ran %d times, want 1", n)
	}
}

// TestPreflightRetriesAfterAnalyzerPanic: a run that panics is not
// memoised; the next call analyses again.
func TestPreflightRetriesAfterAnalyzerPanic(t *testing.T) {
	var panicked atomic.Bool
	runs := countChecks(t, func(s *sysenv.System, opts vet.Options) *vet.Report {
		if panicked.CompareAndSwap(false, true) {
			panic("analyzer failure")
		}
		return vet.Check(s, opts)
	})
	s := content.PortedSystem()
	sl := freeze(t, "SYSREG_PANIC", s)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("analyzer panic did not reach the caller")
			}
		}()
		Preflight(s, sl, vet.NewOptions())
	}()
	if _, err := Preflight(s, sl, vet.NewOptions()); err != nil {
		t.Fatal(err)
	}
	if n := runs.Load(); n != 2 {
		t.Errorf("analyzer ran %d times, want 2 (the panic, then a fresh run)", n)
	}
	if n := sl.Analyses(); n != 1 {
		t.Errorf("label holds %d analyses, want 1", n)
	}
}
