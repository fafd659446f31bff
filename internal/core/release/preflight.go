package release

import (
	"fmt"

	"repro/internal/core/buildcache"
	"repro/internal/core/memo"
	"repro/internal/core/sysenv"
	"repro/internal/core/vet"
)

// PreflightError reports that a frozen system carries error-severity
// analyzer findings and must not be regressed until they are fixed (or
// explicitly suppressed in the offending tests).
type PreflightError struct {
	Report *vet.Report
}

func (e *PreflightError) Error() string {
	n := e.Report.Errors()
	msg := fmt.Sprintf("release: preflight failed: %d error-severity finding(s)", n)
	for _, f := range e.Report.Findings {
		if f.Severity >= vet.SevError {
			msg += "\n  " + f.String()
		}
	}
	return msg
}

// check is the analyzer Preflight runs; tests substitute it to count
// runs.
var check = vet.Check

// Preflight verifies a system against its frozen label and then runs the
// static analyzer over it. The analyzer report is returned either way;
// the error is a *PreflightError when any finding has error severity.
// This is the gate a regression passes through before the matrix is
// enumerated: a release that bypasses the abstraction layer is broken by
// construction, however green its runs are today.
//
// The report is a deterministic function of the frozen content, so the
// label memoises it: the analyzer runs once per distinct analysis input
// (see analysisKey) on a label, however many gates, certifications and
// concurrent callers ask. Verify and the error-severity check still run
// on every call, and every caller gets its own copy of the report. A
// caller waiting on an analysis that panics gets an error; the next call
// analyses afresh.
func Preflight(s *sysenv.System, sl *SystemLabel, opts vet.Options) (*vet.Report, error) {
	if err := sl.Verify(s); err != nil {
		return nil, err
	}
	r, err := sl.reports().Do(analysisKey(s, opts), func() (*vet.Report, int64, error) {
		return check(s, opts), 0, nil
	})
	if err != nil {
		return nil, err
	}
	if r.Errors() > 0 {
		return r, &PreflightError{Report: r}
	}
	return r, nil
}

// analysisKey names what the report depends on beyond the module content
// a verified label pins: the system name and module set, the requirement
// catalogue the traceability pass checks, and the normalised options.
func analysisKey(s *sysenv.System, opts vet.Options) string {
	parts := []string{"vet", s.Name, opts.Key()}
	for _, m := range s.Modules() {
		parts = append(parts, "module", m)
	}
	for _, r := range s.Requirements() {
		parts = append(parts, "req", r.ID, r.Title)
	}
	return buildcache.Key(parts...)
}

// reports returns the label's analyzer-report table, one report per
// analysis key, each caller receiving its own copy.
func (sl *SystemLabel) reports() *memo.Cache[*vet.Report] {
	sl.once.Do(func() { sl.analyses = memo.New((*vet.Report).Clone) })
	return sl.analyses
}

// Analyses reports how many analyzer reports the label holds: one per
// distinct analysis input it was preflighted with.
func (sl *SystemLabel) Analyses() int {
	return sl.reports().Stats().Entries
}
