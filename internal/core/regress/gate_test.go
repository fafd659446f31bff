package regress

import (
	"errors"
	"testing"

	"repro/internal/core/content"
	"repro/internal/core/derivative"
	"repro/internal/core/env"
	"repro/internal/core/release"
	"repro/internal/core/sysenv"
	"repro/internal/core/vet"
	"repro/internal/platform"
)

// dirtySystem is the shipped system plus one abstraction-bypassing test.
func dirtySystem(t *testing.T) *sysenv.System {
	t.Helper()
	s := content.PortedSystem()
	sys := sysenv.New("SYS")
	for _, m := range s.Modules() {
		e, _ := s.Env(m)
		if m == content.ModuleNVM {
			e = e.Clone()
			e.MustAddTest(env.TestCell{
				ID: "TEST_NVM_RAW",
				Source: `.INCLUDE "Globals.inc"
test_main:
    LOAD d0, 0x80002014
    CALL Base_Report_Pass
`,
			})
		}
		if err := sys.AddEnv(e); err != nil {
			t.Fatal(err)
		}
	}
	return sys
}

func TestRegressionVetGate(t *testing.T) {
	s := dirtySystem(t)
	sl := freeze(t, s)
	spec := Spec{
		Derivatives: []*derivative.Derivative{derivative.A()},
		Kinds:       []platform.Kind{platform.KindGolden},
	}
	_, err := Run(s, sl, spec)
	if err == nil {
		t.Fatal("regression of a dirty frozen system must be refused")
	}
	var pe *release.PreflightError
	if !errors.As(err, &pe) {
		t.Fatalf("error type = %T, want *release.PreflightError in the chain", err)
	}

	// SkipVet runs the matrix anyway (the escape hatch) and records no
	// analyzer report.
	spec.SkipVet = true
	rep, err := Run(s, sl, spec)
	if err != nil {
		t.Fatalf("SkipVet run failed: %v", err)
	}
	if rep.Vet != nil {
		t.Error("SkipVet run still attached a vet report")
	}
}

// TestCertificationOptionsGateEveryDerivative: a gate narrowed to the
// matrix's derivatives passes a release whose only error is a stack
// overflow on SC88-SEC (half the others' stack budget); the same gate
// with the certification options — what advm-regress -bundle sets —
// refuses it before any cell runs.
func TestCertificationOptionsGateEveryDerivative(t *testing.T) {
	s := content.PortedSystem()
	e, _ := s.Env(content.ModuleNVM)
	e.MustAddTest(env.TestCell{
		ID: "TEST_NVM_DEEP_FRAME",
		Source: `; REQ: REQ-NVM-001
.INCLUDE "Globals.inc"
FRAME .EQU 3000
test_main:
    LEAO sp, sp, -FRAME
    LEAO sp, sp, FRAME
    CALL Base_Report_Pass
`,
	})
	sl := freeze(t, s)
	spec := Spec{
		Derivatives: []*derivative.Derivative{derivative.A()},
		Kinds:       []platform.Kind{platform.KindGolden},
		Modules:     []string{content.ModuleNVM},
		Tests:       []string{"TEST_NVM_DEEP_FRAME"},
	}
	rep, err := Run(s, sl, spec)
	if err != nil {
		t.Fatalf("gate narrowed to SC88-A refused: %v", err)
	}
	if len(rep.Outcomes) != 1 {
		t.Fatalf("narrowed run produced %d outcomes, want 1", len(rep.Outcomes))
	}
	certOpts := vet.NewOptions()
	spec.VetOptions = &certOpts
	_, err = Run(s, sl, spec)
	var pe *release.PreflightError
	if !errors.As(err, &pe) {
		t.Fatalf("certification-options gate: error = %v, want *release.PreflightError", err)
	}
	overflow := pe.Report.ByCheck(vet.CheckStackOverflow)
	if len(overflow) != 1 || overflow[0].Variant != "SC88-SEC" {
		t.Errorf("refusal findings %v, want one %s on SC88-SEC", overflow, vet.CheckStackOverflow)
	}
}

func TestRegressionAttachesVetReport(t *testing.T) {
	s := content.PortedSystem()
	sl := freeze(t, s)
	rep, err := Run(s, sl, Spec{
		Derivatives: []*derivative.Derivative{derivative.A()},
		Kinds:       []platform.Kind{platform.KindGolden},
		Modules:     []string{content.ModuleNVM},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Vet == nil {
		t.Fatal("vet report not attached to the regression report")
	}
	if rep.Vet.Errors() != 0 {
		t.Errorf("clean system reported %d analyzer errors", rep.Vet.Errors())
	}
	if len(rep.Vet.Findings) == 0 {
		t.Error("expected informational findings on the shipped suite")
	}
}
