// Command lintgate walks the static-analysis gate end to end: a test
// that bypasses the abstraction layer is caught by advm-vet, a release
// frozen with the violation in place is refused at the regression
// preflight, a targeted lint:disable suppression lets a reviewed
// exception through, and the regression then runs.
package main

import (
	"errors"
	"fmt"
	"log"

	"repro/advm"
)

// violating hardwires an NVM controller register address — exactly the
// practice the paper's Figure 2 prohibits.
const violating = `;; reads PAGESEL through a raw address
; REQ: REQ-NVM-001
.INCLUDE "Globals.inc"
test_main:
    LOAD d2, [0x80002014]
    CALL Base_Report_Pass
`

// suppressed is the same test after review: the annotation names the
// check it waives, on the one line it waives it.
const suppressed = `;; reads PAGESEL through a raw address (reviewed exception)
; REQ: REQ-NVM-001
.INCLUDE "Globals.inc"
test_main:
    LOAD d2, [0x80002014] ; lint:disable layer/raw-address
    CALL Base_Report_Pass
`

func withTest(src string) *advm.System {
	sys := advm.StandardSystem()
	e, _ := sys.Env("NVM")
	e.MustAddTest(advm.TestCell{ID: "TEST_NVM_RAWREAD", Source: src})
	return sys
}

func main() {
	log.SetFlags(0)

	// 1. The analyzer catches the violation.
	sys := withTest(violating)
	rep := advm.Vet(sys, advm.DefaultVetOptions())
	fmt.Printf("1. advm-vet on the dirty suite: %d error(s)\n", rep.Errors())
	for _, f := range rep.Findings {
		if f.Severity >= advm.SevError {
			fmt.Println("   " + f.String())
		}
	}

	// 2. Freezing the dirty suite succeeds (labels only hash content) —
	// but the regression preflight refuses to run it.
	sl, err := advm.FreezeSystem("R_DIRTY", sys)
	if err != nil {
		log.Fatal(err)
	}
	spec := advm.RegressionSpec{
		Derivatives: []*advm.Derivative{advm.DerivativeA()},
		Kinds:       []advm.Kind{advm.KindGolden},
		Modules:     []string{"NVM"},
	}
	_, err = advm.Regress(sys, sl, spec)
	var pe *advm.PreflightError
	if !errors.As(err, &pe) {
		log.Fatalf("expected a preflight refusal, got %v", err)
	}
	fmt.Printf("\n2. regression refused: %d blocking finding(s) at the preflight gate\n",
		pe.Report.Errors())

	// 3. After review, the one read is suppressed in place; the analyzer
	// records the waiver and the gate opens.
	sys = withTest(suppressed)
	sl, err = advm.FreezeSystem("R_REVIEWED", sys)
	if err != nil {
		log.Fatal(err)
	}
	regRep, err := advm.Regress(sys, sl, spec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n3. suppressed and re-frozen: %s\n", regRep.Summary())
	fmt.Printf("   preflight report: %d error(s), %d suppression(s) recorded\n",
		regRep.Vet.Errors(), regRep.Vet.Suppressed)
}
