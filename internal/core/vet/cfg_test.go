package vet

import (
	"testing"

	"repro/internal/core/content"
	"repro/internal/core/derivative"
	"repro/internal/core/env"
	"repro/internal/obj"
	"repro/internal/platform"
)

// cfgCheck runs Check on the shipped system plus one injected NVM test
// and returns that test's findings.
func cfgCheck(t *testing.T, src string) []Finding {
	t.Helper()
	sys := injectTest(t, content.ModuleNVM, env.TestCell{ID: "TEST_NVM_CFG", Source: src})
	return findingsFor(Check(sys, NewOptions()), "TEST_NVM_CFG")
}

func TestCFGCleanIdiom(t *testing.T) {
	// The shipped branch-to-fail idiom: everything reachable, epilogue on
	// both arms, no RET.
	fs := cfgCheck(t, `.INCLUDE "Globals.inc"
test_main:
    LOAD d0, 1
    BNE d0, d0, t_fail
    CALL Base_Report_Pass
t_fail:
    CALL Base_Report_Fail
`)
	for _, f := range fs {
		if f.Check == CheckUnreachable || f.Check == CheckFallThrough ||
			f.Check == CheckCallImbalance || f.Check == CheckNoEpilogue {
			t.Errorf("clean idiom produced CFG finding: %s", f)
		}
	}
}

func TestCFGUnreachable(t *testing.T) {
	fs := cfgCheck(t, `.INCLUDE "Globals.inc"
test_main:
    CALL Base_Report_Pass
never:
    LOAD d0, 1
    CALL Base_Report_Fail
`)
	got := countByCheck(fs)
	if got[CheckUnreachable] != 1 {
		t.Fatalf("unreachable count = %d, want 1; findings: %v", got[CheckUnreachable], fs)
	}
	for _, f := range fs {
		if f.Check != CheckUnreachable {
			continue
		}
		// Points at the first unreachable instruction and names the label.
		if f.Line != 5 {
			t.Errorf("unreachable finding at line %d, want 5", f.Line)
		}
		if want := "unreachable code at never"; len(f.Message) < len(want) || f.Message[:len(want)] != want {
			t.Errorf("message does not name the label: %q", f.Message)
		}
	}
}

func TestCFGAddressTakenLabelIsReachable(t *testing.T) {
	// A handler installed by materialising its address must count as a
	// CFG root even though nothing jumps to it.
	fs := cfgCheck(t, `.INCLUDE "Globals.inc"
test_main:
    LOAD d1, my_handler
    CALL Base_Report_Pass
my_handler:
    RFE
`)
	if got := countByCheck(fs)[CheckUnreachable]; got != 0 {
		t.Errorf("address-taken handler flagged unreachable: %v", fs)
	}
}

func TestCFGFallThrough(t *testing.T) {
	fs := cfgCheck(t, `.INCLUDE "Globals.inc"
test_main:
    LOAD d0, 1
    LOAD d1, 2
`)
	got := countByCheck(fs)
	if got[CheckFallThrough] != 1 {
		t.Errorf("fall-through count = %d, want 1; findings: %v", got[CheckFallThrough], fs)
	}
}

func TestCFGCallImbalance(t *testing.T) {
	// A reachable RET after a reachable CALL with ra never saved
	// re-enters the callee.
	fs := cfgCheck(t, `.INCLUDE "Globals.inc"
test_main:
    CALL Base_Nvm_Unlock
    BNE d0, d1, t_out
    CALL Base_Report_Pass
t_out:
    RET
`)
	if got := countByCheck(fs)[CheckCallImbalance]; got != 1 {
		t.Errorf("call-imbalance count = %d, want 1; findings: %v", got, fs)
	}
	// Saving ra exonerates the RET.
	fs = cfgCheck(t, `.INCLUDE "Globals.inc"
test_main:
    PUSH ra
    CALL Base_Nvm_Unlock
    POP ra
    BNE d0, d1, t_out
    CALL Base_Report_Pass
t_out:
    RET
`)
	if got := countByCheck(fs)[CheckCallImbalance]; got != 0 {
		t.Errorf("saved-ra test still flagged: %v", fs)
	}
}

func TestCFGNoEpilogue(t *testing.T) {
	fs := cfgCheck(t, `.INCLUDE "Globals.inc"
test_main:
    LOAD d0, 1
    HALT
`)
	if got := countByCheck(fs)[CheckNoEpilogue]; got != 1 {
		t.Errorf("no-epilogue count = %d, want 1; findings: %v", got, fs)
	}
	// A direct mailbox store is an epilogue too (the baseline idiom).
	fs = cfgCheck(t, `.INCLUDE "Globals.inc"
test_main:
    LOAD d15, 0x600D ; lint:disable layer/magic-value
    STORE [0x80000000], d15 ; lint:disable layer/raw-address
    HALT
`)
	if got := countByCheck(fs)[CheckNoEpilogue]; got != 0 {
		t.Errorf("mailbox-store epilogue still flagged: %v", fs)
	}
}

func TestNoreturnFixpoint(t *testing.T) {
	s := content.PortedSystem()
	e, _ := s.Env(content.ModuleNVM)
	noreturn := noreturnFuncs(newUnitTable(s, derivative.A(), platform.KindGolden), e)
	if !noreturn["Base_Report_Pass"] || !noreturn["Base_Report_Fail"] {
		t.Errorf("reporting functions not detected noreturn: %v", noreturn)
	}
	if noreturn["Base_Nvm_Unlock"] || noreturn["Base_Nvm_Wait_Ready"] {
		t.Errorf("returning functions misclassified noreturn: %v", noreturn)
	}
}

// FuzzCFGDecode drives the CFG decoder and reachability walk with
// arbitrary text sections: it must never panic or loop, whatever bytes
// it is handed.
func FuzzCFGDecode(f *testing.F) {
	// Seed with real assembled text from the shipped suite.
	s := content.PortedSystem()
	d := derivative.A()
	tree := s.Materialise(d)
	for _, e := range s.Envs() {
		for _, t := range e.Tests() {
			o, err := assembleUnit(tree, e.Module, e.TestSourcePath(t.ID), t.Source, d, platform.KindGolden)
			if err == nil {
				f.Add(o.Text)
			}
			break // one test per module is plenty of seed variety
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x00, 0x00, 0x00})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x01, 0x02, 0x03})
	f.Fuzz(func(t *testing.T, text []byte) {
		u, err := decodeUnit(&obj.Object{Text: text})
		if err != nil {
			return
		}
		reached, _ := u.reach(map[string]bool{"X": true})
		if len(reached) != len(u.insts) {
			t.Fatalf("reach sized %d for %d instructions", len(reached), len(u.insts))
		}
	})
}

func TestCFGSuperblockHostile(t *testing.T) {
	// mid is address-taken (materialised into d1 for a computed jump)
	// but sits in the middle of a straight-line run: the instruction
	// before it falls through and no branch targets it, so a JI through
	// d1 would enter mid-superblock.
	fs := cfgCheck(t, `.INCLUDE "Globals.inc"
test_main:
    LOAD d0, 1
    LOAD d1, mid
    ADD d0, d0, 1
mid:
    ADD d0, d0, 2
    CALL Base_Report_Pass
`)
	got := countByCheck(fs)
	if got[CheckSuperblockHostile] != 1 {
		t.Fatalf("superblock-hostile count = %d, want 1; findings: %v", got[CheckSuperblockHostile], fs)
	}
	for _, f := range fs {
		if f.Check == CheckSuperblockHostile && f.Severity != SevWarn {
			t.Errorf("severity = %v, want warn", f.Severity)
		}
	}
}

func TestCFGSuperblockFriendlyTargets(t *testing.T) {
	// Address-taken labels at block-leader positions must not warn: a
	// handler placed after a CALL (block-ending) and a label that is
	// also a direct branch target are both legitimate computed-jump
	// targets.
	fs := cfgCheck(t, `.INCLUDE "Globals.inc"
test_main:
    LOAD d1, handler
    LOAD d2, looptop
    LOAD d0, 0
looptop:
    ADD d0, d0, 1
    BLT d0, d2, looptop
    CALL Base_Report_Pass
handler:
    RFE
`)
	if got := countByCheck(fs)[CheckSuperblockHostile]; got != 0 {
		t.Errorf("block-leader labels flagged superblock-hostile: %v", fs)
	}
}
