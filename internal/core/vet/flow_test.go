package vet

import (
	"strings"
	"testing"

	"repro/internal/core/content"
	"repro/internal/core/derivative"
	"repro/internal/core/env"
	"repro/internal/platform"
	"repro/internal/testprog"
)

// boundsFor filters the stack-bound table down to one test's rows.
func boundsFor(r *Report, testID string) []StackBound {
	var out []StackBound
	for _, b := range r.Stack {
		if b.Test == testID {
			out = append(out, b)
		}
	}
	return out
}

// TestSeededRecursionFlagged: the mutual ping/pong cycle is reported as
// stack/recursion with the cycle spelled out, placed at the test-layer
// call site, and the bound table records an unbounded depth on every
// derivative.
func TestSeededRecursionFlagged(t *testing.T) {
	sys := injectTest(t, content.ModuleNVM, env.TestCell{
		ID: "TEST_NVM_SEEDED_RECURSION", Source: testprog.SeededRecursion,
	})
	r := Check(sys, NewOptions())
	fs := findingsFor(r, "TEST_NVM_SEEDED_RECURSION")
	var recs []Finding
	for _, f := range fs {
		if f.Check == CheckStackRecursion {
			recs = append(recs, f)
		}
	}
	if len(recs) != 1 {
		t.Fatalf("stack/recursion count = %d, want 1; findings: %v", len(recs), fs)
	}
	f := recs[0]
	if !strings.Contains(f.Message, "ping -> pong -> ping") {
		t.Errorf("cycle not spelled out: %s", f.Message)
	}
	if f.Line != 10 {
		t.Errorf("finding at line %d, want 10 (pong's CALL ping)", f.Line)
	}
	if f.Variant != "" {
		t.Errorf("derivative-independent cycle carries variant %q", f.Variant)
	}
	if f.Severity != SevError {
		t.Errorf("severity = %v, want error", f.Severity)
	}
	bounds := boundsFor(r, "TEST_NVM_SEEDED_RECURSION")
	if len(bounds) != len(derivative.Family()) {
		t.Fatalf("bound rows = %d, want one per derivative", len(bounds))
	}
	for _, b := range bounds {
		if b.DepthBytes != -1 {
			t.Errorf("%s bound = %d bytes, want -1 (unbounded)", b.Derivative, b.DepthBytes)
		}
	}
}

// TestSeededUninitReadFlagged: d2 is read at the join but written on
// only one arm; the finding lands on the reading instruction in the
// test source itself (no expansion provenance).
func TestSeededUninitReadFlagged(t *testing.T) {
	sys := injectTest(t, content.ModuleNVM, env.TestCell{
		ID: "TEST_NVM_SEEDED_UNINIT", Source: testprog.SeededUninitRead,
	})
	r := Check(sys, NewOptions())
	fs := findingsFor(r, "TEST_NVM_SEEDED_UNINIT")
	var uninit []Finding
	for _, f := range fs {
		if f.Check == CheckUninitRead {
			uninit = append(uninit, f)
		}
	}
	if len(uninit) != 1 {
		t.Fatalf("flow/uninit-read count = %d, want 1; findings: %v", len(uninit), fs)
	}
	f := uninit[0]
	if f.Line != 8 {
		t.Errorf("finding at line %d, want 8 (the ADD that reads d2)", f.Line)
	}
	if !strings.Contains(f.Message, "register d2") {
		t.Errorf("message does not name d2: %s", f.Message)
	}
	if strings.Contains(f.Message, "expanded from") {
		t.Errorf("defect written in the test source carries expansion provenance: %s", f.Message)
	}
}

// TestSeededDeadStoreFlagged: the d5 scratch write is dead at the
// test's exit; reported as a warning at the writing instruction.
func TestSeededDeadStoreFlagged(t *testing.T) {
	sys := injectTest(t, content.ModuleNVM, env.TestCell{
		ID: "TEST_NVM_SEEDED_DEADSTORE", Source: testprog.SeededDeadStore,
	})
	r := Check(sys, NewOptions())
	fs := findingsFor(r, "TEST_NVM_SEEDED_DEADSTORE")
	var dead []Finding
	for _, f := range fs {
		if f.Check == CheckDeadStore {
			dead = append(dead, f)
		}
	}
	if len(dead) != 1 {
		t.Fatalf("flow/dead-store count = %d, want 1; findings: %v", len(dead), fs)
	}
	f := dead[0]
	if f.Line != 4 {
		t.Errorf("finding at line %d, want 4 (the LOAD that writes d5)", f.Line)
	}
	if !strings.Contains(f.Message, "d5") {
		t.Errorf("message does not name d5: %s", f.Message)
	}
	if f.Severity != SevWarn {
		t.Errorf("severity = %v, want warning", f.Severity)
	}
	for _, b := range boundsFor(r, "TEST_NVM_SEEDED_DEADSTORE") {
		if b.DepthBytes < 0 {
			t.Errorf("%s bound = %d, want a finite depth", b.Derivative, b.DepthBytes)
		}
		if b.DepthBytes > b.BudgetBytes {
			t.Errorf("%s depth %d exceeds budget %d on a trivial test", b.Derivative, b.DepthBytes, b.BudgetBytes)
		}
	}
}

// TestLayerCallBypassFlagged: calling a global-layer function from the
// test layer — directly or through the Figure 7 indirect idiom — is an
// object-level discipline error.
func TestLayerCallBypassFlagged(t *testing.T) {
	sys := injectTest(t, content.ModuleNVM, env.TestCell{
		ID: "TEST_NVM_SEEDED_BYPASS",
		Source: `;; seeded defect: calls the embedded software directly
.INCLUDE "Globals.inc"
test_main:
    CALL ES_Wdt_Service
    LOAD CallAddr, ES_Nvm_Unlock
    CALL CallAddr
    CALL Base_Report_Pass
`,
	})
	r := Check(sys, NewOptions())
	var direct, indirect []Finding
	for _, f := range findingsFor(r, "TEST_NVM_SEEDED_BYPASS") {
		if f.Check != CheckLayerCall {
			continue
		}
		if strings.Contains(f.Message, "indirectly calls") {
			indirect = append(indirect, f)
		} else {
			direct = append(direct, f)
		}
	}
	if len(direct) != 1 || !strings.Contains(direct[0].Message, "ES_Wdt_Service") || direct[0].Line != 4 {
		t.Errorf("direct bypass findings = %v, want one naming ES_Wdt_Service at line 4", direct)
	}
	if len(indirect) != 1 || !strings.Contains(indirect[0].Message, "ES_Nvm_Unlock") || indirect[0].Line != 6 {
		t.Errorf("indirect bypass findings = %v, want one naming ES_Nvm_Unlock at line 6", indirect)
	}
}

// TestExpansionProvenanceReported: when the offending instruction was
// pulled in from another file rather than written in the test source,
// the finding says so. The test jumps into code included from the
// module's Base_Functions.asm whose first reachable instruction reads
// d0, which no synchronous path initialised.
func TestExpansionProvenanceReported(t *testing.T) {
	sys := injectTest(t, content.ModuleNVM, env.TestCell{
		ID: "TEST_NVM_SEEDED_PROVENANCE",
		Source: `;; seeded defect: the uninitialised read lives in included code
.INCLUDE "Globals.inc"
test_main:
    JMP Base_Checkpoint
.INCLUDE "Base_Functions.asm"
`,
	})
	r := Check(sys, NewOptions())
	found := false
	for _, f := range findingsFor(r, "TEST_NVM_SEEDED_PROVENANCE") {
		if f.Check == CheckUninitRead && strings.Contains(f.Message, "expanded from Base_Functions.asm:") {
			found = true
		}
	}
	if !found {
		t.Errorf("no uninit-read finding with Base_Functions.asm provenance; findings: %v",
			findingsFor(r, "TEST_NVM_SEEDED_PROVENANCE"))
	}
}

// TestShippedSuiteStackBounds: every shipped test gets a bound row per
// derivative, every bound is finite, and every bound respects its
// derivative's budget.
func TestShippedSuiteStackBounds(t *testing.T) {
	r := Check(content.PortedSystem(), NewOptions())
	want := content.NumTests * len(derivative.Family())
	if len(r.Stack) != want {
		t.Fatalf("bound rows = %d, want %d (tests x derivatives)", len(r.Stack), want)
	}
	for _, b := range r.Stack {
		if b.DepthBytes < 0 {
			t.Errorf("%s/%s on %s: unbounded depth on the shipped suite", b.Module, b.Test, b.Derivative)
		}
		if b.DepthBytes > b.BudgetBytes {
			t.Errorf("%s/%s on %s: depth %d exceeds budget %d", b.Module, b.Test, b.Derivative, b.DepthBytes, b.BudgetBytes)
		}
	}
}

// FuzzCallGraph drives the whole-program call-graph construction and the
// stack-depth solver with arbitrary test sources linked against the real
// shared units: whatever the source, it must neither panic nor hang.
func FuzzCallGraph(f *testing.F) {
	s := content.PortedSystem()
	d := derivative.A()
	k := platform.KindGolden
	tab := newUnitTable(s, d, k)
	tree := tab.tree
	e := s.Envs()[0]
	noreturn := noreturnFuncs(tab, e)
	shared := sharedUnits(tab, e)

	f.Add(testprog.SeededRecursion)
	f.Add(testprog.SeededDeadStore)
	f.Add("test_main:\n    CALL test_main\n")
	f.Add("test_main:\n    PUSH d0\nloop:\n    PUSH d1\n    JMP loop\n")
	f.Add(".INCLUDE \"Globals.inc\"\ntest_main:\n    LOAD CallAddr, ES_Wdt_Service\n    CALL CallAddr\n    RET\n")
	f.Fuzz(func(t *testing.T, src string) {
		path := e.Module + "/TEST_FUZZ/test.asm"
		o, err := assembleUnit(tree, e.Module, path, src, d, k)
		if err != nil {
			return
		}
		u, err := decodeUnit(o)
		if err != nil {
			return
		}
		tu := &cgUnitInfo{u: u, path: path, layer: layerTest, indirect: indirectTargets(u)}
		g := buildCallGraph(append([]*cgUnitInfo{tu}, shared...), noreturn)
		ds := newDepthSolver(g)
		for _, name := range g.names {
			r := ds.totalDepth(name)
			if r.depth < 0 {
				t.Fatalf("negative worst-case depth %d for %s", r.depth, name)
			}
		}
	})
}
