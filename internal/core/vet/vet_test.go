package vet

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core/content"
	"repro/internal/core/derivative"
	"repro/internal/core/env"
	"repro/internal/core/sysenv"
)

// injectTest clones the shipped system with one extra test added to the
// named module.
func injectTest(t *testing.T, module string, cell env.TestCell) *sysenv.System {
	t.Helper()
	s := content.PortedSystem()
	sys := sysenv.New("SYS")
	for _, m := range s.Modules() {
		e, _ := s.Env(m)
		if m == module {
			e = e.Clone()
			e.MustAddTest(cell)
		}
		if err := sys.AddEnv(e); err != nil {
			t.Fatalf("AddEnv(%s): %v", m, err)
		}
	}
	return sys
}

// findingsFor filters a report down to one test's findings.
func findingsFor(r *Report, testID string) []Finding {
	var out []Finding
	for _, f := range r.Findings {
		if f.Test == testID {
			out = append(out, f)
		}
	}
	return out
}

func countByCheck(fs []Finding) map[string]int {
	m := map[string]int{}
	for _, f := range fs {
		m[f.Check]++
	}
	return m
}

func TestShippedSuiteHasNoErrors(t *testing.T) {
	r := Check(content.PortedSystem(), NewOptions())
	for _, f := range r.Findings {
		if f.Severity >= SevError {
			t.Errorf("error-severity finding on the shipped suite: %s", f)
		}
	}
	if r.Suppressed != 0 {
		t.Errorf("shipped suite needs %d suppressions; it should be clean as written", r.Suppressed)
	}
}

func TestGlobalNamesExtraction(t *testing.T) {
	names := globalNames(derivative.A())
	for _, want := range []string{
		"UART_BASE", "UART_DR_OFF", "NVMC_PAGESEL_OFF",
		"ES_Init_Register", "ES_Uart_Send", "Default_Trap_Handler",
	} {
		if !names[want] {
			t.Errorf("global names missing %q", want)
		}
	}
	if names["_start"] {
		t.Error("_start should be exempt")
	}
	// SEC publishes the renamed register.
	sec := globalNames(derivative.SEC())
	if !sec["UART_DATA_OFF"] {
		t.Error("SEC global names missing renamed register")
	}
}

// TestViolatingTestFlagged injects the paper's Figure 2 style abuse and
// confirms the analyzer catches every class — and nothing outside the
// abusive test.
func TestViolatingTestFlagged(t *testing.T) {
	sys := injectTest(t, content.ModuleNVM, env.TestCell{
		ID:          "TEST_NVM_ABUSE",
		Description: "deliberately bypasses the abstraction layer",
		Source: `;; abusive test (Figure 2)
.INCLUDE "registers.inc"
test_main:
    LOAD d14, [0x80002014]
    INSERT d14, d14, 8, 0, 5
    STORE [0x80002014], d14
    LOAD d13, 0x12345
    LOAD a12, ES_Nvm_Unlock
    CALL a12
    CALL Base_Report_Pass
`,
	})
	r := Check(sys, NewOptions())
	for _, f := range r.Findings {
		if f.Severity >= SevError && f.Test != "TEST_NVM_ABUSE" {
			t.Errorf("error outside the abusive test: %s", f)
		}
	}
	abuse := findingsFor(r, "TEST_NVM_ABUSE")
	got := countByCheck(abuse)
	if got[CheckBypassInclude] != 1 {
		t.Errorf("bypass-include count = %d, want 1; findings: %v", got[CheckBypassInclude], abuse)
	}
	// ES_Nvm_Unlock is a global-layer label; CallAddr comes from
	// Globals.inc so it must NOT be flagged.
	if got[CheckGlobalRef] != 1 {
		t.Errorf("global-ref count = %d, want 1 (ES_Nvm_Unlock); findings: %v", got[CheckGlobalRef], abuse)
	}
	// Two literals inside the NVM controller block.
	if got[CheckRawAddress] != 2 {
		t.Errorf("raw-address count = %d, want 2; findings: %v", got[CheckRawAddress], abuse)
	}
	// INSERT's last two operands (0, 5) are literal geometry; only the
	// width exceeds nothing — both are flagged regardless of magnitude.
	if got[CheckMagicField] != 2 {
		t.Errorf("magic-field count = %d, want 2; findings: %v", got[CheckMagicField], abuse)
	}
	// 0x12345 is a hardwired value outside every register block.
	if got[CheckMagicValue] != 1 {
		t.Errorf("magic-value count = %d, want 1; findings: %v", got[CheckMagicValue], abuse)
	}
	// The abuse is derivative-independent: merged findings carry no
	// variant tag.
	for _, f := range abuse {
		if f.Variant != "" {
			t.Errorf("expected variant-free merged finding, got %s", f)
		}
	}
}

// TestProvenanceExemptsExpansion: a test whose only use of global-layer
// names and raw constants comes through abstraction-layer expansion must
// be clean — the analyzer checks what the author wrote, not what the
// preprocessor produced.
func TestProvenanceExemptsExpansion(t *testing.T) {
	sys := injectTest(t, content.ModuleNVM, env.TestCell{
		ID: "TEST_NVM_THROUGH_LAYER",
		Source: `;; clean: everything goes through Globals.inc names
.INCLUDE "Globals.inc"
test_main:
    LOAD d14, [REG_NVMC_PAGESEL]
    INSERT d14, d14, 3, PAGE_FIELD_START_POSITION, PAGE_FIELD_SIZE
    STORE [REG_NVMC_PAGESEL], d14
    CALL Base_Report_Pass
`,
	})
	r := Check(sys, NewOptions())
	for _, f := range findingsFor(r, "TEST_NVM_THROUGH_LAYER") {
		if f.Severity >= SevError {
			t.Errorf("false positive through expansion provenance: %s", f)
		}
	}
}

func TestLocalEquAllowance(t *testing.T) {
	cell := env.TestCell{
		ID: "TEST_NVM_EQU",
		Source: `.INCLUDE "Globals.inc"
LOCAL_TUNE .EQU 0x1234
test_main:
    LOAD d0, LOCAL_TUNE
    CALL Base_Report_Pass
`,
	}
	sys := injectTest(t, content.ModuleNVM, cell)
	r := Check(sys, NewOptions())
	if got := countByCheck(findingsFor(r, "TEST_NVM_EQU"))[CheckMagicValue]; got != 0 {
		t.Errorf("local .EQU literal flagged with AllowLocalEqu on: %d findings", got)
	}
	opts := NewOptions()
	opts.AllowLocalEqu = false
	r = Check(sys, opts)
	if got := countByCheck(findingsFor(r, "TEST_NVM_EQU"))[CheckMagicValue]; got != 1 {
		t.Errorf("strict mode magic-value count = %d, want 1", got)
	}
	// A raw register address is flagged even on an .EQU line: renaming a
	// hardwired address locally does not un-hardwire it.
	sys = injectTest(t, content.ModuleNVM, env.TestCell{
		ID: "TEST_NVM_EQU_ADDR",
		Source: `.INCLUDE "Globals.inc"
MY_REG .EQU 0x80002014
test_main:
    CALL Base_Report_Pass
`,
	})
	r = Check(sys, NewOptions())
	if got := countByCheck(findingsFor(r, "TEST_NVM_EQU_ADDR"))[CheckRawAddress]; got != 1 {
		t.Errorf("raw address behind local .EQU: count = %d, want 1", got)
	}
}

func TestSuppressions(t *testing.T) {
	// Line-level: the trailing annotation silences exactly that line.
	sys := injectTest(t, content.ModuleNVM, env.TestCell{
		ID: "TEST_NVM_SUPPRESS_LINE",
		Source: `.INCLUDE "Globals.inc"
test_main:
    LOAD d0, 0x80002014 ; lint:disable layer/raw-address
    LOAD d1, 0x80002018
    CALL Base_Report_Pass
`,
	})
	r := Check(sys, NewOptions())
	fs := findingsFor(r, "TEST_NVM_SUPPRESS_LINE")
	raw := countByCheck(fs)[CheckRawAddress]
	if raw != 1 {
		t.Errorf("line suppression: raw-address count = %d, want 1 (only the unannotated line)", raw)
	}
	for _, f := range fs {
		if f.Check == CheckRawAddress && f.Line != 4 {
			t.Errorf("surviving raw-address finding at line %d, want 4", f.Line)
		}
	}
	if r.Suppressed != 1 {
		t.Errorf("suppressed count = %d, want 1", r.Suppressed)
	}

	// File-level: a standalone annotation silences the whole file, and
	// "all" wildcards every check.
	sys = injectTest(t, content.ModuleNVM, env.TestCell{
		ID: "TEST_NVM_SUPPRESS_FILE",
		Source: `;; lint:disable all
.INCLUDE "registers.inc"
test_main:
    LOAD d0, 0x80002014
    CALL Base_Report_Pass
`,
	})
	r = Check(sys, NewOptions())
	if fs := findingsFor(r, "TEST_NVM_SUPPRESS_FILE"); len(fs) != 0 {
		t.Errorf("file-level 'all' suppression left findings: %v", fs)
	}
	if r.Suppressed == 0 {
		t.Error("file-level suppression recorded nothing suppressed")
	}
}

func TestDisableCheck(t *testing.T) {
	sys := injectTest(t, content.ModuleNVM, env.TestCell{
		ID: "TEST_NVM_DISABLED",
		Source: `.INCLUDE "Globals.inc"
test_main:
    LOAD d0, 0x80002014
    CALL Base_Report_Pass
`,
	})
	opts := NewOptions()
	opts.Disable = map[string]bool{CheckRawAddress: true}
	r := Check(sys, opts)
	if got := countByCheck(findingsFor(r, "TEST_NVM_DISABLED"))[CheckRawAddress]; got != 0 {
		t.Errorf("disabled check still fired %d times", got)
	}
}

// TestVariantSubsetFindings: a test referencing a symbol that exists only
// on some derivatives produces per-variant findings — the global-ref
// fires where the name resolves, the build error where it does not.
func TestVariantSubsetFindings(t *testing.T) {
	sys := injectTest(t, content.ModuleUART, env.TestCell{
		ID: "TEST_UART_OLDNAME",
		Source: `.INCLUDE "Globals.inc"
test_main:
    LOAD d0, UART_DR_OFF
    CALL Base_Report_Pass
`,
	})
	r := Check(sys, NewOptions())
	fs := findingsFor(r, "TEST_UART_OLDNAME")
	variants := map[string]map[string]bool{}
	for _, f := range fs {
		if variants[f.Check] == nil {
			variants[f.Check] = map[string]bool{}
		}
		variants[f.Check][f.Variant] = true
	}
	// UART_DR_OFF is a global name on A, B, C; on SEC it was renamed, so
	// the reference there is just an unresolved external — not a layer
	// violation. The finding must come back variant-tagged for exactly
	// the three derivatives that publish the name.
	gr := variants[CheckGlobalRef]
	if !gr["SC88-A"] || !gr["SC88-B"] || !gr["SC88-C"] || gr["SC88-SEC"] || gr[""] {
		t.Errorf("global-ref variants = %v, want exactly A, B, C", gr)
	}
}

func TestMergeVariants(t *testing.T) {
	derivs := derivative.Family() // A, B, C, SEC
	f := Finding{Check: CheckGlobalRef, Path: "p", Line: 3, Message: "m"}
	everywhere := [][]Finding{{f}, {f}, {f}, {f}}
	out := mergeVariants(derivs, everywhere)
	if len(out) != 1 || out[0].Variant != "" {
		t.Errorf("merge of universal finding = %v, want one variant-free finding", out)
	}
	subset := [][]Finding{{f}, nil, {f}, nil}
	out = mergeVariants(derivs, subset)
	if len(out) != 2 || out[0].Variant != derivs[0].Name || out[1].Variant != derivs[2].Name {
		t.Errorf("merge of subset finding = %v, want two variant-tagged findings", out)
	}
}

func TestReportDeterminism(t *testing.T) {
	s := content.PortedSystem()
	a, err := Check(s, NewOptions()).JSON()
	if err != nil {
		t.Fatal(err)
	}
	b, err := Check(s, NewOptions()).JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("two Check runs produced different JSON bytes")
	}
}

// TestReportIgnoresDerivativeOrder: the report depends on the set of
// derivatives, not on the order the options list them, so a gate over a
// permuted -derivs list produces the bytes the certification seals.
func TestReportIgnoresDerivativeOrder(t *testing.T) {
	s := content.PortedSystem()
	want, err := Check(s, NewOptions()).JSON()
	if err != nil {
		t.Fatal(err)
	}
	fam := derivative.Family()
	for _, perm := range [][]int{{3, 2, 1, 0}, {2, 0, 3, 1}} {
		opts := NewOptions()
		for _, i := range perm {
			opts.Derivatives = append(opts.Derivatives, fam[i])
		}
		listed := opts.Derivatives[0]
		got, err := Check(s, opts).JSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("derivatives in order %v: report differs from the family order", perm)
		}
		if opts.Derivatives[0] != listed {
			t.Error("Check reordered the caller's derivative list")
		}
		if opts.Key() != NewOptions().Key() {
			t.Errorf("derivatives in order %v: options key differs from the family order", perm)
		}
	}
}

// TestOptionsKey: options that can change the report have different
// keys, down to a derivative's value behind an unchanged name.
func TestOptionsKey(t *testing.T) {
	base := NewOptions().Key()
	if (Options{}).Key() == base {
		t.Error("AllowLocalEqu off keys like the defaults")
	}
	explicit := NewOptions()
	explicit.MagicThreshold = 15
	explicit.Derivatives = derivative.Family()
	explicit.Disable = map[string]bool{CheckDeadDefine: false}
	if explicit.Key() != base {
		t.Error("explicit defaults key differently from the defaults")
	}
	variants := map[string]func(o *Options){
		"threshold": func(o *Options) { o.MagicThreshold = 3 },
		"subset":    func(o *Options) { o.Derivatives = derivative.Family()[:2] },
		"kinds":     func(o *Options) { o.Kinds = o.Kinds[1:] },
		"disable":   func(o *Options) { o.Disable = map[string]bool{CheckDeadDefine: true} },
		"budget": func(o *Options) {
			sec := derivative.SEC()
			sec.StackBytes *= 2
			o.Derivatives = append(derivative.Family()[:3], sec)
		},
	}
	for name, change := range variants {
		o := NewOptions()
		o.normalise()
		change(&o)
		if o.Key() == base {
			t.Errorf("%s: changed options key like the defaults", name)
		}
	}
}

func TestSeverityAndChecksTable(t *testing.T) {
	if len(Checks()) != len(severityOf) {
		t.Errorf("Checks() lists %d ids, severity table has %d", len(Checks()), len(severityOf))
	}
	for _, id := range Checks() {
		if !strings.Contains(id, "/") {
			t.Errorf("check id %q is not namespaced", id)
		}
	}
	if severityOf[CheckGlobalRef] != SevError || severityOf[CheckUnreachable] != SevWarn ||
		severityOf[CheckVariantDiverge] != SevInfo {
		t.Error("severity table does not match the documented levels")
	}
}

// TestDeadAbstraction: an unused define and base function are reported;
// one reachable only through a live base function is not.
func TestDeadAbstraction(t *testing.T) {
	r := Check(content.PortedSystem(), NewOptions())
	byMsg := map[string]bool{}
	for _, f := range r.Findings {
		if f.Check == CheckDeadDefine || f.Check == CheckDeadBaseFunc {
			byMsg[f.Module+"/"+f.Check+"/"+msgName(f.Message)] = true
		}
	}
	// NVM's TIMEOUT_LOOPS is used only inside Base_Nvm_Wait_Ready, which
	// tests call: liveness must propagate through the base function.
	if byMsg["NVM/"+CheckDeadDefine+"/TIMEOUT_LOOPS"] {
		t.Error("TIMEOUT_LOOPS flagged dead in NVM despite a live base function using it")
	}
	// REG_MBOX_CHECKPT is genuinely unreachable in NVM (Base_Checkpoint is
	// never called).
	if !byMsg["NVM/"+CheckDeadDefine+"/REG_MBOX_CHECKPT"] {
		t.Error("REG_MBOX_CHECKPT not flagged dead in NVM")
	}
	if !byMsg["NVM/"+CheckDeadBaseFunc+"/Base_Checkpoint"] {
		t.Error("Base_Checkpoint not flagged dead in NVM")
	}
}

// msgName pulls the subject name out of a dead-abstraction message.
func msgName(msg string) string {
	fields := strings.Fields(msg)
	for i, f := range fields {
		if (f == "Define" || f == "Function") && i+1 < len(fields) {
			return fields[i+1]
		}
	}
	return ""
}
