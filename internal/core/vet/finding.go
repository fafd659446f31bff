// Package vet implements advm-vet, the multi-pass semantic analyzer for
// ADVM system verification environments. Where the original checker
// pattern-matched raw source text, vet works on the assembler's own
// artefacts — preprocessed token streams with expansion provenance,
// symbol tables, and assembled objects — so its passes can resolve
// symbols, see through macros and comments, and reason about control
// flow:
//
//	layer  discipline of the paper's Figure 2: tests must reach the
//	       global layer only through their abstraction layer
//	cfg    per-test control-flow: unreachable code, falling off the
//	       section, return-address clobbering, missing PASS/FAIL epilogue
//	port   symbols whose resolved values differ across the derivative ×
//	       platform matrix, and the static port-impact set of Figure 6/7
//	dead   Global Defines and Base Functions no test ever reaches
//	stack  whole-program worst-case stack depth per test against each
//	       derivative's budget, over the interprocedural call graph
//	flow   register def-use dataflow: may-uninitialised reads and dead
//	       stores, with macro expansion provenance
//	trace  requirements traceability: every test names a catalogued
//	       requirement, every catalogued requirement has a covering test
package vet

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Severity ranks a finding. Error-severity findings block a frozen
// release at the regression pre-flight gate.
type Severity uint8

// Severities, in increasing order.
const (
	SevInfo Severity = iota
	SevWarn
	SevError
)

func (s Severity) String() string {
	switch s {
	case SevInfo:
		return "info"
	case SevWarn:
		return "warning"
	case SevError:
		return "error"
	}
	return "severity?"
}

// MarshalJSON renders the severity as its name.
func (s Severity) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.String())
}

// UnmarshalJSON parses a severity name.
func (s *Severity) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	switch name {
	case "info":
		*s = SevInfo
	case "warning":
		*s = SevWarn
	case "error":
		*s = SevError
	default:
		return fmt.Errorf("vet: unknown severity %q", name)
	}
	return nil
}

// Check IDs. IDs are stable: suppression comments and CI baselines key
// on them.
const (
	CheckGlobalRef      = "layer/global-ref"        // test references a global-layer symbol
	CheckBypassInclude  = "layer/bypass-include"    // test includes a file other than Globals.inc
	CheckRawAddress     = "layer/raw-address"       // literal inside a peripheral register block
	CheckMagicValue     = "layer/magic-value"       // hardwired numeric literal
	CheckMagicField     = "layer/magic-field"       // literal bit-field geometry operand
	CheckUnreachable    = "cfg/unreachable"         // code no path reaches
	CheckFallThrough    = "cfg/fall-through"        // execution can run off the text section
	CheckCallImbalance  = "cfg/call-imbalance"      // RET after CALL without saving ra
	CheckNoEpilogue     = "cfg/no-epilogue"         // no reachable PASS/FAIL report
	CheckVariantDiverge = "port/variant-divergence" // symbol resolves differently per variant
	CheckDeadDefine     = "dead/define"             // Global Define no test reaches
	CheckDeadBaseFunc   = "dead/basefunc"           // Base Function no test reaches
	CheckBuildError     = "build/error"             // unit does not assemble
	// CheckSuperblockHostile flags an address-taken label whose target
	// sits mid-superblock: a computed jump (JI/CALLI) through it enters
	// the middle of a block the translation engine has already formed,
	// forcing a second, overlapping translation of the same code.
	CheckSuperblockHostile = "cfg/superblock-hostile"
)

// Whole-program check IDs (the interprocedural flow and traceability
// passes).
const (
	CheckStackRecursion       = "stack/recursion"             // call-graph cycle: unbounded recursion
	CheckStackUnbounded       = "stack/unbounded"             // loop grows the stack without bound
	CheckStackOverflow        = "stack/overflow"              // worst-case depth exceeds the derivative budget
	CheckLayerCall            = "layer/call-bypass"           // test-layer call edge into a global-layer function
	CheckUninitRead           = "flow/uninit-read"            // register read with no reaching write on some path
	CheckDeadStore            = "flow/dead-store"             // register write no path reads
	CheckNoRequirement        = "trace/no-requirement"        // test declares no REQ id
	CheckUnknownRequirement   = "trace/unknown-requirement"   // REQ id not in the catalogue
	CheckUncoveredRequirement = "trace/uncovered-requirement" // catalogued requirement with no covering test
)

// severityOf maps each check to its default severity.
var severityOf = map[string]Severity{
	CheckGlobalRef:         SevError,
	CheckBypassInclude:     SevError,
	CheckRawAddress:        SevError,
	CheckMagicValue:        SevError,
	CheckMagicField:        SevError,
	CheckUnreachable:       SevWarn,
	CheckFallThrough:       SevError,
	CheckCallImbalance:     SevWarn,
	CheckNoEpilogue:        SevError,
	CheckVariantDiverge:    SevInfo,
	CheckDeadDefine:        SevWarn,
	CheckDeadBaseFunc:      SevWarn,
	CheckBuildError:        SevError,
	CheckSuperblockHostile: SevWarn,

	CheckStackRecursion:       SevError,
	CheckStackUnbounded:       SevError,
	CheckStackOverflow:        SevError,
	CheckLayerCall:            SevError,
	CheckUninitRead:           SevError,
	CheckDeadStore:            SevWarn,
	CheckNoRequirement:        SevError,
	CheckUnknownRequirement:   SevError,
	CheckUncoveredRequirement: SevError,
}

// Checks lists every check ID in sorted order.
func Checks() []string {
	out := make([]string, 0, len(severityOf))
	for id := range severityOf {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Finding is one analyzer result.
type Finding struct {
	// Check is the stable check ID, e.g. "layer/global-ref".
	Check string `json:"check"`
	// Severity ranks the finding.
	Severity Severity `json:"severity"`
	// Path and Line locate the finding in the materialised tree, when it
	// has a source location.
	Path string `json:"path,omitempty"`
	Line int    `json:"line,omitempty"`
	// Module and Test name the environment and test cell, when the
	// finding belongs to one.
	Module string `json:"module,omitempty"`
	Test   string `json:"test,omitempty"`
	// Variant names the derivative the finding is specific to; empty when
	// it holds for every analysed derivative.
	Variant string `json:"variant,omitempty"`
	// Message is the human-readable diagnostic.
	Message string `json:"message"`
}

func (f Finding) String() string {
	var b strings.Builder
	if f.Path != "" {
		fmt.Fprintf(&b, "%s:", f.Path)
		if f.Line > 0 {
			fmt.Fprintf(&b, "%d:", f.Line)
		}
		b.WriteString(" ")
	}
	fmt.Fprintf(&b, "%s: [%s] %s", f.Severity, f.Check, f.Message)
	if f.Variant != "" {
		fmt.Fprintf(&b, " (on %s)", f.Variant)
	}
	return b.String()
}

// sortKey orders findings deterministically.
func (f Finding) sortKey() string {
	return fmt.Sprintf("%s\x00%08d\x00%s\x00%s\x00%s\x00%s\x00%s",
		f.Path, f.Line, f.Check, f.Module, f.Test, f.Variant, f.Message)
}

// mergeKey identifies a finding modulo the variant, for cross-derivative
// merging.
func (f Finding) mergeKey() string {
	return fmt.Sprintf("%s\x00%d\x00%s\x00%s\x00%s\x00%s",
		f.Path, f.Line, f.Check, f.Module, f.Test, f.Message)
}

// StackBound is one row of the worst-case stack-depth table: a test's
// bound on one derivative, against that derivative's budget.
type StackBound struct {
	Module     string `json:"module"`
	Test       string `json:"test"`
	Derivative string `json:"derivative"`
	// DepthBytes is the worst-case stack depth; -1 means unbounded
	// (recursion or a stack-growing loop).
	DepthBytes  int `json:"depth_bytes"`
	BudgetBytes int `json:"budget_bytes"`
}

// Report is the analyzer output for one system environment.
type Report struct {
	// System is the analysed system's name.
	System string `json:"system"`
	// Derivatives lists the analysed derivative names.
	Derivatives []string `json:"derivatives"`
	// Findings, in deterministic order.
	Findings []Finding `json:"findings"`
	// Stack is the whole-program stack-depth bound table, one row per
	// test × derivative, in (module, test, derivative) order.
	Stack []StackBound `json:"stack,omitempty"`
	// Suppressed counts findings removed by lint:disable annotations.
	Suppressed int `json:"suppressed,omitempty"`
}

// Clone returns a copy of the report that shares no slices with it.
func (r *Report) Clone() *Report {
	c := *r
	c.Derivatives = slices.Clone(r.Derivatives)
	c.Findings = slices.Clone(r.Findings)
	c.Stack = slices.Clone(r.Stack)
	return &c
}

// Sort puts the findings in their canonical order.
func (r *Report) Sort() {
	sort.SliceStable(r.Findings, func(i, j int) bool {
		return r.Findings[i].sortKey() < r.Findings[j].sortKey()
	})
}

// Count returns the number of findings at a severity.
func (r *Report) Count(sev Severity) int {
	n := 0
	for _, f := range r.Findings {
		if f.Severity == sev {
			n++
		}
	}
	return n
}

// Errors returns the number of error-severity findings.
func (r *Report) Errors() int { return r.Count(SevError) }

// ByCheck returns the findings with a given check ID.
func (r *Report) ByCheck(id string) []Finding {
	var out []Finding
	for _, f := range r.Findings {
		if f.Check == id {
			out = append(out, f)
		}
	}
	return out
}

// JSON renders the report as indented JSON.
func (r *Report) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// String renders the human-readable report.
func (r *Report) String() string {
	var b strings.Builder
	for _, f := range r.Findings {
		b.WriteString(f.String())
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "%d error(s), %d warning(s), %d info\n",
		r.Count(SevError), r.Count(SevWarn), r.Count(SevInfo))
	return b.String()
}
