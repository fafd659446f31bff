package vet

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/asm"
	"repro/internal/core/derivative"
	"repro/internal/core/sysenv"
	"repro/internal/platform"
)

// Options tunes the analyzer.
type Options struct {
	// MagicThreshold: numeric literals with absolute value above this are
	// flagged as hardwired. Small structural constants (loop steps, 0/1
	// flags) pass. Default 15.
	MagicThreshold int64
	// AllowLocalEqu: numeric literals on test-local .EQU lines are
	// allowed (the paper permits local placeholder control in tests) —
	// unless the value lands inside a peripheral register block, which is
	// a raw address however it is spelled. Default true via NewOptions.
	AllowLocalEqu bool
	// Derivatives to analyse across. Defaults to the full family. The
	// report depends on the set, not on the order: Check analyses them
	// sorted by name.
	Derivatives []*derivative.Derivative
	// Kinds are the platform kinds the portability pass spans. Layer and
	// CFG analysis run at the first kind (platform macros only select
	// values inside the abstraction layer). Defaults to all kinds.
	Kinds []platform.Kind
	// Disable globally turns off check IDs ("all" disables everything —
	// useful only for narrowing a run to one pass).
	Disable map[string]bool
}

// NewOptions returns the default options.
func NewOptions() Options {
	return Options{MagicThreshold: 15, AllowLocalEqu: true}
}

func (o *Options) normalise() {
	if o.MagicThreshold == 0 {
		o.MagicThreshold = 15
	}
	if len(o.Derivatives) == 0 {
		o.Derivatives = derivative.Family()
	} else {
		o.Derivatives = append([]*derivative.Derivative(nil), o.Derivatives...)
		sort.SliceStable(o.Derivatives, func(i, j int) bool {
			return o.Derivatives[i].Name < o.Derivatives[j].Name
		})
	}
	if len(o.Kinds) == 0 {
		// The full kind list, independent of which platform
		// implementations are linked in: the analyzer only needs the
		// kinds' preprocessor macros, never an executable platform.
		o.Kinds = []platform.Kind{
			platform.KindGolden, platform.KindRTL, platform.KindGate,
			platform.KindEmulator, platform.KindBondout, platform.KindSilicon,
		}
	}
}

func (o *Options) enabled(check string) bool {
	return !o.Disable[check] && !o.Disable["all"]
}

// Key returns a canonical rendering of the normalised options: the
// threshold, the local-.EQU rule, each derivative's full value in
// analysis order, the kinds, and the disabled checks. Options with equal
// keys produce the same report for the same system.
func (o Options) Key() string {
	o.normalise()
	var b strings.Builder
	fmt.Fprintf(&b, "magic=%d equ=%t", o.MagicThreshold, o.AllowLocalEqu)
	for _, d := range o.Derivatives {
		fmt.Fprintf(&b, "\nderiv=%+v", *d) // every field; maps print sorted
	}
	for _, k := range o.Kinds {
		fmt.Fprintf(&b, "\nkind=%s", k)
	}
	var off []string
	for id, disabled := range o.Disable {
		if disabled {
			off = append(off, id)
		}
	}
	sort.Strings(off)
	fmt.Fprintf(&b, "\ndisable=%s", strings.Join(off, ","))
	return b.String()
}

// Check runs every analyzer pass over a system environment and returns
// the report. Findings are deterministic: same system, same options,
// same bytes out.
func Check(s *sysenv.System, opts Options) *Report {
	opts.normalise()
	r := &Report{System: s.Name}
	for _, d := range opts.Derivatives {
		r.Derivatives = append(r.Derivatives, d.Name)
	}

	// Layer + CFG + whole-program flow run once per derivative, together
	// with that derivative's portability probes; the derivatives run in
	// parallel and merge in analysis order. Findings present on every
	// derivative merge into one variant-free finding.
	passes := make([]derivPass, len(opts.Derivatives))
	fanOut(len(passes), func(i int) {
		passes[i] = checkDerivative(s, opts.Derivatives[i], opts)
	})
	perDeriv := make([][]Finding, len(passes))
	probes := make([]probeSet, len(passes))
	for i, p := range passes {
		perDeriv[i] = p.findings
		probes[i] = p.probes
		r.Stack = append(r.Stack, p.bounds...)
	}
	r.Findings = append(r.Findings, mergeVariants(opts.Derivatives, perDeriv)...)

	r.Findings = append(r.Findings, portFindings(s, opts, probes)...)
	r.Findings = append(r.Findings, deadFindings(s, opts)...)
	r.Findings = append(r.Findings, traceFindings(s, opts)...)

	r.Findings, r.Suppressed = applySuppressions(s, r.Findings)
	sort.Slice(r.Stack, func(i, j int) bool {
		a, b := r.Stack[i], r.Stack[j]
		if a.Module != b.Module {
			return a.Module < b.Module
		}
		if a.Test != b.Test {
			return a.Test < b.Test
		}
		return a.Derivative < b.Derivative
	})
	r.Sort()
	return r
}

// derivPass is one derivative's share of a Check call.
type derivPass struct {
	findings []Finding
	bounds   []StackBound
	probes   probeSet
}

// checkDerivative runs the layer, CFG and flow passes for one derivative
// over one unit table, and assembles the derivative's portability
// probes.
func checkDerivative(s *sysenv.System, d *derivative.Derivative, opts Options) derivPass {
	tab := newUnitTable(s, d, opts.Kinds[0])
	var p derivPass
	p.findings = append(layerFindings(s, tab, opts), cfgFindings(s, tab, opts)...)
	flow, bounds := flowFindings(s, tab, opts)
	p.findings = append(p.findings, flow...)
	p.bounds = bounds
	if opts.enabled(CheckVariantDiverge) {
		p.probes = probeSymbols(s, tab.tree, d, opts.Kinds)
	}
	return p
}

// finding builds a Finding with the check's default severity.
func finding(check string, f Finding) Finding {
	f.Check = check
	f.Severity = severityOf[check]
	return f
}

// mergeVariants folds per-derivative finding lists: a finding reported
// for every derivative is emitted once without a variant; one reported
// for a strict subset is emitted per derivative with Variant set.
func mergeVariants(derivs []*derivative.Derivative, perDeriv [][]Finding) []Finding {
	type slot struct {
		f     Finding
		on    []int // derivative indexes, in order
		first int   // insertion order of first sighting
	}
	index := make(map[string]*slot)
	var order []*slot
	for di, findings := range perDeriv {
		for _, f := range findings {
			k := f.mergeKey()
			sl, ok := index[k]
			if !ok {
				sl = &slot{f: f, first: len(order)}
				index[k] = sl
				order = append(order, sl)
			}
			if len(sl.on) == 0 || sl.on[len(sl.on)-1] != di {
				sl.on = append(sl.on, di)
			}
		}
	}
	var out []Finding
	for _, sl := range order {
		if len(sl.on) == len(derivs) {
			f := sl.f
			f.Variant = ""
			out = append(out, f)
			continue
		}
		for _, di := range sl.on {
			f := sl.f
			f.Variant = derivs[di].Name
			out = append(out, f)
		}
	}
	return out
}

// ---- suppressions ----

// suppression is one `; lint:disable <check>[,<check>...]` annotation.
// On a code line it applies to that line; on a standalone comment line
// it applies to the whole file. The check list accepts "all".
type suppression struct {
	checks map[string]bool
	line   int // 0 = whole file
}

func (sp suppression) matches(f Finding) bool {
	if sp.line != 0 && sp.line != f.Line {
		return false
	}
	return sp.checks["all"] || sp.checks[f.Check]
}

const disableMarker = "lint:disable"

// scanSuppressions extracts the annotations from one raw source.
func scanSuppressions(src string) []suppression {
	var out []suppression
	for num, text := range strings.Split(src, "\n") {
		ci := strings.Index(text, ";")
		if ci < 0 {
			continue
		}
		comment := text[ci:]
		mi := strings.Index(comment, disableMarker)
		if mi < 0 {
			continue
		}
		list := strings.TrimSpace(comment[mi+len(disableMarker):])
		checks := make(map[string]bool)
		for _, tok := range strings.FieldsFunc(list, func(r rune) bool {
			return r == ',' || r == ' ' || r == '\t'
		}) {
			checks[tok] = true
		}
		if len(checks) == 0 {
			continue
		}
		sp := suppression{checks: checks}
		if strings.TrimSpace(text[:ci]) != "" {
			sp.line = num + 1 // trailing comment: this line only
		}
		out = append(out, sp)
	}
	return out
}

// applySuppressions removes findings matched by test-source annotations
// and returns the survivors plus the suppressed count.
func applySuppressions(s *sysenv.System, findings []Finding) ([]Finding, int) {
	byPath := make(map[string][]suppression)
	for _, e := range s.Envs() {
		for _, t := range e.Tests() {
			if sps := scanSuppressions(t.Source); len(sps) > 0 {
				byPath[e.TestSourcePath(t.ID)] = sps
			}
		}
	}
	if len(byPath) == 0 {
		return findings, 0
	}
	out := findings[:0]
	suppressed := 0
	for _, f := range findings {
		drop := false
		for _, sp := range byPath[f.Path] {
			if sp.matches(f) {
				drop = true
				break
			}
		}
		if drop {
			suppressed++
		} else {
			out = append(out, f)
		}
	}
	return out, suppressed
}

// expand preprocesses one test source the way the build pipeline would
// for a derivative/platform pair.
func expand(tree map[string]string, module, path, src string, d *derivative.Derivative, k platform.Kind) ([]asm.Line, []error) {
	return asm.Expand(path, src, asm.Options{
		Resolver: sysenv.NewResolver(tree, module),
		Defines:  sysenv.BuildDefines(d, k),
	})
}
