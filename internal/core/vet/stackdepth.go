package vet

// stackdepth.go folds the per-function stack analysis over the call
// graph: the worst-case stack depth of a function is its deepest local
// push chain, or the depth live at a call site plus the callee's
// worst-case depth — whichever is larger. A cycle in the call graph is
// unbounded recursion. The per-test bound is the synchronous entry
// chain's depth plus the deepest asynchronous handler, reported against
// the derivative's configured stack budget.

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core/derivative"
	"repro/internal/core/sysenv"
)

// depthResult is the memoised outcome of totalDepth for one function.
type depthResult struct {
	depth     int
	unbounded bool
	cycle     []string // non-nil when the function can recurse
}

type depthSolver struct {
	g     *callGraph
	memo  map[string]*depthResult
	stack []string // DFS path for cycle reporting
	on    map[string]bool
}

func newDepthSolver(g *callGraph) *depthSolver {
	return &depthSolver{g: g, memo: make(map[string]*depthResult), on: make(map[string]bool)}
}

// totalDepth computes the function's worst-case stack depth in bytes.
func (ds *depthSolver) totalDepth(name string) depthResult {
	if r, ok := ds.memo[name]; ok {
		return *r
	}
	f, ok := ds.g.funcs[name]
	if !ok {
		// Unknown callee (unresolved external): contributes nothing.
		return depthResult{}
	}
	if ds.on[name] {
		// Back edge: the DFS path from the first sighting is the cycle.
		var cyc []string
		for i := len(ds.stack) - 1; i >= 0; i-- {
			cyc = append([]string{ds.stack[i]}, cyc...)
			if ds.stack[i] == name {
				break
			}
		}
		return depthResult{cycle: append(cyc, name)}
	}
	ds.on[name] = true
	ds.stack = append(ds.stack, name)
	r := depthResult{depth: f.localMax, unbounded: f.unbounded}
	for _, cs := range f.calls {
		sub := ds.totalDepth(cs.callee)
		if sub.cycle != nil && r.cycle == nil {
			r.cycle = sub.cycle
		}
		if sub.unbounded {
			r.unbounded = true
		}
		if d := cs.depthAt + sub.depth; d > r.depth {
			r.depth = d
		}
	}
	ds.stack = ds.stack[:len(ds.stack)-1]
	ds.on[name] = false
	ds.memo[name] = &r
	return r
}

// callSiteOf finds the first call site of callee inside a test-layer
// function, for finding placement.
func (g *callGraph) callSiteOf(callee string) (file string, line int, ok bool) {
	for _, name := range g.names {
		f := g.funcs[name]
		if f.unit.layer != layerTest {
			continue
		}
		for _, cs := range f.calls {
			if cs.callee == callee {
				fl, ln := f.unit.u.srcLine(cs.off)
				return fl, ln, true
			}
		}
	}
	return "", 0, false
}

// flowFindings is the whole-program pass for one derivative: per test it
// builds the linked image's call graph, runs the stack-depth analysis
// against the derivative's stack budget, checks the object-level layer
// discipline, and runs the register dataflow analyses on the test unit.
func flowFindings(s *sysenv.System, tab *unitTable, opts Options) ([]Finding, []StackBound) {
	var out []Finding
	var bounds []StackBound
	for _, e := range s.Envs() {
		noreturn := noreturnFuncs(tab, e)
		shared := sharedUnits(tab, e)
		globals := globalFuncLabels(shared)
		for _, t := range e.Tests() {
			path := e.TestSourcePath(t.ID)
			base := Finding{Path: path, Module: e.Module, Test: t.ID}
			units := programUnits(tab, e, t, shared)
			if units == nil {
				continue // the cfg pass reports the build error
			}
			tu := units[0]
			g := buildCallGraph(units, noreturn)
			out = append(out, stackFindings(g, tu, tab.d, base, opts, &bounds)...)
			out = append(out, layerCallFindings(g, globals, base, opts)...)
			out = append(out, uninitFindings(tu.u, noreturn, base, opts)...)
			out = append(out, deadStoreFindings(tu.u, noreturn, base, opts)...)
		}
	}
	return out, bounds
}

// stackFindings evaluates one test's worst-case stack depth and appends
// its row to the bound table.
func stackFindings(g *callGraph, tu *cgUnitInfo, d *derivative.Derivative, base Finding, opts Options, bounds *[]StackBound) []Finding {
	entry := "test_main"
	if _, ok := g.funcs["_start"]; ok {
		entry = "_start"
	}
	ds := newDepthSolver(g)
	r := ds.totalDepth(entry)

	// Asynchronous handlers run on top of whatever is live: add the
	// deepest address-taken entry of the test unit.
	handlerMax, handlerUnbounded := 0, false
	var handlerCycle []string
	for _, tl := range tu.u.takenLabels() {
		hr := ds.totalDepth(tl.sym)
		if hr.depth > handlerMax {
			handlerMax = hr.depth
		}
		if hr.unbounded {
			handlerUnbounded = true
		}
		if hr.cycle != nil && handlerCycle == nil {
			handlerCycle = hr.cycle
		}
	}
	depth := r.depth + handlerMax
	unbounded := r.unbounded || handlerUnbounded
	cycle := r.cycle
	if cycle == nil {
		cycle = handlerCycle
	}

	var out []Finding
	switch {
	case cycle != nil:
		if opts.enabled(CheckStackRecursion) {
			f := base
			if file, line, ok := g.callSiteOf(cycle[0]); ok && file == base.Path {
				f.Line = line
			}
			f.Message = fmt.Sprintf("recursive call cycle %s: worst-case stack depth is unbounded",
				strings.Join(cycle, " -> "))
			out = append(out, finding(CheckStackRecursion, f))
		}
		depth = -1
	case unbounded:
		if opts.enabled(CheckStackUnbounded) {
			f := base
			f.Message = "a loop grows the stack without bound: pushes are not balanced by pops on the loop's back edge"
			out = append(out, finding(CheckStackUnbounded, f))
		}
		depth = -1
	case uint32(depth) > d.StackBytes:
		if opts.enabled(CheckStackOverflow) {
			f := base
			f.Message = fmt.Sprintf("worst-case stack depth %d bytes exceeds the %s stack budget of %d bytes",
				depth, d.Name, d.StackBytes)
			out = append(out, finding(CheckStackOverflow, f))
		}
	}
	*bounds = append(*bounds, StackBound{
		Module:      base.Module,
		Test:        base.Test,
		Derivative:  d.Name,
		DepthBytes:  depth,
		BudgetBytes: int(d.StackBytes),
	})
	return out
}

// layerCallFindings is the object-level layer-discipline check: a call
// edge from test-layer code straight into a global-layer function
// bypasses the abstraction layer, however the reference was spelled.
// Call sites whose source provenance is an abstraction-layer expansion
// are sanctioned — the analyzer judges what the author wrote.
func layerCallFindings(g *callGraph, globals map[string]bool, base Finding, opts Options) []Finding {
	if !opts.enabled(CheckLayerCall) {
		return nil
	}
	var out []Finding
	for _, name := range g.names {
		f := g.funcs[name]
		if f.unit.layer != layerTest {
			continue
		}
		for _, cs := range f.calls {
			if !globals[cs.callee] {
				continue
			}
			file, line := f.unit.u.srcLine(cs.off)
			if file != "" && file != base.Path {
				continue // expanded from the abstraction layer: sanctioned
			}
			how := "calls"
			if cs.indirect {
				how = "indirectly calls"
			}
			fd := base
			fd.Line = line
			fd.Message = fmt.Sprintf("test-layer code %s global-layer function %s directly; route the call through a Base function",
				how, cs.callee)
			out = append(out, finding(CheckLayerCall, fd))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].sortKey() < out[j].sortKey() })
	return out
}
