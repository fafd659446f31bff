package vet

// callgraph.go builds the whole-program call graph for one test cell:
// the test unit plus the module's Base_Functions unit plus the three
// global-layer units — exactly the translation units the build pipeline
// links into the final image. Nodes are call-target labels; each node
// carries its call sites with the stack bytes live at the site, so the
// stack-depth analysis (stackdepth.go) can fold worst-case callee depths
// over the graph, and the object-level layer-discipline check can walk
// the edges.

import (
	"sort"

	"repro/internal/core/env"
	"repro/internal/core/sysenv"
	"repro/internal/isa"
	"repro/internal/obj"
)

// cgLayer classifies which ADVM layer a translation unit belongs to.
type cgLayer int

const (
	layerTest cgLayer = iota
	layerAbstraction
	layerGlobal
)

// cgUnitInfo is one decoded translation unit of the program.
type cgUnitInfo struct {
	u     *cfgUnit
	path  string
	layer cgLayer
	// indirect resolves CALLI sites to the symbol last materialised into
	// the register (the Figure 7 "LOAD CallAddr, fn / CALL CallAddr"
	// idiom).
	indirect map[uint32]string
}

// cgCallSite is one call edge origin.
type cgCallSite struct {
	callee   string
	off      uint32 // call-site offset in the caller's unit
	depthAt  int    // stack bytes pushed when control reaches the site
	indirect bool
}

// cgFunc is one call-graph node.
type cgFunc struct {
	name      string
	unit      *cgUnitInfo
	entry     uint32
	localMax  int  // worst-case stack bytes pushed inside the function
	unbounded bool // a loop grows the stack without bound
	calls     []cgCallSite
}

// callGraph is the whole-program view for one linked test image.
type callGraph struct {
	funcs map[string]*cgFunc
	names []string // deterministic iteration order
}

// decodeProgramUnit takes one decoded unit of the program from the
// table; a unit that does not assemble or decode is skipped (the cfg
// pass reports build errors).
func decodeProgramUnit(tab *unitTable, module, path string, layer cgLayer) *cgUnitInfo {
	u := tab.decoded(module, path)
	if u == nil {
		return nil
	}
	return &cgUnitInfo{u: u, path: path, layer: layer, indirect: indirectTargets(u)}
}

// indirectTargets resolves CALLI sites through the materialisation idiom:
// within a straight-line run (no intervening label), a CALLI through a
// register whose most recent write materialised a symbol address calls
// that symbol. Any other write to the register, or a call (whose callee
// may clobber), clears the tracking.
func indirectTargets(u *cfgUnit) map[uint32]string {
	out := make(map[uint32]string)
	labelOffs := make(map[uint32]bool, len(u.labels))
	for _, off := range u.labels {
		labelOffs[off] = true
	}
	last := make(map[isa.Reg]string)
	for _, ci := range u.insts {
		if labelOffs[ci.off] {
			// A label is a potential merge point; drop all tracking.
			last = make(map[isa.Reg]string)
		}
		in := ci.in
		if in.Op == isa.OpCallI {
			if sym, ok := last[in.Rs]; ok {
				out[ci.off] = sym
			}
		}
		switch {
		case (in.Op == isa.OpLea || in.Op == isa.OpMovX) && u.extSym[ci.off] != "":
			last[in.Rd] = u.extSym[ci.off]
		case in.Op == isa.OpCall || in.Op == isa.OpCallI:
			last = make(map[isa.Reg]string)
		default:
			for r := isa.Reg(0); r < isa.NumRegs; r++ {
				if regDefs(in).has(r) {
					delete(last, r)
				}
			}
		}
	}
	return out
}

// buildCallGraph collects the call-target labels across the units and
// analyses each as a function.
func buildCallGraph(units []*cgUnitInfo, noreturn map[string]bool) *callGraph {
	g := &callGraph{funcs: make(map[string]*cgFunc)}

	// Every symbol any unit calls, plus the architectural entry points.
	targets := map[string]bool{"test_main": true, "_start": true}
	for _, ui := range units {
		for _, ci := range ui.u.insts {
			switch ci.in.Op {
			case isa.OpCall:
				if sym := ui.u.extSym[ci.off]; sym != "" {
					targets[sym] = true
				}
			case isa.OpCallI:
				if sym, ok := ui.indirect[ci.off]; ok {
					targets[sym] = true
				}
			}
		}
		// Address-taken labels are asynchronous entry points (handlers);
		// their stack use rides on top of the synchronous depth.
		for _, tl := range ui.u.takenLabels() {
			targets[tl.sym] = true
		}
	}

	for _, ui := range units {
		for name := range targets {
			entry, local := ui.u.labels[name]
			if !local {
				continue
			}
			if _, dup := g.funcs[name]; dup {
				continue // first unit wins; the linker would reject duplicates
			}
			f := &cgFunc{name: name, unit: ui, entry: entry}
			analyseFunc(f, noreturn)
			g.funcs[name] = f
			g.names = append(g.names, name)
		}
	}
	sort.Strings(g.names)
	return g
}

// stackGrowthCap bounds the max-depth fixpoint: a walk that pushes past
// it (or keeps improving past the visit budget) is growing the stack in
// a loop.
const stackGrowthCap = 1 << 20

// analyseFunc walks the function's CFG from its entry, tracking the
// worst-case stack bytes at every offset. Pushes appear as the
// assembler's PUSH lowering (LEAO sp, sp, -n); the walk follows branches
// and local jumps, falls through calls (unless the callee is noreturn),
// and stops at RET/HALT/RFE.
func analyseFunc(f *cgFunc, noreturn map[string]bool) {
	u := f.unit.u
	best := make(map[uint32]int)
	sites := make(map[uint32]*cgCallSite)
	type item struct {
		off   uint32
		depth int
	}
	work := []item{{f.entry, 0}}
	visits, maxVisits := 0, (len(u.insts)+1)*64
	for len(work) > 0 {
		it := work[len(work)-1]
		work = work[:len(work)-1]
		if b, seen := best[it.off]; seen && it.depth <= b {
			continue
		}
		best[it.off] = it.depth
		if visits++; visits > maxVisits || it.depth > stackGrowthCap {
			f.unbounded = true
			break
		}
		idx, ok := u.index[it.off]
		if !ok {
			continue
		}
		ci := u.insts[idx]
		depth := it.depth
		if ci.in.Op == isa.OpLeaO && ci.in.Rd == isa.SP && ci.in.Rs == isa.SP {
			depth -= int(ci.in.Imm) // negative offset = push
			if depth < 0 {
				depth = 0 // popping past the entry frame; clamp
			}
		}
		if depth > f.localMax {
			f.localMax = depth
		}
		var callee string
		indirect := false
		switch ci.in.Op {
		case isa.OpCall:
			callee = u.extSym[ci.off]
		case isa.OpCallI:
			callee, indirect = f.unit.indirect[ci.off], true
		}
		if callee != "" {
			cs, seen := sites[ci.off]
			if !seen {
				cs = &cgCallSite{callee: callee, off: ci.off, indirect: indirect}
				sites[ci.off] = cs
			}
			if depth > cs.depthAt {
				cs.depthAt = depth
			}
		}
		offs, _ := u.succs(ci, noreturn)
		for _, s := range offs {
			work = append(work, item{s, depth})
		}
	}
	f.calls = f.calls[:0]
	for _, cs := range sites {
		f.calls = append(f.calls, *cs)
	}
	sort.Slice(f.calls, func(i, j int) bool { return f.calls[i].off < f.calls[j].off })
}

// programUnits returns the full decoded unit set for one test cell.
func programUnits(tab *unitTable, e *env.Env, t *env.TestCell, shared []*cgUnitInfo) []*cgUnitInfo {
	tu := decodeProgramUnit(tab, e.Module, e.TestSourcePath(t.ID), layerTest)
	if tu == nil {
		return nil
	}
	return append([]*cgUnitInfo{tu}, shared...)
}

// sharedUnits decodes the units every test of an environment links
// against: the module's Base_Functions plus the three global-layer
// units.
func sharedUnits(tab *unitTable, e *env.Env) []*cgUnitInfo {
	var out []*cgUnitInfo
	if ui := decodeProgramUnit(tab, e.Module, e.Module+"/"+env.BaseFuncsFile, layerAbstraction); ui != nil {
		out = append(out, ui)
	}
	for _, p := range []string{sysenv.Crt0File, sysenv.TrapHandlersFile, sysenv.EmbeddedSWFile} {
		if ui := decodeProgramUnit(tab, e.Module, sysenv.GlobalDir+"/"+p, layerGlobal); ui != nil {
			out = append(out, ui)
		}
	}
	return out
}

// globalFuncLabels returns the text labels the global-layer units
// define — the functions a test must never call directly.
func globalFuncLabels(units []*cgUnitInfo) map[string]bool {
	out := make(map[string]bool)
	for _, ui := range units {
		if ui.layer != layerGlobal {
			continue
		}
		for _, sym := range ui.u.o.Symbols {
			if !sym.Abs && sym.Section == obj.SecText {
				out[sym.Name] = true
			}
		}
	}
	return out
}
