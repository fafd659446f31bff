package vet

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core/derivative"
	"repro/internal/core/env"
	"repro/internal/core/sysenv"
	"repro/internal/obj"
	"repro/internal/platform"
)

// probeSource is the minimal unit whose symbol table is exactly the
// abstraction layer's resolved define set.
const probeSource = ".INCLUDE \"Globals.inc\"\n"

// probeSet is one derivative's probe results: the symbol table of each
// environment's probe under each kind, [env][kind], nil where the probe
// does not assemble.
type probeSet [][][]obj.Symbol

// probeSymbols assembles the probe of every environment under one
// derivative and each kind, over the derivative's materialised tree.
func probeSymbols(s *sysenv.System, tree map[string]string, d *derivative.Derivative, kinds []platform.Kind) probeSet {
	envs := s.Envs()
	out := make(probeSet, len(envs))
	for ei, e := range envs {
		out[ei] = make([][]obj.Symbol, len(kinds))
		for ki, k := range kinds {
			o, err := assembleUnit(tree, e.Module, "probe.asm", probeSource, d, k)
			if err != nil {
				continue // build errors surface in the layer/cfg passes
			}
			out[ei][ki] = o.Symbols
		}
	}
	return out
}

// portFindings is the portability pass: from the probes of each
// environment's Globals.inc under every derivative × platform
// combination (probes[derivative], see probeSymbols) it reports, per
// module, the symbols that resolve to different values across the
// matrix. These are precisely the paper's Figure 6 single points of
// change — the surface a port touches.
func portFindings(s *sysenv.System, opts Options, probes []probeSet) []Finding {
	if !opts.enabled(CheckVariantDiverge) {
		return nil
	}
	// Variant vi is derivative vi/nk on kind vi%nk.
	nk := len(opts.Kinds)
	nv := len(opts.Derivatives) * nk
	derivOf := func(vi int) string { return opts.Derivatives[vi/nk].Name }
	kindOf := func(vi int) string { return opts.Kinds[vi%nk].String() }
	var out []Finding
	for ei, e := range s.Envs() {
		// values[name][variant index] = resolved value (Abs symbols only).
		values := make(map[string]map[int]int64)
		for vi := 0; vi < nv; vi++ {
			for _, sym := range probes[vi/nk][ei][vi%nk] {
				if !sym.Abs {
					continue
				}
				if values[sym.Name] == nil {
					values[sym.Name] = make(map[int]int64)
				}
				values[sym.Name][vi] = sym.Value
			}
		}
		names := make([]string, 0, len(values))
		for n := range values {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, name := range names {
			byVariant := values[name]
			distinct := make(map[int64]bool)
			for _, v := range byVariant {
				distinct[v] = true
			}
			if len(distinct) < 2 {
				continue
			}
			f := Finding{
				Path:   e.Module + "/" + env.GlobalsFile,
				Module: e.Module,
				Message: fmt.Sprintf("symbol %s resolves to %d distinct values across the variant matrix: %s",
					name, len(distinct), describeValues(nv, byVariant, derivOf, kindOf)),
			}
			out = append(out, finding(CheckVariantDiverge, f))
		}
	}
	return out
}

// describeValues renders "0x5 on SC88-A,SC88-C; 0x6 on SC88-B" grouping
// variants by value. When the value only depends on one matrix
// dimension, the other dimension is collapsed out of the labels — a
// platform-controlled timeout reads "on gate", not sixteen
// derivative/kind pairs.
func describeValues(n int, byVariant map[int]int64, derivOf, kindOf func(int) string) string {
	uniformAcross := func(groupOf func(int) string) (map[string]int64, []string, bool) {
		vals := make(map[string]int64)
		var order []string
		for vi := 0; vi < n; vi++ {
			v, ok := byVariant[vi]
			if !ok {
				continue
			}
			g := groupOf(vi)
			if prev, seen := vals[g]; seen {
				if prev != v {
					return nil, nil, false
				}
				continue
			}
			vals[g] = v
			order = append(order, g)
		}
		return vals, order, true
	}
	labelOf := func(vi int) string { return derivOf(vi) + "/" + kindOf(vi) }
	vals, order, ok := uniformAcross(derivOf)
	if !ok {
		vals, order, ok = uniformAcross(kindOf)
	}
	if !ok {
		vals, order, _ = uniformAcross(labelOf)
	}
	type group struct {
		val    int64
		labels []string
	}
	var groups []*group
	byVal := make(map[int64]*group)
	for _, label := range order {
		v := vals[label]
		g, seen := byVal[v]
		if !seen {
			g = &group{val: v}
			byVal[v] = g
			groups = append(groups, g)
		}
		g.labels = append(g.labels, label)
	}
	parts := make([]string, len(groups))
	for i, g := range groups {
		parts[i] = fmt.Sprintf("0x%X on %s", g.val, strings.Join(g.labels, ","))
	}
	return strings.Join(parts, "; ")
}

// ---- static port impact ----

// Impact records that porting from one derivative to another changes
// the build of one test cell, and which of its link units changed.
type Impact struct {
	Module string   `json:"module"`
	Test   string   `json:"test"`
	Units  []string `json:"units"`
}

// PortImpact statically computes which test cells a derivative port
// touches: for each cell it assembles the five link units (the three
// global-layer objects, the abstraction layer, and the test itself)
// under both derivatives and deep-compares the objects. Because the
// family shares one ROM/RAM layout, two equal object sets link to equal
// images — so this static set equals the set of cells whose built
// images differ, without linking or running anything (the Figure 6/7
// claim made checkable).
func PortImpact(s *sysenv.System, from, to *derivative.Derivative, k platform.Kind) ([]Impact, error) {
	type side struct {
		tree map[string]string
		d    *derivative.Derivative
	}
	sides := [2]side{
		{s.Materialise(from), from},
		{s.Materialise(to), to},
	}
	// The global-layer units are shared by every cell: assemble once per
	// side and compare once.
	globalUnits := []string{sysenv.Crt0File, sysenv.TrapHandlersFile, sysenv.EmbeddedSWFile}
	globalChanged := make(map[string]bool)
	for _, name := range globalUnits {
		path := sysenv.GlobalDir + "/" + name
		var objs [2]*obj.Object
		for i, sd := range sides {
			o, err := assembleUnit(sd.tree, "", path, sd.tree[path], sd.d, k)
			if err != nil {
				return nil, fmt.Errorf("vet: %s on %s: %w", path, sd.d.Name, err)
			}
			objs[i] = o
		}
		if !objectsEqual(objs[0], objs[1]) {
			globalChanged[name] = true
		}
	}
	var out []Impact
	for _, e := range s.Envs() {
		moduleUnits := map[string]string{
			"Base_Functions.asm": e.Module + "/" + env.BaseFuncsFile,
		}
		moduleChanged := make(map[string]bool)
		for name, path := range moduleUnits {
			var objs [2]*obj.Object
			for i, sd := range sides {
				o, err := assembleUnit(sd.tree, e.Module, path, sd.tree[path], sd.d, k)
				if err != nil {
					return nil, fmt.Errorf("vet: %s on %s: %w", path, sd.d.Name, err)
				}
				objs[i] = o
			}
			if !objectsEqual(objs[0], objs[1]) {
				moduleChanged[name] = true
			}
		}
		for _, t := range e.Tests() {
			path := e.TestSourcePath(t.ID)
			var units []string
			for _, name := range globalUnits {
				if globalChanged[name] {
					units = append(units, name)
				}
			}
			for name := range moduleChanged {
				units = append(units, name)
			}
			var objs [2]*obj.Object
			for i, sd := range sides {
				o, err := assembleUnit(sd.tree, e.Module, path, t.Source, sd.d, k)
				if err != nil {
					return nil, fmt.Errorf("vet: %s on %s: %w", path, sd.d.Name, err)
				}
				objs[i] = o
			}
			if !objectsEqual(objs[0], objs[1]) {
				units = append(units, "test.asm")
			}
			if len(units) > 0 {
				sort.Strings(units)
				out = append(out, Impact{Module: e.Module, Test: t.ID, Units: units})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Module != out[j].Module {
			return out[i].Module < out[j].Module
		}
		return out[i].Test < out[j].Test
	})
	return out, nil
}

// objectsEqual deep-compares two relocatable objects.
func objectsEqual(a, b *obj.Object) bool {
	if string(a.Text) != string(b.Text) || string(a.Data) != string(b.Data) || a.BssSize != b.BssSize {
		return false
	}
	if len(a.Symbols) != len(b.Symbols) || len(a.Relocs) != len(b.Relocs) {
		return false
	}
	for i := range a.Symbols {
		if a.Symbols[i] != b.Symbols[i] {
			return false
		}
	}
	for i := range a.Relocs {
		if a.Relocs[i] != b.Relocs[i] {
			return false
		}
	}
	return true
}
