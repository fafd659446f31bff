package vet

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/asm"
	"repro/internal/core/derivative"
	"repro/internal/core/env"
	"repro/internal/core/sysenv"
	"repro/internal/isa"
	"repro/internal/obj"
	"repro/internal/platform"
	"repro/internal/translate"
)

// cfgFindings is the control-flow pass: every test cell is assembled the
// way the build pipeline would and its text section decoded into a
// control-flow graph. The pass is deliberately limited to test units —
// library code renders a defensive trailing RET after noreturn bodies,
// which is structural, not a test-author mistake.
func cfgFindings(s *sysenv.System, tab *unitTable, opts Options) []Finding {
	var out []Finding
	for _, e := range s.Envs() {
		noreturn := noreturnFuncs(tab, e)
		for _, t := range e.Tests() {
			path := e.TestSourcePath(t.ID)
			base := Finding{Path: path, Module: e.Module, Test: t.ID}
			tu := tab.unit(e.Module, path)
			if tu.err != nil {
				if opts.enabled(CheckBuildError) {
					f := base
					f.Message = "test does not assemble: " + firstLine(tu.err.Error())
					out = append(out, finding(CheckBuildError, f))
				}
				continue
			}
			out = append(out, checkCFG(tu, noreturn, tab.d, base, opts)...)
		}
	}
	return out
}

func assembleUnit(tree map[string]string, module, path, src string, d *derivative.Derivative, k platform.Kind) (*obj.Object, error) {
	return asm.Assemble(path, src, asm.Options{
		Resolver: sysenv.NewResolver(tree, module),
		Defines:  sysenv.BuildDefines(d, k),
	})
}

func firstLine(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			return s[:i] + " ..."
		}
	}
	return s
}

// ---- decoded unit ----

type cfgInst struct {
	off  uint32
	size uint32 // bytes
	in   isa.Inst
}

type cfgUnit struct {
	o      *obj.Object
	insts  []cfgInst
	index  map[uint32]int    // text offset -> instruction index
	labels map[string]uint32 // local text labels -> offset
	// extSym maps an ext-word instruction's offset to the symbol its
	// second word relocates to (JMP/CALL targets, address materialisation).
	extSym map[uint32]string
}

// decodeUnit decodes the object's text section. A word that does not
// decode stops the walk (the assembler never emits one; text is
// code-only in this ISA).
func decodeUnit(o *obj.Object) (*cfgUnit, error) {
	u := &cfgUnit{
		o:      o,
		index:  make(map[uint32]int),
		labels: make(map[string]uint32),
		extSym: make(map[uint32]string),
	}
	words := make([]uint32, len(o.Text)/4)
	for i := range words {
		words[i] = binary.LittleEndian.Uint32(o.Text[i*4:])
	}
	for off := 0; off < len(words); {
		in, size, ok := isa.Decode(words[off:])
		if !ok {
			return nil, fmt.Errorf("text+0x%x: word 0x%08x does not decode", off*4, words[off])
		}
		u.index[uint32(off*4)] = len(u.insts)
		u.insts = append(u.insts, cfgInst{off: uint32(off * 4), size: uint32(size * 4), in: in})
		off += size
	}
	for _, sym := range o.Symbols {
		if !sym.Abs && sym.Section == obj.SecText {
			u.labels[sym.Name] = sym.Off
		}
	}
	for _, rel := range o.Relocs {
		if rel.Section != obj.SecText || rel.Kind != obj.RelAbs32 {
			continue
		}
		// The extension word sits at instruction offset + 4.
		u.extSym[rel.Off-4] = rel.Sym
	}
	return u, nil
}

// textLen returns the text section size in bytes.
func (u *cfgUnit) textLen() uint32 { return uint32(len(u.o.Text)) }

// succs returns the instruction's CFG successor offsets. fallsOff is set
// when a successor would be past the end of the section.
func (u *cfgUnit) succs(ci cfgInst, noreturn map[string]bool) (offs []uint32, fallsOff bool) {
	next := ci.off + ci.size
	fall := func() {
		if next >= u.textLen() {
			fallsOff = true
		} else {
			offs = append(offs, next)
		}
	}
	in := ci.in
	switch {
	case in.Op == isa.OpRet || in.Op == isa.OpHalt || in.Op == isa.OpRfe:
		// Terminators.
	case in.Op == isa.OpJmp:
		if sym, ok := u.extSym[ci.off]; ok {
			if target, local := u.labels[sym]; local {
				offs = append(offs, target)
			}
			// External jump: control leaves the unit for good.
		}
		// Constant-address jump: target unknowable pre-link; treat as exit.
	case in.Op == isa.OpJI:
		// Indirect jump: unknowable target, treat as exit.
	case in.Op == isa.OpCall:
		if sym, ok := u.extSym[ci.off]; ok && noreturn[sym] {
			break // callee never returns
		}
		fall()
	case in.Op == isa.OpCallI:
		fall() // indirect callee assumed to return
	case in.Op.IsBranch():
		target := int64(ci.off) + 4 + int64(in.Imm)*4
		if target >= 0 && uint32(target) < u.textLen() {
			offs = append(offs, uint32(target))
		}
		fall()
	default:
		fall()
	}
	return offs, fallsOff
}

// roots returns the CFG entry offsets: the test entry point plus every
// address-taken text label — a label materialised into a register or a
// data word is a potential hardware entry (interrupt/trap handler) and
// must count as reachable.
func (u *cfgUnit) roots() []uint32 {
	var out []uint32
	if off, ok := u.labels["test_main"]; ok {
		out = append(out, off)
	} else if len(u.insts) > 0 {
		out = append(out, 0)
	}
	// Text relocs on non-control-transfer instructions.
	for off, sym := range u.extSym {
		idx, ok := u.index[off]
		if !ok {
			continue
		}
		op := u.insts[idx].in.Op
		if op == isa.OpJmp || op == isa.OpCall {
			continue
		}
		if target, local := u.labels[sym]; local {
			out = append(out, target)
		}
	}
	// Data-section relocs (e.g. handler addresses in tables).
	for _, rel := range u.o.Relocs {
		if rel.Section == obj.SecText {
			continue
		}
		if target, local := u.labels[rel.Sym]; local {
			out = append(out, target)
		}
	}
	return out
}

// reach computes the reachable instruction set and whether any reachable
// path falls off the section; fallOff reports the offending offset.
func (u *cfgUnit) reach(noreturn map[string]bool) (reached []bool, fallOffAt []uint32) {
	reached = make([]bool, len(u.insts))
	var work []uint32
	seen := make(map[uint32]bool)
	push := func(off uint32) {
		if !seen[off] {
			seen[off] = true
			work = append(work, off)
		}
	}
	for _, r := range u.roots() {
		push(r)
	}
	for len(work) > 0 {
		off := work[len(work)-1]
		work = work[:len(work)-1]
		idx, ok := u.index[off]
		if !ok {
			continue // mid-instruction target; assembler never emits one
		}
		reached[idx] = true
		offs, fallsOff := u.succs(u.insts[idx], noreturn)
		if fallsOff {
			fallOffAt = append(fallOffAt, off)
		}
		for _, s := range offs {
			push(s)
		}
	}
	sort.Slice(fallOffAt, func(i, j int) bool { return fallOffAt[i] < fallOffAt[j] })
	return reached, fallOffAt
}

// blockLeaders returns the set of text offsets where the superblock
// translation engine can begin a block: the section start, every static
// control-transfer target, and every instruction following one that
// ends a block (mirroring translate.Form's formation rule). Any other
// offset is mid-block.
func (u *cfgUnit) blockLeaders() map[uint32]bool {
	leaders := make(map[uint32]bool)
	if len(u.insts) > 0 {
		leaders[0] = true
	}
	for _, ci := range u.insts {
		if translate.EndsBlock(ci.in.Op) {
			leaders[ci.off+ci.size] = true
		}
		switch {
		case ci.in.Op.IsBranch():
			target := int64(ci.off) + 4 + int64(ci.in.Imm)*4
			if target >= 0 && uint32(target) < u.textLen() {
				leaders[uint32(target)] = true
			}
		case ci.in.Op == isa.OpJmp || ci.in.Op == isa.OpCall:
			if sym, ok := u.extSym[ci.off]; ok {
				if target, local := u.labels[sym]; local {
					leaders[target] = true
				}
			}
		}
	}
	return leaders
}

// takenLabel is an address-taken local label: its address escapes into
// a register or a data word, so a computed jump can land on it.
type takenLabel struct {
	sym string
	off uint32
}

// takenLabels lists the local text labels whose addresses escape —
// materialised by a non-control-transfer instruction (LOAD a#, label)
// or stored in a data word (handler tables). These are exactly the
// roots the reachability walk treats as potential hardware entries.
func (u *cfgUnit) takenLabels() []takenLabel {
	var out []takenLabel
	seen := make(map[string]bool)
	add := func(sym string) {
		if seen[sym] {
			return
		}
		if off, local := u.labels[sym]; local {
			seen[sym] = true
			out = append(out, takenLabel{sym: sym, off: off})
		}
	}
	for off, sym := range u.extSym {
		idx, ok := u.index[off]
		if !ok {
			continue
		}
		op := u.insts[idx].in.Op
		if op == isa.OpJmp || op == isa.OpCall {
			continue
		}
		add(sym)
	}
	for _, rel := range u.o.Relocs {
		if rel.Section != obj.SecText {
			add(rel.Sym)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].off < out[j].off })
	return out
}

// srcLine maps a text offset to its source file/line via the object's
// line table.
func (u *cfgUnit) srcLine(off uint32) (string, int) {
	file, line := "", 0
	for _, li := range u.o.Lines {
		if li.Off <= off {
			file, line = li.File, li.Line
		} else {
			break
		}
	}
	return file, line
}

// labelAt returns a label defined at the offset, if any.
func (u *cfgUnit) labelAt(off uint32) string {
	for name, lo := range u.labels {
		if lo == off {
			return name
		}
	}
	return ""
}

// ---- checks ----

func checkCFG(tu *tableUnit, noreturn map[string]bool, d *derivative.Derivative, base Finding, opts Options) []Finding {
	if tu.decodeErr != nil {
		if !opts.enabled(CheckBuildError) {
			return nil
		}
		f := base
		f.Message = "text section does not decode: " + tu.decodeErr.Error()
		return []Finding{finding(CheckBuildError, f)}
	}
	u := tu.u
	if len(u.insts) == 0 {
		return nil
	}
	reached, fallOff := u.reach(noreturn)
	var out []Finding

	// Unreachable code: report the head of each maximal unreachable run.
	if opts.enabled(CheckUnreachable) {
		for i := 0; i < len(u.insts); i++ {
			if reached[i] {
				continue
			}
			head := u.insts[i]
			for i+1 < len(u.insts) && !reached[i+1] {
				i++
			}
			_, line := u.srcLine(head.off)
			f := base
			f.Line = line
			what := fmt.Sprintf("text+0x%x", head.off)
			if lbl := u.labelAt(head.off); lbl != "" {
				what = lbl
			}
			f.Message = fmt.Sprintf("unreachable code at %s: no path from the entry or any address-taken label reaches it", what)
			out = append(out, finding(CheckUnreachable, f))
		}
	}

	// Fall-through off the section.
	if opts.enabled(CheckFallThrough) {
		for _, off := range fallOff {
			_, line := u.srcLine(off)
			f := base
			f.Line = line
			f.Message = fmt.Sprintf("execution can fall off the end of the text section after %s at text+0x%x", u.insts[u.index[off]].in.Op, off)
			out = append(out, finding(CheckFallThrough, f))
		}
	}

	// CALL/RET imbalance: a reachable RET after a reachable CALL without
	// any save of the return address means RET re-enters the last callee.
	if opts.enabled(CheckCallImbalance) {
		sawCall, savesRA := false, false
		var retAt *cfgInst
		for i := range u.insts {
			if !reached[i] {
				continue
			}
			in := u.insts[i].in
			switch {
			case in.Op == isa.OpCall || in.Op == isa.OpCallI:
				sawCall = true
			case in.Op == isa.OpStA && in.Rd == isa.RA:
				savesRA = true
			case in.Op == isa.OpRet && retAt == nil:
				retAt = &u.insts[i]
			}
		}
		if sawCall && retAt != nil && !savesRA {
			_, line := u.srcLine(retAt.off)
			f := base
			f.Line = line
			f.Message = "RET executes after a CALL clobbered the return address and ra is never saved; PUSH ra / POP ra around the calls"
			out = append(out, finding(CheckCallImbalance, f))
		}
	}

	// Superblock-hostile computed-jump targets: warn when an
	// address-taken label points into the middle of a superblock. The
	// translation engine forms blocks at the entry, at static branch
	// targets, and after block-ending instructions; a JI/CALLI through a
	// label anywhere else enters code mid-block, so the engine must form
	// and cache a second block overlapping the first — double lowering
	// work and a cold dispatch on every indirect entry.
	if opts.enabled(CheckSuperblockHostile) {
		leaders := u.blockLeaders()
		for _, tl := range u.takenLabels() {
			if leaders[tl.off] {
				continue
			}
			_, line := u.srcLine(tl.off)
			f := base
			f.Line = line
			f.Message = fmt.Sprintf("address-taken label %s (text+0x%x) is a computed-jump target in the middle of a superblock; the translation engine must form an overlapping block for it — place the label after a control transfer or make it a direct branch target", tl.sym, tl.off)
			out = append(out, finding(CheckSuperblockHostile, f))
		}
	}

	// Missing PASS/FAIL epilogue: some reachable instruction must report
	// a result — a call into a noreturn reporter or a direct store to the
	// mailbox result register.
	if opts.enabled(CheckNoEpilogue) {
		mboxResult := d.HW.MboxBase // + periph.MboxResult == +0
		reports := false
		for i := range u.insts {
			if !reached[i] {
				continue
			}
			ci := u.insts[i]
			switch {
			case ci.in.Op == isa.OpCall:
				if sym, ok := u.extSym[ci.off]; ok && noreturn[sym] {
					reports = true
				}
			case ci.in.Op == isa.OpStWX:
				if _, symbolic := u.extSym[ci.off]; !symbolic && uint32(ci.in.Imm) >= mboxResult && uint32(ci.in.Imm) < mboxResult+blockSpan {
					reports = true
				}
			case ci.in.Op == isa.OpStW || ci.in.Op == isa.OpStA:
				// Register-indirect stores may hit the mailbox; give the
				// test the benefit of the doubt only when the address was
				// materialised from a mailbox-block constant — otherwise
				// keep looking.
			}
			if reports {
				break
			}
		}
		if !reports {
			f := base
			f.Message = "no reachable PASS/FAIL epilogue: the test never calls a reporting Base function nor stores to the mailbox result register"
			out = append(out, finding(CheckNoEpilogue, f))
		}
	}
	return out
}

// ---- noreturn analysis over the abstraction layer ----

// noreturnFuncs decodes the environment's Base_Functions unit and
// computes, by fixpoint, which base functions can never return: no path
// from the function's entry reaches a RET, where a CALL to a function
// already known not to return has no fall-through edge. The rendered
// trailing RET after a HALT body is exactly what this analysis sees
// through.
func noreturnFuncs(tab *unitTable, e *env.Env) map[string]bool {
	u := tab.decoded(e.Module, e.Module+"/"+env.BaseFuncsFile)
	if u == nil {
		return nil
	}
	entries := e.Funcs.Names()
	noreturn := make(map[string]bool)
	// Iterate to fixpoint: marking one function noreturn can cut the only
	// fall-through path that let another reach RET.
	for {
		changed := false
		for _, name := range entries {
			if noreturn[name] {
				continue
			}
			entry, ok := u.labels[name]
			if !ok {
				continue
			}
			if !reachesRet(u, entry, noreturn) {
				noreturn[name] = true
				changed = true
			}
		}
		if !changed {
			return noreturn
		}
	}
}

// reachesRet walks the unit CFG from entry and reports whether any path
// reaches a RET instruction.
func reachesRet(u *cfgUnit, entry uint32, noreturn map[string]bool) bool {
	seen := make(map[uint32]bool)
	work := []uint32{entry}
	for len(work) > 0 {
		off := work[len(work)-1]
		work = work[:len(work)-1]
		if seen[off] {
			continue
		}
		seen[off] = true
		idx, ok := u.index[off]
		if !ok {
			continue
		}
		ci := u.insts[idx]
		if ci.in.Op == isa.OpRet {
			return true
		}
		offs, _ := u.succs(ci, noreturn)
		work = append(work, offs...)
	}
	return false
}
