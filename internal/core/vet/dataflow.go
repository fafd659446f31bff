package vet

// dataflow.go is the register def-use pass of the whole-program flow
// analysis: a forward may-be-uninitialised analysis and a backward
// liveness analysis over one test unit's CFG. Both analyses walk the
// assembled object, so macro expansions are analysed exactly as built,
// and findings report the expansion origin when the offending
// instruction was not written in the test source itself.
//
// Code reachable only through address-taken labels (trap/interrupt
// handlers installed into vector tables) executes asynchronously, so the
// analyses treat it as a boundary rather than a path: registers a
// handler writes count as initialised at test_main (the handler may run
// first or in a wait loop), and registers a handler reads are never
// reported as dead stores in the synchronous flow.

import (
	"fmt"

	"repro/internal/isa"
)

// regSet is a bitset over the 32 architectural registers.
type regSet uint32

func (s regSet) has(r isa.Reg) bool { return s&(1<<uint(r)) != 0 }
func (s *regSet) add(r isa.Reg)     { *s |= 1 << uint(r) }
func (s *regSet) del(r isa.Reg)     { *s &^= 1 << uint(r) }
func (s *regSet) union(o regSet)    { *s |= o }

const allRegs = regSet(0xFFFFFFFF)

// regUses returns the registers an instruction reads.
func regUses(in isa.Inst) regSet {
	var s regSet
	switch in.Op {
	case isa.OpMov, isa.OpMovA, isa.OpMovDA, isa.OpMovAD, isa.OpLeaO,
		isa.OpLdW, isa.OpLdH, isa.OpLdHU, isa.OpLdB, isa.OpLdBU, isa.OpLdA,
		isa.OpAddI, isa.OpAndI, isa.OpOrI, isa.OpXorI,
		isa.OpShlI, isa.OpShrI, isa.OpSarI, isa.OpMulI,
		isa.OpInsertX, isa.OpExtractU, isa.OpExtractS:
		s.add(in.Rs)
	case isa.OpStW, isa.OpStH, isa.OpStB, isa.OpStA:
		s.add(in.Rs)
		s.add(in.Rd)
	case isa.OpStWX, isa.OpMtcr:
		s.add(in.Rd)
	case isa.OpAdd, isa.OpSub, isa.OpAnd, isa.OpOr, isa.OpXor,
		isa.OpShl, isa.OpShr, isa.OpSar, isa.OpMul, isa.OpDiv, isa.OpRem,
		isa.OpCmp, isa.OpInsert:
		s.add(in.Rs)
		s.add(in.Rt)
	case isa.OpCmpI:
		s.add(in.Rs)
	case isa.OpJI, isa.OpCallI:
		s.add(in.Rs)
	case isa.OpRet:
		s.add(isa.RA)
	case isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge, isa.OpBltU, isa.OpBgeU:
		s.add(in.Rd)
		s.add(in.Rs)
	}
	return s
}

// regDefs returns the registers an instruction writes.
func regDefs(in isa.Inst) regSet {
	var s regSet
	switch in.Op {
	case isa.OpMovI, isa.OpMovHI, isa.OpMovX, isa.OpMov, isa.OpMovA,
		isa.OpMovDA, isa.OpMovAD, isa.OpLea, isa.OpLeaO,
		isa.OpLdW, isa.OpLdH, isa.OpLdHU, isa.OpLdB, isa.OpLdBU,
		isa.OpLdWX, isa.OpLdA,
		isa.OpAdd, isa.OpSub, isa.OpAnd, isa.OpOr, isa.OpXor,
		isa.OpShl, isa.OpShr, isa.OpSar, isa.OpMul, isa.OpDiv, isa.OpRem,
		isa.OpAddI, isa.OpAndI, isa.OpOrI, isa.OpXorI,
		isa.OpShlI, isa.OpShrI, isa.OpSarI, isa.OpMulI,
		isa.OpInsert, isa.OpInsertX, isa.OpExtractU, isa.OpExtractS,
		isa.OpMfcr:
		s.add(in.Rd)
	case isa.OpCall, isa.OpCallI:
		s.add(isa.RA)
	}
	return s
}

// asyncRegs computes the registers read and written by code reachable
// through address-taken labels — the asynchronous (handler) portion of
// the unit — plus the set of instruction offsets that code spans.
func (u *cfgUnit) asyncRegs(noreturn map[string]bool) (reads, writes regSet, offs map[uint32]bool) {
	offs = make(map[uint32]bool)
	var work []uint32
	for _, tl := range u.takenLabels() {
		work = append(work, tl.off)
	}
	for len(work) > 0 {
		off := work[len(work)-1]
		work = work[:len(work)-1]
		if offs[off] {
			continue
		}
		offs[off] = true
		idx, ok := u.index[off]
		if !ok {
			continue
		}
		ci := u.insts[idx]
		reads.union(regUses(ci.in))
		writes.union(regDefs(ci.in))
		next, _ := u.succs(ci, noreturn)
		work = append(work, next...)
	}
	return reads, writes, offs
}

// provenance appends the expansion origin to a message when the
// instruction was produced by abstraction-layer expansion rather than
// written in the test source.
func provenance(msg, file, testPath string, line int) string {
	if file != "" && file != testPath {
		return fmt.Sprintf("%s (expanded from %s:%d)", msg, file, line)
	}
	return msg
}

// uninitFindings is the forward may-be-uninitialised analysis: a read of
// a register with no write on some path from test_main. Calls are
// treated as defining every register (the callee owns the convention),
// and registers written by asynchronous handler code count as
// initialised at entry.
func uninitFindings(u *cfgUnit, noreturn map[string]bool, base Finding, opts Options) []Finding {
	if !opts.enabled(CheckUninitRead) {
		return nil
	}
	entry, ok := u.labels["test_main"]
	if !ok {
		return nil
	}
	_, asyncWrites, _ := u.asyncRegs(noreturn)

	// state[off] is the set of registers possibly uninitialised when
	// control reaches off; join is union.
	state := make(map[uint32]regSet)
	init := allRegs
	init.del(isa.SP) // the platform initialises the stack pointer
	init.del(isa.RA) // crt0's CALL set the return address
	init &^= asyncWrites

	type item struct {
		off uint32
		in  regSet
	}
	work := []item{{entry, init}}
	reported := make(map[uint64]bool) // off<<8 | reg
	var out []Finding
	for len(work) > 0 {
		it := work[len(work)-1]
		work = work[:len(work)-1]
		if prev, seen := state[it.off]; seen && prev|it.in == prev {
			continue // no new possibly-uninitialised register
		}
		state[it.off] |= it.in
		cur := state[it.off]
		idx, ok := u.index[it.off]
		if !ok {
			continue
		}
		ci := u.insts[idx]
		for r := isa.Reg(0); r < isa.NumRegs; r++ {
			if regUses(ci.in).has(r) && cur.has(r) {
				key := uint64(ci.off)<<8 | uint64(r)
				if !reported[key] {
					reported[key] = true
					file, line := u.srcLine(ci.off)
					f := base
					f.Line = line
					f.Message = provenance(fmt.Sprintf(
						"register %s may be read before it is written: %s at text+0x%x has no reaching assignment on some path from test_main",
						r, ci.in.Op, ci.off), file, base.Path, line)
					out = append(out, finding(CheckUninitRead, f))
				}
			}
		}
		next := cur &^ regDefs(ci.in)
		if ci.in.Op == isa.OpCall || ci.in.Op == isa.OpCallI || ci.in.Op == isa.OpTrap {
			// A call or trap hands control to code with its own
			// convention; treat every register as defined afterwards.
			next = 0
		}
		offs, _ := u.succs(ci, noreturn)
		for _, s := range offs {
			work = append(work, item{s, next})
		}
	}
	return out
}

// Register-liveness conventions at synchronous exits: a RET hands d0/d1
// back to the caller; a noreturn reporter may consume d0/d1 (checkpoint
// values); HALT consumes nothing.
func retLive() regSet {
	var s regSet
	s.add(isa.D(0))
	s.add(isa.D(1))
	return s
}

// deadStoreFindings is the backward liveness analysis: a register write
// that no path reads before the next write to the same register or the
// unit's exit. Calls that can return treat every register as live (the
// callee may read any argument); noreturn reporters consume only the
// d0/d1 convention.
func deadStoreFindings(u *cfgUnit, noreturn map[string]bool, base Finding, opts Options) []Finding {
	if !opts.enabled(CheckDeadStore) {
		return nil
	}
	reached, _ := u.reach(noreturn)
	asyncReads, _, asyncOffs := u.asyncRegs(noreturn)

	// Predecessor lists over the reachable instructions.
	preds := make(map[uint32][]uint32)
	for i, ci := range u.insts {
		if !reached[i] {
			continue
		}
		offs, _ := u.succs(ci, noreturn)
		for _, s := range offs {
			preds[s] = append(preds[s], ci.off)
		}
	}

	liveOut := make(map[uint32]regSet)
	liveIn := make(map[uint32]regSet)
	// transfer computes liveIn from liveOut for one instruction.
	transfer := func(ci cfgInst, out regSet) regSet {
		uses := regUses(ci.in)
		switch ci.in.Op {
		case isa.OpCall, isa.OpCallI:
			sym := u.extSym[ci.off]
			if ci.in.Op == isa.OpCall && noreturn[sym] {
				uses.union(retLive()) // reporter may consume d0/d1
			} else {
				uses = allRegs // returning callee may read anything
			}
		case isa.OpRet:
			uses.union(retLive())
		}
		return uses | (out &^ regDefs(ci.in))
	}

	// Backward fixpoint.
	var work []uint32
	for i := len(u.insts) - 1; i >= 0; i-- {
		if reached[i] {
			work = append(work, u.insts[i].off)
		}
	}
	inWork := make(map[uint32]bool, len(work))
	for _, off := range work {
		inWork[off] = true
	}
	for len(work) > 0 {
		off := work[len(work)-1]
		work = work[:len(work)-1]
		inWork[off] = false
		ci := u.insts[u.index[off]]
		var out regSet
		offs, _ := u.succs(ci, noreturn)
		for _, s := range offs {
			out |= liveIn[s]
		}
		liveOut[off] = out
		in := transfer(ci, out)
		if in != liveIn[off] {
			liveIn[off] = in
			for _, p := range preds[off] {
				if !inWork[p] {
					inWork[p] = true
					work = append(work, p)
				}
			}
		}
	}

	var outF []Finding
	for i, ci := range u.insts {
		// Handler code runs asynchronously: its writes may be read by the
		// synchronous flow without a CFG edge, so it is exempt.
		if !reached[i] || asyncOffs[ci.off] {
			continue
		}
		for r := isa.Reg(0); r < isa.NumRegs; r++ {
			if !regDefs(ci.in).has(r) || r == isa.SP || r == isa.RA {
				continue
			}
			if liveOut[ci.off].has(r) || asyncReads.has(r) {
				continue
			}
			file, line := u.srcLine(ci.off)
			f := base
			f.Line = line
			f.Message = provenance(fmt.Sprintf(
				"dead store: %s at text+0x%x writes %s but no path reads it before the next write or the test's exit",
				ci.in.Op, ci.off, r), file, base.Path, line)
			outF = append(outF, finding(CheckDeadStore, f))
		}
	}
	return outF
}
