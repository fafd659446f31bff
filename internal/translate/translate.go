// Package translate implements the superblock translation engine for the
// behavioural simulators: it forms straight-line superblocks over
// internal/predecode pages and computes, per instruction, the metadata a
// backend needs to lower the block into a threaded chain of specialised
// closures — fetch cost, an upper bound on the cycles the block can burn,
// and a flag-liveness analysis that lets in-block ALU flag writes be
// elided when a later instruction provably overwrites them before any
// point where the architectural PSW could be observed.
//
// Coherence reuses predecode's poison-on-store CAS protocol: a block
// records the immutable *predecode.Page it was formed from, and Valid
// re-loads the page pointer through the table. A store into the page
// swings the pointer to the poison sentinel, Valid fails, the backend
// drops the block, and — exactly like predecode — execution falls back to
// decode-per-step on the live bus, which preserves exact fault and trap
// behaviour for self-modifying code. Pages never written stay valid and
// their blocks are retranslated on demand after any cache churn.
//
// The discipline is bit-identical-to-interpreter: block formation ends at
// every instruction whose execution could observe or perturb state the
// interpreter handles between steps (traps, RFE, HALT, DEBUG, MFCR/MTCR),
// and the per-block MaxCost bound lets the backend prove that no device
// event can fire mid-block before committing to a single
// cancellation/event check per block entry.
package translate

import (
	"fmt"
	"sync/atomic"

	"repro/internal/isa"
	"repro/internal/predecode"
)

// MaxSteps bounds superblock length. Long straight-line runs amortise
// dispatch perfectly well before this; the bound keeps worst-case
// translation latency and the per-block cycle upper bound small.
const MaxSteps = 64

// Step is one instruction of a superblock, with everything a lowering
// backend needs pre-computed.
type Step struct {
	// PC is the instruction address.
	PC uint32
	// In is the decoded instruction.
	In isa.Inst
	// Size is the instruction length in words (1 or 2).
	Size uint32
	// Cost is the static cycle cost: the core's per-instruction base plus
	// the predecoded per-word fetch wait. Dynamic costs (data-access wait
	// states, the taken-branch penalty) are added by the backend.
	Cost uint64
	// ElideFlags marks a flag-writing instruction whose PSW update is
	// provably dead: a later instruction in this block fully overwrites
	// Z/N/C/V before any possible early exit (fault-capable instruction
	// or block end) could make the architectural PSW observable.
	ElideFlags bool
}

// Block is one formed superblock: a straight-line run of instructions
// ending at a control transfer, a page boundary, or an instruction class
// the interpreter must execute.
type Block struct {
	// Start is the entry PC; Span is the number of code bytes covered.
	// Blocks never cross a predecode page boundary.
	Start, Span uint32
	// Steps are the block's instructions in order.
	Steps []Step
	// MaxCost is an upper bound on the cycles one execution of the block
	// can burn (base costs + worst-case data-access waits + taken-branch
	// penalty). Backends compare it against the bus's tick budget to
	// prove no device event can fire mid-block.
	MaxCost uint64
	// ROM marks blocks formed from a shared ROM table, whose pages are
	// never poisoned (stores to ROM fault); Valid is constant true and
	// backends may skip the check.
	ROM bool

	table *predecode.Table
	page  *predecode.Page
}

// Valid reports whether the source page is still the one the block was
// formed from. RAM overlay pages are poisoned by stores (predecode's CAS
// protocol); a poisoned page makes Valid false forever, and the caller
// must drop the block and fall back to the interpreter's
// decode-per-step path.
func (b *Block) Valid() bool {
	if b.ROM {
		return true
	}
	p, _ := b.table.PageFor(b.Start)
	return p == b.page
}

// memOp reports whether op performs a data-memory access (and can
// therefore fault, burn bus wait states, or touch a peripheral).
func memOp(op isa.Opcode) bool {
	switch op {
	case isa.OpLdW, isa.OpLdH, isa.OpLdHU, isa.OpLdB, isa.OpLdBU,
		isa.OpStW, isa.OpStH, isa.OpStB, isa.OpLdWX, isa.OpStWX,
		isa.OpLdA, isa.OpStA:
		return true
	}
	return false
}

// fullFlagKiller reports whether op unconditionally overwrites all four
// arithmetic flags and cannot fault: the ALU register/immediate forms and
// the compares. DIV/REM write only Z/N (C/V survive) and can trap, so
// they neither kill earlier flag writes nor qualify for unconditional
// elision themselves.
func fullFlagKiller(op isa.Opcode) bool {
	switch op {
	case isa.OpAdd, isa.OpSub, isa.OpAnd, isa.OpOr, isa.OpXor,
		isa.OpShl, isa.OpShr, isa.OpSar, isa.OpMul, isa.OpCmp,
		isa.OpAddI, isa.OpAndI, isa.OpOrI, isa.OpXorI,
		isa.OpShlI, isa.OpShrI, isa.OpSarI, isa.OpMulI, isa.OpCmpI:
		return true
	}
	return false
}

// flagWriter reports whether op writes any PSW flag.
func flagWriter(op isa.Opcode) bool {
	return fullFlagKiller(op) || op == isa.OpDiv || op == isa.OpRem
}

// inert reports whether op neither writes flags, nor faults, nor
// transfers control: it is transparent to the flag-liveness scan.
func inert(op isa.Opcode) bool {
	switch op {
	case isa.OpNop, isa.OpMovI, isa.OpMovHI, isa.OpMovX, isa.OpMov,
		isa.OpMovA, isa.OpMovDA, isa.OpMovAD, isa.OpLea, isa.OpLeaO,
		isa.OpInsert, isa.OpInsertX, isa.OpExtractU, isa.OpExtractS:
		return true
	}
	return false
}

// terminator reports whether op ends a superblock in-block: the backend
// lowers it as the block's final step (it computes the successor PC).
// None of these can fault or observe the PSW.
func terminator(op isa.Opcode) bool {
	switch op {
	case isa.OpJmp, isa.OpJI, isa.OpCall, isa.OpCallI, isa.OpRet,
		isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge, isa.OpBltU, isa.OpBgeU:
		return true
	}
	return false
}

// IsTerminator reports whether op ends a superblock as a control
// transfer. Lowering backends use it to tell a control-ending block
// (final step sets the successor PC itself) from a straight-line-ending
// one that needs an explicit fallthrough epilogue.
func IsTerminator(op isa.Opcode) bool { return terminator(op) }

// EndsBlock reports whether op is the last instruction of any superblock
// containing it: a control transfer, or an op Form refuses to admit
// (HALT, TRAP, RFE, CSR access — the interpreter-only repertoire). The
// instruction after an EndsBlock op is always a block leader; analysis
// tools use this to reason about where translated blocks can begin.
func EndsBlock(op isa.Opcode) bool { return terminator(op) || !translatable(op) }

// translatable reports whether op may appear inside a superblock at all.
// Everything else (HALT, DEBUG, TRAP, RFE, MFCR, MTCR, unknown encodings)
// ends the block before it and executes on the interpreter, which keeps
// trap entry, PSW observation, and stop-reason handling on the one
// authoritative path.
func translatable(op isa.Opcode) bool {
	return inert(op) || memOp(op) || flagWriter(op) || terminator(op)
}

// Form builds the superblock entered at pc from the core's predecode
// tables (shared ROM table and per-core RAM overlay). It returns nil when
// pc has no predecoded entry — outside both tables, misaligned, a
// poisoned page, or an encoding that failed to decode — which is exactly
// predecode's slow-path territory: the caller must fall back to the
// interpreter.
//
// cyclesPerInst is the core's base instruction cost; maxAccess is an
// upper bound on any single data-access wait (Bus.MaxAccessCost), used to
// make Block.MaxCost a true upper bound.
func Form(rom, ram *predecode.Table, pc uint32, cyclesPerInst, maxAccess uint64) *Block {
	if pc&3 != 0 {
		return nil
	}
	page, base := rom.PageFor(pc)
	table, isROM := rom, true
	if page == nil {
		page, base = ram.PageFor(pc)
		table, isROM = ram, false
		if page == nil {
			return nil
		}
	}
	b := &Block{Start: pc, ROM: isROM, table: table, page: page}
	off := pc - base
	for len(b.Steps) < MaxSteps {
		if off >= predecode.PageBytes {
			break // page boundary: the next page may be independently poisoned
		}
		e := page.EntryAt(off)
		if e == nil {
			break // undecodable slot: interpreter raises the trap
		}
		if off+e.Size*4 > predecode.PageBytes {
			// The extension word lives in the next page; executing it from
			// this block would dodge that page's poison protocol. The
			// interpreter's per-step lookup handles the straddle.
			break
		}
		op := e.Inst.Op
		if !translatable(op) {
			break
		}
		st := Step{
			PC:   base + off,
			In:   e.Inst,
			Size: e.Size,
			Cost: cyclesPerInst + uint64(e.Size)*e.Wait,
		}
		b.MaxCost += st.Cost
		if memOp(op) {
			b.MaxCost += maxAccess
		}
		b.Steps = append(b.Steps, st)
		off += e.Size * 4
		if terminator(op) {
			if op.IsBranch() {
				b.MaxCost++ // taken-branch penalty
			}
			break
		}
	}
	if len(b.Steps) == 0 {
		return nil
	}
	b.Span = off - (pc - base)
	elideDeadFlags(b.Steps)
	return b
}

// elideDeadFlags marks flag writes that a later full flag killer in the
// same block overwrites with no possible early exit in between. An early
// exit (memory fault, division trap, block end) would make the PSW
// architecturally observable in the handler, so only a run of inert
// instructions may separate the dead write from its killer.
func elideDeadFlags(steps []Step) {
	for i := range steps {
		if !flagWriter(steps[i].In.Op) {
			continue
		}
	scan:
		for j := i + 1; j < len(steps); j++ {
			op := steps[j].In.Op
			switch {
			case fullFlagKiller(op):
				steps[i].ElideFlags = true
				break scan
			case inert(op):
				continue
			default:
				break scan // fault-capable or control transfer: flags live
			}
		}
	}
}

func (b *Block) String() string {
	return fmt.Sprintf("block@0x%08x: %d insts, %d bytes, maxcost %d, rom=%v",
		b.Start, len(b.Steps), b.Span, b.MaxCost, b.ROM)
}

// Package-wide counters, mirroring predecode's pattern: per-run counts
// are accumulated in plain core-local fields and folded in once per run
// (AddRunStats), keeping atomics off the dispatch hot path.
var stats struct {
	built, executed, invalidated, fallbacks atomic.Uint64
}

// AddRunStats folds one run's counters into the global totals:
// superblocks built (translated), block executions dispatched, blocks
// dropped by the poison protocol, and exits from translated execution
// back to the interpreter.
func AddRunStats(built, executed, invalidated, fallbacks uint64) {
	if built == 0 && executed == 0 && invalidated == 0 && fallbacks == 0 {
		return
	}
	stats.built.Add(built)
	stats.executed.Add(executed)
	stats.invalidated.Add(invalidated)
	stats.fallbacks.Add(fallbacks)
}

// Stats is a snapshot of the package counters.
type Stats struct {
	// Built counts superblocks translated; Executed counts block
	// dispatches; Invalidated counts blocks dropped after their source
	// page was poisoned; Fallbacks counts exits from translated
	// execution to the interpreter (no block, armed telemetry, low tick
	// budget, faults, limits margins).
	Built, Executed, Invalidated, Fallbacks uint64
}

// GlobalStats snapshots the process-wide counters.
func GlobalStats() Stats {
	return Stats{
		Built:       stats.built.Load(),
		Executed:    stats.executed.Load(),
		Invalidated: stats.invalidated.Load(),
		Fallbacks:   stats.fallbacks.Load(),
	}
}

// ResetStats zeroes the global counters (benchmarks and tests).
func ResetStats() {
	stats.built.Store(0)
	stats.executed.Store(0)
	stats.invalidated.Store(0)
	stats.fallbacks.Store(0)
}

func (s Stats) String() string {
	return fmt.Sprintf("%d blocks translated, %d executed, %d invalidated, %d fallback exits",
		s.Built, s.Executed, s.Invalidated, s.Fallbacks)
}
