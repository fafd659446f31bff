package golden

// Superblock execution backend: lowers internal/translate blocks into
// threaded chains of specialised closures over this core and dispatches
// them. The discipline is bit-identical-to-interpreter — every engine
// must produce the same architectural state, instruction/cycle counts,
// and stop reasons as Step()/RunCore's interpreter path:
//
//   - Blocks only run when no telemetry sink, trace callback, or debug
//     stop is armed (RunCore falls back to the interpreter otherwise).
//   - A block is dispatched only when its worst-case cycle cost fits
//     strictly inside the bus tick budget, so no device event (timer,
//     watchdog, UART shifter) can fire mid-block and the single
//     event/cancellation check per block entry observes exactly what the
//     interpreter's per-instruction polling would.
//   - Device ticks are accumulated in tickDebt and delivered before any
//     data access and at block exit, so peripheral registers always see
//     the same device-local time as under per-instruction ticking.
//   - A peripheral access or a store into the block's own code exits the
//     block immediately after committing the instruction (xSplit): the
//     between-instructions poll and the poison protocol take over.
//   - Memory faults and divide-by-zero dispatch their trap in-closure
//     (transTrap), replicating the interpreter's Step commit exactly,
//     because the faulting access may already have had a side effect
//     (an MPU-vetoed write counts the veto) and must not run twice.

import (
	"context"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/platform"
	"repro/internal/predecode"
	"repro/internal/translate"
)

// xres is a closure's verdict on how execution continues.
type xres uint8

const (
	// xNext: instruction committed, continue with the next closure.
	xNext xres = iota
	// xDone: block completed; PC holds the successor address.
	xDone
	// xSplit: instruction committed and PC set to its successor, but the
	// block must exit for an event re-poll (peripheral access touched
	// device state, or a store hit this block's own code).
	xSplit
	// xBail: instruction NOT executed; PC holds its address and the
	// interpreter must run it. Only the lowering-skew safety net uses
	// this: re-executing is safe only for an instruction that performed
	// no side effect, so anything that touched the bus must NOT bail
	// (a vetoed write already bumped the MPU's blocked-access counter —
	// data faults trap in-closure via transTrap instead).
	xBail
	// xUnhandled: an in-closure trap found no handler; the run stops
	// with StopUnhandled (the instruction still committed, as on the
	// interpreter).
	xUnhandled
)

// xop is one lowered instruction. Operands are pre-bound at translation
// time; the core is the only runtime argument.
type xop func(c *Core) xres

// noPC is an impossible successor address (misaligned), used as the
// "no static successor" marker for chain links.
const noPC = uint32(1)

// transCacheCap bounds the per-core block cache; pathological
// self-modifying churn drops the whole cache rather than growing it.
const transCacheCap = 8192

// transCooldownSteps is how many interpreter steps to run after a
// low-tick-budget fallback before trying translated dispatch again: the
// budget only recovers once the pending device event fires.
const transCooldownSteps = 32

// xblock is a lowered superblock plus its dispatch metadata.
type xblock struct {
	start   uint32
	ops     []xop
	n       uint64 // instruction count
	maxCost uint64 // upper bound on cycles one execution burns
	stable  bool   // ROM source: page can never be poisoned
	meta    *translate.Block
	// Static successor chaining: when the block ends in a direct jump,
	// call, fallthrough, or two-way branch, the successor blocks are
	// linked lazily so hot loops dispatch block-to-block without a map
	// lookup. Links self-heal: every entry re-validates the block.
	takenPC, fallPC uint32
	taken, fall     *xblock
	// bare, present only for a pure self-loop (taken edge back to this
	// block's own start, no memory ops, no DIV/REM), is the block body
	// without per-instruction counter commits: no closure can fault,
	// split, or observe Insts/Cycles mid-pass, so a batched run executes
	// bare passes and settles the counters arithmetically afterwards
	// (passes*n instructions, passes*maxCost cycles). condEnd marks a
	// conditional-branch terminator, whose final fall-through pass costs
	// one cycle less (no taken-branch penalty).
	bare    []func(c *Core)
	condEnd bool
	// loop is set for the canonical counted-loop shape
	// [ADDI d,d,K ; Bcc d,b,self] (b invariant): the exit trip count is
	// then solvable in closed form, so a whole batch collapses to O(1)
	// arithmetic on the final state instead of per-pass execution.
	loop *countedLoop
}

// countedLoop describes a recognised [ADDI d,d,K ; Bcc d,b,self] block.
// Each pass computes d += K and loops while cmp(d, b) holds; within a
// batch no intermediate state is observable (same proof as bare
// batching), so only the final d, the last pass's ADDI flags, the PC
// and the counters need materialising.
type countedLoop struct {
	d, b  uint8  // counter and bound registers (D file)
	k     uint32 // per-pass step, wrapping
	op    isa.Opcode
	cmp   func(a, b uint32) bool
	elide bool // the ADDI's flags are dead in-block (never here: live-out past a branch)
}

// commitInst retires one translated instruction: the counters the
// interpreter's Step/finish pair would have advanced.
func (c *Core) commitInst(cost uint64) {
	c.Insts++
	c.Cycles += cost
	c.tickDebt += cost
}

// flushDebt delivers accumulated cycles to the bus tickers. Called
// before any data access (so peripherals see current device time) and at
// block exit (restoring the interpreter's tick-per-instruction
// invariant at every between-instructions point).
func (c *Core) flushDebt() {
	if d := c.tickDebt; d != 0 {
		c.tickDebt = 0
		c.S.Bus.Tick(d)
	}
}

// transTrap dispatches an architectural trap from inside a translated
// block, replicating the interpreter's Step exactly: the faulting
// instruction consumes an issue slot (Insts++) and commits its cycle
// cost plus the handler-vector read, and execution continues at the
// handler (or the run stops if no handler is installed). cost must
// already include any wait states the faulting access burned. Traps are
// handled here rather than by bailing to the interpreter because the
// faulting access already happened — re-executing it would double its
// side effects (an MPU-vetoed write counts the veto).
func (c *Core) transTrap(vec int, pc uint32, cost uint64) xres {
	c.stepCost = cost
	c.PC = pc
	out := c.trap(vec, pc, uint32(vec)) // adds the handler read to stepCost
	c.Insts++
	c.Cycles += c.stepCost
	c.tickDebt += c.stepCost
	if out == StepUnhandled {
		return xUnhandled
	}
	return xSplit
}

// setFlagsLogic applies the ALU flag update for the logical/shift/mul
// group: Z/N from the result, C/V cleared (mirrors Core.alu).
func (c *Core) setFlagsLogic(res uint32) {
	c.setFlagsZN(res)
	c.PSW &^= isa.FlagC | isa.FlagV
}

// lowerBlock lowers a formed superblock into a threaded closure chain.
func lowerBlock(mb *translate.Block) *xblock {
	xb := &xblock{
		start:   mb.Start,
		n:       uint64(len(mb.Steps)),
		maxCost: mb.MaxCost,
		stable:  mb.ROM,
		meta:    mb,
		takenPC: noPC,
		fallPC:  noPC,
	}
	// Stores into [selfLo, selfLo+selfSpan) may overwrite this block's
	// own code (a word store up to 3 bytes before the block can clip its
	// first instruction): they commit, then exit for retranslation.
	selfLo, selfSpan := mb.Start-3, mb.Span+3
	ops := make([]xop, 0, len(mb.Steps)+1)
	for i := range mb.Steps {
		ops = append(ops, lowerStep(&mb.Steps[i], xb, selfLo, selfSpan))
	}
	last := &mb.Steps[len(mb.Steps)-1]
	if !translate.IsTerminator(last.In.Op) {
		// Straight-line end (page boundary or untranslatable successor):
		// materialise the fallthrough PC.
		end := last.PC + last.Size*4
		xb.fallPC = end
		ops = append(ops, func(c *Core) xres {
			c.PC = end
			return xDone
		})
	}
	xb.ops = ops
	if xb.takenPC == xb.start {
		xb.lowerBare(mb)
	}
	return xb
}

// lowerBare builds the commit-free body for a pure self-loop block (see
// xblock.bare). It refuses (leaving bare nil) if any step can fault or
// needs per-instruction cost accounting.
func (xb *xblock) lowerBare(mb *translate.Block) {
	bare := make([]func(c *Core), 0, len(mb.Steps))
	for i := range mb.Steps {
		op := lowerBareStep(&mb.Steps[i])
		if op == nil {
			return
		}
		bare = append(bare, op)
	}
	xb.bare = bare
	xb.condEnd = mb.Steps[len(mb.Steps)-1].In.Op.IsBranch()
	xb.recogniseCountedLoop(mb)
}

// recogniseCountedLoop matches the two-instruction counted-loop idiom
// [ADDI d,d,K ; Bcc d,b,self]. The bound register must differ from the
// counter (nothing else in the block writes it, so it is loop-invariant)
// and the counter must be the branch's left operand.
func (xb *xblock) recogniseCountedLoop(mb *translate.Block) {
	if len(mb.Steps) != 2 {
		return
	}
	add, br := &mb.Steps[0].In, &mb.Steps[1].In
	if add.Op != isa.OpAddI || add.Rd != add.Rs {
		return
	}
	switch br.Op {
	case isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge, isa.OpBltU, isa.OpBgeU:
	default:
		return
	}
	if br.Rd != add.Rd || br.Rs == add.Rd {
		return
	}
	xb.loop = &countedLoop{
		d:     add.Rd.Index(),
		b:     br.Rs.Index(),
		k:     uint32(add.Imm),
		op:    br.Op,
		cmp:   branchFn(br.Op),
		elide: mb.Steps[0].ElideFlags,
	}
}

// trips solves for the batch size of a counted loop starting with
// counter value s and bound bv: t is the number of passes to execute
// (1 <= t <= reps) and exited reports whether pass t falls through (the
// branch condition failed). ok=false punts to pass-by-pass execution —
// only when the very first pass would wrap the counter out of the
// monotone window, which the closed forms below cannot model.
//
// Pass i leaves the counter at v_i = s + i*K (mod 2^32). For the
// ordered comparisons the solver works on the unwrapped int64 sequence,
// valid up to the wrap window W (the largest i for which no pass has
// overflowed); the sequence is monotone there, so the first failing
// pass is a division away. An exit beyond min(W, reps) just means the
// whole batch is taken; capping at W keeps every settled pass exact,
// and the next batch re-enters with the wrapped value as its new s.
// The equality comparisons need no window: BEQ can only survive one
// pass (v_2 = bv+K != bv for K != 0), and BNE exits at the solution of
// i*K = bv-s (mod 2^32), found with the 2-adic inverse, or never when
// no solution exists.
func (l *countedLoop) trips(s, bv uint32, reps uint64) (t uint64, exited, ok bool) {
	if l.k == 0 {
		// The counter never moves: the condition is constant.
		if l.cmp(s, bv) {
			return reps, false, true
		}
		return 1, true, true
	}
	switch l.op {
	case isa.OpBeq:
		if s+l.k != bv {
			return 1, true, true
		}
		if reps < 2 {
			return 1, false, true
		}
		return 2, true, true // v_2 = bv+K != bv for K != 0
	case isa.OpBne:
		g := l.k & -l.k // gcd(K, 2^32), a power of two
		diff := bv - s
		if diff%g != 0 {
			return reps, false, true // no solution: never exits
		}
		mod := uint64(1<<32) / uint64(g)
		i0 := uint64(diff/g) * uint64(inv32(l.k/g)) % mod
		if i0 == 0 {
			i0 = mod // solution at a full period, not at "never started"
		}
		if i0 <= reps {
			return i0, true, true
		}
		return reps, false, true
	}

	// Ordered comparisons: monotone int64 sequence within the window.
	var w, i0 int64 // window size; first failing pass (0 = none in window)
	if l.op == isa.OpBltU || l.op == isa.OpBgeU {
		su, bu, du := int64(s), int64(bv), int64(int32(l.k))
		if du > 0 {
			w = (int64(^uint32(0)) - su) / du
			if l.op == isa.OpBltU { // exit at first s+i*du >= bu
				if num := bu - su; num <= 0 {
					i0 = 1
				} else {
					i0 = (num + du - 1) / du
				}
			} else if su+du < bu { // BGEU increasing: fails only immediately
				i0 = 1
			}
		} else {
			m := -du
			w = su / m
			if l.op == isa.OpBgeU { // exit at first s-i*m < bu
				if num := su - bu; num < 0 {
					i0 = 1
				} else {
					i0 = num/m + 1
				}
			} else if su-m >= bu { // BLTU decreasing: fails only immediately
				i0 = 1
			}
		}
	} else {
		sv, bs, kv := int64(int32(s)), int64(int32(bv)), int64(int32(l.k))
		if kv > 0 {
			w = (int64(1<<31-1) - sv) / kv
			if l.op == isa.OpBlt { // exit at first s+i*k >= bs
				if num := bs - sv; num <= 0 {
					i0 = 1
				} else {
					i0 = (num + kv - 1) / kv
				}
			} else if sv+kv < bs { // BGE increasing: fails only immediately
				i0 = 1
			}
		} else {
			m := -kv
			w = (sv + int64(1)<<31) / m
			if l.op == isa.OpBge { // exit at first s-i*m < bs
				if num := sv - bs; num < 0 {
					i0 = 1
				} else {
					i0 = num/m + 1
				}
			} else if sv-m >= bs { // BLT decreasing: fails only immediately
				i0 = 1
			}
		}
	}
	if w < 1 {
		return 0, false, false // first pass already wraps: run it for real
	}
	lim := uint64(w)
	if reps < lim {
		lim = reps
	}
	if i0 >= 1 && uint64(i0) <= lim {
		return uint64(i0), true, true
	}
	return lim, false, true
}

// inv32 returns the multiplicative inverse of odd x modulo 2^32
// (Newton's method: five doublings of precision from a 5-bit seed).
func inv32(x uint32) uint32 {
	y := x // correct to 5 bits for odd x
	for i := 0; i < 4; i++ {
		y *= 2 - x*y
	}
	return y
}

// runCountedLoop settles a batch of a recognised counted loop in O(1):
// final counter value, the last pass's ADDI flags (reconstructed from
// the value before the final add), the PC, and the run counters. Flag
// reconstruction is exact because the branch writes no flags, so the
// architectural flags after the batch are precisely those of the final
// ADDI. Returns false to punt to pass-by-pass execution.
func (c *Core) runCountedLoop(xb *xblock, reps uint64) bool {
	l := xb.loop
	s, bv := c.D[l.d], c.D[l.b]
	t, exited, ok := l.trips(s, bv, reps)
	if !ok {
		return false
	}
	res := s + uint32(t)*l.k
	c.D[l.d] = res
	if !l.elide {
		c.setFlagsAddSub(res-l.k, l.k, res, false)
	}
	cost := t * xb.maxCost
	if exited {
		c.PC = xb.fallPC
		cost-- // final fall-through pass: no taken-branch penalty
	} else {
		c.PC = xb.start
	}
	c.Insts += t * xb.n
	c.Cycles += cost
	c.tickDebt += cost
	c.tExec += t
	return true
}

// lowerBareStep lowers one instruction of a pure block without the
// counter commit. nil means the op needs the committing path (memory
// access, DIV/REM, or anything else with dynamic cost or fault
// potential).
func lowerBareStep(st *translate.Step) func(c *Core) {
	in := st.In
	op := in.Op
	next := st.PC + st.Size*4
	elide := st.ElideFlags
	rd, rs, rt := in.Rd.Index(), in.Rs.Index(), in.Rt.Index()
	imm := uint32(in.Imm)

	switch op {
	case isa.OpNop:
		return func(c *Core) {}
	case isa.OpMovI, isa.OpMovX:
		return func(c *Core) { c.D[rd] = imm }
	case isa.OpMovHI:
		v := imm << 16
		return func(c *Core) { c.D[rd] = v }
	case isa.OpMov:
		return func(c *Core) { c.D[rd] = c.D[rs] }
	case isa.OpMovA:
		return func(c *Core) { c.A[rd] = c.A[rs] }
	case isa.OpMovDA:
		return func(c *Core) { c.D[rd] = c.A[rs] }
	case isa.OpMovAD:
		return func(c *Core) { c.A[rd] = c.D[rs] }
	case isa.OpLea:
		return func(c *Core) { c.A[rd] = imm }
	case isa.OpLeaO:
		return func(c *Core) { c.A[rd] = c.A[rs] + imm }

	case isa.OpAdd:
		if elide {
			return func(c *Core) { c.D[rd] = c.D[rs] + c.D[rt] }
		}
		return func(c *Core) {
			a, b := c.D[rs], c.D[rt]
			res := a + b
			c.D[rd] = res
			c.setFlagsAddSub(a, b, res, false)
		}
	case isa.OpSub:
		if elide {
			return func(c *Core) { c.D[rd] = c.D[rs] - c.D[rt] }
		}
		return func(c *Core) {
			a, b := c.D[rs], c.D[rt]
			res := a - b
			c.D[rd] = res
			c.setFlagsAddSub(a, b, res, true)
		}
	case isa.OpAnd, isa.OpOr, isa.OpXor, isa.OpShl, isa.OpShr, isa.OpSar, isa.OpMul:
		f := logicFn(op)
		if elide {
			return func(c *Core) { c.D[rd] = f(c.D[rs], c.D[rt]) }
		}
		return func(c *Core) {
			res := f(c.D[rs], c.D[rt])
			c.D[rd] = res
			c.setFlagsLogic(res)
		}
	case isa.OpAddI:
		if elide {
			return func(c *Core) { c.D[rd] = c.D[rs] + imm }
		}
		return func(c *Core) {
			a := c.D[rs]
			res := a + imm
			c.D[rd] = res
			c.setFlagsAddSub(a, imm, res, false)
		}
	case isa.OpAndI, isa.OpOrI, isa.OpXorI, isa.OpShlI, isa.OpShrI, isa.OpSarI, isa.OpMulI:
		b := imm
		if op != isa.OpMulI {
			b &= 0xffff
		}
		f := logicFn(regForm(op))
		if elide {
			return func(c *Core) { c.D[rd] = f(c.D[rs], b) }
		}
		return func(c *Core) {
			res := f(c.D[rs], b)
			c.D[rd] = res
			c.setFlagsLogic(res)
		}
	case isa.OpCmp:
		if elide {
			return func(c *Core) {}
		}
		return func(c *Core) {
			a, b := c.D[rs], c.D[rt]
			c.setFlagsAddSub(a, b, a-b, true)
		}
	case isa.OpCmpI:
		if elide {
			return func(c *Core) {}
		}
		return func(c *Core) {
			a := c.D[rs]
			c.setFlagsAddSub(a, imm, a-imm, true)
		}

	case isa.OpInsert:
		pos, width := in.Pos, in.Width
		return func(c *Core) { c.D[rd] = isa.InsertBits(c.D[rs], c.D[rt], pos, width) }
	case isa.OpInsertX:
		pos, width := in.Pos, in.Width
		return func(c *Core) { c.D[rd] = isa.InsertBits(c.D[rs], imm, pos, width) }
	case isa.OpExtractU:
		pos, width := in.Pos, in.Width
		return func(c *Core) { c.D[rd] = isa.ExtractBitsU(c.D[rs], pos, width) }
	case isa.OpExtractS:
		pos, width := in.Pos, in.Width
		return func(c *Core) { c.D[rd] = isa.ExtractBitsS(c.D[rs], pos, width) }

	case isa.OpJmp:
		return func(c *Core) { c.PC = imm }
	case isa.OpCall:
		ra := isa.RA.Index()
		return func(c *Core) { c.A[ra] = next; c.PC = imm }
	case isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge, isa.OpBltU, isa.OpBgeU:
		target := next + imm*4
		cmp := branchFn(op)
		return func(c *Core) {
			if cmp(c.D[rd], c.D[rs]) {
				c.PC = target
			} else {
				c.PC = next
			}
		}
	}
	return nil
}

// regForm maps an immediate-form ALU opcode to its register form (for
// logicFn dispatch).
func regForm(op isa.Opcode) isa.Opcode {
	switch op {
	case isa.OpAndI:
		return isa.OpAnd
	case isa.OpOrI:
		return isa.OpOr
	case isa.OpXorI:
		return isa.OpXor
	case isa.OpShlI:
		return isa.OpShl
	case isa.OpShrI:
		return isa.OpShr
	case isa.OpSarI:
		return isa.OpSar
	default:
		return isa.OpMul
	}
}

// lowerStep lowers one instruction to a specialised closure. The switch
// runs once at translation time; the returned closure carries pre-bound
// operands only.
func lowerStep(st *translate.Step, xb *xblock, selfLo, selfSpan uint32) xop {
	in := st.In
	op := in.Op
	pc := st.PC
	next := pc + st.Size*4
	cost := st.Cost
	elide := st.ElideFlags
	rd, rs, rt := in.Rd.Index(), in.Rs.Index(), in.Rt.Index()
	imm := uint32(in.Imm)

	switch op {
	case isa.OpNop:
		return func(c *Core) xres { c.commitInst(cost); return xNext }

	case isa.OpMovI, isa.OpMovX:
		return func(c *Core) xres { c.D[rd] = imm; c.commitInst(cost); return xNext }
	case isa.OpMovHI:
		v := imm << 16
		return func(c *Core) xres { c.D[rd] = v; c.commitInst(cost); return xNext }
	case isa.OpMov:
		return func(c *Core) xres { c.D[rd] = c.D[rs]; c.commitInst(cost); return xNext }
	case isa.OpMovA:
		return func(c *Core) xres { c.A[rd] = c.A[rs]; c.commitInst(cost); return xNext }
	case isa.OpMovDA:
		return func(c *Core) xres { c.D[rd] = c.A[rs]; c.commitInst(cost); return xNext }
	case isa.OpMovAD:
		return func(c *Core) xres { c.A[rd] = c.D[rs]; c.commitInst(cost); return xNext }
	case isa.OpLea:
		return func(c *Core) xres { c.A[rd] = imm; c.commitInst(cost); return xNext }
	case isa.OpLeaO:
		return func(c *Core) xres { c.A[rd] = c.A[rs] + imm; c.commitInst(cost); return xNext }

	case isa.OpLdW, isa.OpLdA, isa.OpLdWX:
		isAddr := op == isa.OpLdA
		abs := op == isa.OpLdWX
		return func(c *Core) xres {
			addr := imm
			if !abs {
				addr += c.A[rs]
			}
			c.flushDebt()
			v, err := c.S.Bus.Read32(addr, mem.AccessRead)
			if err != nil {
				return c.transTrap(isa.VecMemFault, pc, cost+c.S.Bus.LastCost)
			}
			if isAddr {
				c.A[rd] = v
			} else {
				c.D[rd] = v
			}
			c.commitInst(cost + c.S.Bus.LastCost)
			if c.S.Bus.LastPeriph {
				c.PC = next
				return xSplit
			}
			return xNext
		}
	case isa.OpLdH, isa.OpLdHU:
		signed := op == isa.OpLdH
		return func(c *Core) xres {
			addr := c.A[rs] + imm
			c.flushDebt()
			v, err := c.S.Bus.Read16(addr, mem.AccessRead)
			if err != nil {
				return c.transTrap(isa.VecMemFault, pc, cost+c.S.Bus.LastCost)
			}
			if signed {
				c.D[rd] = uint32(int32(int16(v)))
			} else {
				c.D[rd] = uint32(v)
			}
			c.commitInst(cost + c.S.Bus.LastCost)
			return xNext
		}
	case isa.OpLdB, isa.OpLdBU:
		signed := op == isa.OpLdB
		return func(c *Core) xres {
			addr := c.A[rs] + imm
			c.flushDebt()
			v, err := c.S.Bus.Read8(addr, mem.AccessRead)
			if err != nil {
				return c.transTrap(isa.VecMemFault, pc, cost+c.S.Bus.LastCost)
			}
			if signed {
				c.D[rd] = uint32(int32(int8(v)))
			} else {
				c.D[rd] = uint32(v)
			}
			c.commitInst(cost + c.S.Bus.LastCost)
			return xNext
		}

	case isa.OpStW, isa.OpStA, isa.OpStWX:
		isAddr := op == isa.OpStA
		abs := op == isa.OpStWX
		return func(c *Core) xres {
			addr := imm
			if !abs {
				addr += c.A[rs]
			}
			v := c.D[rd]
			if isAddr {
				v = c.A[rd]
			}
			c.flushDebt()
			if err := c.S.Bus.Write32(addr, v); err != nil {
				return c.transTrap(isa.VecMemFault, pc, cost+c.S.Bus.LastCost)
			}
			c.pdRam.Invalidate(addr)
			c.commitInst(cost + c.S.Bus.LastCost)
			if c.S.Bus.LastPeriph || addr-selfLo < selfSpan {
				c.PC = next
				return xSplit
			}
			return xNext
		}
	case isa.OpStH:
		return func(c *Core) xres {
			addr := c.A[rs] + imm
			c.flushDebt()
			if err := c.S.Bus.Write16(addr, uint16(c.D[rd])); err != nil {
				return c.transTrap(isa.VecMemFault, pc, cost+c.S.Bus.LastCost)
			}
			c.pdRam.Invalidate(addr)
			c.commitInst(cost + c.S.Bus.LastCost)
			if addr-selfLo < selfSpan {
				c.PC = next
				return xSplit
			}
			return xNext
		}
	case isa.OpStB:
		return func(c *Core) xres {
			addr := c.A[rs] + imm
			c.flushDebt()
			if err := c.S.Bus.Write8(addr, byte(c.D[rd])); err != nil {
				return c.transTrap(isa.VecMemFault, pc, cost+c.S.Bus.LastCost)
			}
			c.pdRam.Invalidate(addr)
			c.commitInst(cost + c.S.Bus.LastCost)
			if addr-selfLo < selfSpan {
				c.PC = next
				return xSplit
			}
			return xNext
		}

	case isa.OpAdd:
		if elide {
			return func(c *Core) xres { c.D[rd] = c.D[rs] + c.D[rt]; c.commitInst(cost); return xNext }
		}
		return func(c *Core) xres {
			a, b := c.D[rs], c.D[rt]
			res := a + b
			c.D[rd] = res
			c.setFlagsAddSub(a, b, res, false)
			c.commitInst(cost)
			return xNext
		}
	case isa.OpSub:
		if elide {
			return func(c *Core) xres { c.D[rd] = c.D[rs] - c.D[rt]; c.commitInst(cost); return xNext }
		}
		return func(c *Core) xres {
			a, b := c.D[rs], c.D[rt]
			res := a - b
			c.D[rd] = res
			c.setFlagsAddSub(a, b, res, true)
			c.commitInst(cost)
			return xNext
		}
	case isa.OpAnd, isa.OpOr, isa.OpXor, isa.OpShl, isa.OpShr, isa.OpSar, isa.OpMul:
		f := logicFn(op)
		if elide {
			return func(c *Core) xres { c.D[rd] = f(c.D[rs], c.D[rt]); c.commitInst(cost); return xNext }
		}
		return func(c *Core) xres {
			res := f(c.D[rs], c.D[rt])
			c.D[rd] = res
			c.setFlagsLogic(res)
			c.commitInst(cost)
			return xNext
		}
	case isa.OpAddI:
		if elide {
			return func(c *Core) xres { c.D[rd] = c.D[rs] + imm; c.commitInst(cost); return xNext }
		}
		return func(c *Core) xres {
			a := c.D[rs]
			res := a + imm
			c.D[rd] = res
			c.setFlagsAddSub(a, imm, res, false)
			c.commitInst(cost)
			return xNext
		}
	case isa.OpAndI, isa.OpOrI, isa.OpXorI, isa.OpShlI, isa.OpShrI, isa.OpSarI, isa.OpMulI:
		b := imm
		var f func(a, b uint32) uint32
		switch op {
		case isa.OpAndI:
			b &= 0xffff
			f = logicFn(isa.OpAnd)
		case isa.OpOrI:
			b &= 0xffff
			f = logicFn(isa.OpOr)
		case isa.OpXorI:
			b &= 0xffff
			f = logicFn(isa.OpXor)
		case isa.OpShlI:
			b &= 0xffff
			f = logicFn(isa.OpShl)
		case isa.OpShrI:
			b &= 0xffff
			f = logicFn(isa.OpShr)
		case isa.OpSarI:
			b &= 0xffff
			f = logicFn(isa.OpSar)
		case isa.OpMulI:
			f = logicFn(isa.OpMul)
		}
		if elide {
			return func(c *Core) xres { c.D[rd] = f(c.D[rs], b); c.commitInst(cost); return xNext }
		}
		return func(c *Core) xres {
			res := f(c.D[rs], b)
			c.D[rd] = res
			c.setFlagsLogic(res)
			c.commitInst(cost)
			return xNext
		}
	case isa.OpCmp:
		if elide {
			return func(c *Core) xres { c.commitInst(cost); return xNext }
		}
		return func(c *Core) xres {
			a, b := c.D[rs], c.D[rt]
			c.setFlagsAddSub(a, b, a-b, true)
			c.commitInst(cost)
			return xNext
		}
	case isa.OpCmpI:
		if elide {
			return func(c *Core) xres { c.commitInst(cost); return xNext }
		}
		return func(c *Core) xres {
			a := c.D[rs]
			c.setFlagsAddSub(a, imm, a-imm, true)
			c.commitInst(cost)
			return xNext
		}
	case isa.OpDiv, isa.OpRem:
		return func(c *Core) xres {
			b := c.D[rt]
			if b == 0 {
				return c.transTrap(isa.VecDivZero, pc, cost)
			}
			res := divide(op, c.D[rs], b)
			c.D[rd] = res
			if !elide {
				c.setFlagsZN(res)
			}
			c.commitInst(cost)
			return xNext
		}

	case isa.OpInsert:
		pos, width := in.Pos, in.Width
		return func(c *Core) xres {
			c.D[rd] = isa.InsertBits(c.D[rs], c.D[rt], pos, width)
			c.commitInst(cost)
			return xNext
		}
	case isa.OpInsertX:
		pos, width := in.Pos, in.Width
		return func(c *Core) xres {
			c.D[rd] = isa.InsertBits(c.D[rs], imm, pos, width)
			c.commitInst(cost)
			return xNext
		}
	case isa.OpExtractU:
		pos, width := in.Pos, in.Width
		return func(c *Core) xres {
			c.D[rd] = isa.ExtractBitsU(c.D[rs], pos, width)
			c.commitInst(cost)
			return xNext
		}
	case isa.OpExtractS:
		pos, width := in.Pos, in.Width
		return func(c *Core) xres {
			c.D[rd] = isa.ExtractBitsS(c.D[rs], pos, width)
			c.commitInst(cost)
			return xNext
		}

	case isa.OpJmp:
		xb.takenPC = imm
		return func(c *Core) xres { c.PC = imm; c.commitInst(cost); return xDone }
	case isa.OpJI:
		return func(c *Core) xres { c.PC = c.A[rs]; c.commitInst(cost); return xDone }
	case isa.OpCall:
		ra := isa.RA.Index()
		xb.takenPC = imm
		return func(c *Core) xres {
			c.A[ra] = next
			c.PC = imm
			c.commitInst(cost)
			return xDone
		}
	case isa.OpCallI:
		ra := isa.RA.Index()
		return func(c *Core) xres {
			c.A[ra] = next
			c.PC = c.A[rs]
			c.commitInst(cost)
			return xDone
		}
	case isa.OpRet:
		ra := isa.RA.Index()
		return func(c *Core) xres { c.PC = c.A[ra]; c.commitInst(cost); return xDone }

	case isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge, isa.OpBltU, isa.OpBgeU:
		target := next + imm*4
		xb.takenPC, xb.fallPC = target, next
		cmp := branchFn(op)
		return func(c *Core) xres {
			if cmp(c.D[rd], c.D[rs]) {
				c.PC = target
				c.commitInst(cost + 1) // taken-branch penalty
			} else {
				c.PC = next
				c.commitInst(cost)
			}
			return xDone
		}
	}
	// translate.Form only admits the ops above; an unknown op here is a
	// formation/lowering skew bug. Bail to the interpreter, which has
	// authoritative semantics for everything.
	return func(c *Core) xres { c.PC = pc; return xBail }
}

// logicFn returns the pure compute function for the logical/shift/mul
// ALU group (flag handling stays in the closure).
func logicFn(op isa.Opcode) func(a, b uint32) uint32 {
	switch op {
	case isa.OpAnd:
		return func(a, b uint32) uint32 { return a & b }
	case isa.OpOr:
		return func(a, b uint32) uint32 { return a | b }
	case isa.OpXor:
		return func(a, b uint32) uint32 { return a ^ b }
	case isa.OpShl:
		return func(a, b uint32) uint32 { return a << (b & 31) }
	case isa.OpShr:
		return func(a, b uint32) uint32 { return a >> (b & 31) }
	case isa.OpSar:
		return func(a, b uint32) uint32 { return uint32(int32(a) >> (b & 31)) }
	default: // OpMul
		return func(a, b uint32) uint32 { return a * b }
	}
}

// branchFn returns the comparison for a conditional branch.
func branchFn(op isa.Opcode) func(a, b uint32) bool {
	switch op {
	case isa.OpBeq:
		return func(a, b uint32) bool { return a == b }
	case isa.OpBne:
		return func(a, b uint32) bool { return a != b }
	case isa.OpBlt:
		return func(a, b uint32) bool { return int32(a) < int32(b) }
	case isa.OpBge:
		return func(a, b uint32) bool { return int32(a) >= int32(b) }
	case isa.OpBltU:
		return func(a, b uint32) bool { return a < b }
	default: // OpBgeU
		return func(a, b uint32) bool { return a >= b }
	}
}

// runBlock threads through the block's closure chain.
func (c *Core) runBlock(xb *xblock) xres {
	for _, op := range xb.ops {
		if r := op(c); r != xNext {
			return r
		}
	}
	return xDone
}

// transBlock returns the cached block entered at pc, translating it on
// first use. nil means pc is slow-path territory (poisoned page, outside
// the predecode tables, untranslatable first instruction): the caller
// must fall back to the interpreter.
func (c *Core) transBlock(pc uint32) *xblock {
	if xb := c.transCache[pc]; xb != nil {
		return xb
	}
	mb := translate.Form(c.pdRom, c.pdRam, pc, c.CyclesPerInst, c.transMaxAccess)
	if mb == nil {
		return nil
	}
	xb := lowerBlock(mb)
	c.tBuilt++
	if c.transCache == nil {
		c.transCache = make(map[uint32]*xblock, 64)
	} else if len(c.transCache) >= transCacheCap {
		// Pathological translation churn (heavy self-modification):
		// restart the cache instead of growing without bound.
		c.transCache = make(map[uint32]*xblock, 64)
	}
	c.transCache[pc] = xb
	return xb
}

// dropBlock discards an invalidated block (its source page was poisoned
// by a store). Chain links into it self-heal: every dispatch re-validates
// before running.
func (c *Core) dropBlock(xb *xblock) {
	if c.transCache[xb.start] == xb {
		delete(c.transCache, xb.start)
	}
	c.tInval++
}

// transSignal says why transRun returned.
type transSignal uint8

const (
	// transStep: no translated progress is possible at the current PC
	// (no block, tight limit margin, low tick budget, or an instruction
	// only the interpreter executes): the caller must run one
	// interpreter step.
	transStep transSignal = iota
	// transOuter: a run-loop condition (instruction/cycle limit, pending
	// async event, cancellation) must be handled by the outer RunCore
	// loop before execution can continue.
	transOuter
	// transUnhandled: a trap dispatched inside a block found no handler;
	// the run stops with StopUnhandled.
	transUnhandled
)

// transRun executes translated superblocks until it has to hand control
// back. It preserves the interpreter run loop's exact semantics: limits
// and async events are checked at every block entry, blocks never run
// unless they provably fit inside the remaining instruction, cycle, and
// device-event budgets, and cancellation is polled on the same
// CancelStride the interpreter uses.
func (c *Core) transRun(maxInsts, maxCycles uint64, ctx context.Context) transSignal {
	pollAt := c.Insts&^uint64(platform.CancelStride-1) + platform.CancelStride
	var xb *xblock
	for {
		if c.Insts >= maxInsts || c.Cycles >= maxCycles {
			return transOuter
		}
		if c.AsyncPending() {
			return transOuter
		}
		if ctx != nil && c.Insts >= pollAt {
			if ctx.Err() != nil {
				return transOuter
			}
			pollAt = c.Insts&^uint64(platform.CancelStride-1) + platform.CancelStride
		}
		pc := c.PC
		if xb == nil || xb.start != pc {
			if xb = c.transBlock(pc); xb == nil {
				c.tFallback++
				return transStep
			}
		}
		if !xb.stable && !xb.meta.Valid() {
			// Poison protocol: a store hit the source page. Drop the
			// block; retranslation from the poisoned page fails and the
			// interpreter's decode-per-step path takes over, exactly as
			// predecode handles self-modifying code.
			c.dropBlock(xb)
			xb = nil
			continue
		}
		if maxInsts-c.Insts < xb.n || maxCycles-c.Cycles < xb.maxCost {
			// The block could overshoot a limit mid-block; the
			// interpreter finishes the run with per-instruction checks.
			c.tFallback++
			return transStep
		}
		budget := c.S.Bus.TickBudget()
		if budget <= xb.maxCost {
			// A device event could fire mid-block; interpret until it
			// has been delivered.
			c.transCooldown = transCooldownSteps
			c.tFallback++
			return transStep
		}
		// Hot self-loop batching: when the block's taken edge loops back
		// to its own entry, run iterations back-to-back with no
		// per-entry checks. Nothing can change the async picture between
		// iterations: reps is bounded so the total worst-case cost stays
		// strictly inside the tick budget (no device event is delivered,
		// so no IRQ or watchdog can arm — interrupts only originate from
		// ticked devices or peripheral accesses, and a peripheral access
		// exits the loop via xSplit), inside both run limits, and inside
		// the cancellation stride. Every full pass commits exactly n
		// instructions and at most maxCost cycles, so the margins divide
		// out exactly.
		reps := uint64(1)
		if xb.taken == xb {
			reps = (budget - 1) / xb.maxCost
			if m := (maxInsts - c.Insts) / xb.n; m < reps {
				reps = m
			}
			if m := (maxCycles - c.Cycles) / xb.maxCost; m < reps {
				reps = m
			}
			if ctx != nil {
				if m := (pollAt - c.Insts) / xb.n; m < reps {
					reps = m
				}
			}
			if reps == 0 {
				reps = 1 // a single pass was already proven to fit
			}
		}
		var r xres
		if xb.loop != nil && reps > 1 && c.runCountedLoop(xb, reps) {
			// Counted loop settled in closed form; the batch is done.
			r = xDone
		} else if xb.bare != nil && reps > 1 {
			// Pure self-loop: run commit-free passes and settle the
			// counters arithmetically. Every pass executes exactly n
			// instructions; every pass that loops costs exactly maxCost
			// (static costs plus the taken-branch penalty), and a final
			// fall-through pass costs one cycle less.
			passes := uint64(0)
			for passes < reps {
				for _, op := range xb.bare {
					op(c)
				}
				passes++
				if c.PC != xb.start {
					break
				}
			}
			cost := passes * xb.maxCost
			if c.PC != xb.start && xb.condEnd {
				cost--
			}
			c.Insts += passes * xb.n
			c.Cycles += cost
			c.tickDebt += cost
			c.tExec += passes
			r = xDone
		} else {
			for {
				c.tExec++
				r = c.runBlock(xb)
				reps--
				if reps == 0 || r != xDone || c.PC != xb.start {
					break
				}
			}
		}
		c.flushDebt()
		switch r {
		case xBail:
			c.tFallback++
			return transStep
		case xUnhandled:
			return transUnhandled
		case xSplit:
			xb = nil
		default: // xDone: chase the static successor links
			npc := c.PC
			switch npc {
			case xb.takenPC:
				if xb.taken == nil || xb.taken.start != npc {
					xb.taken = c.transBlock(npc)
				}
				xb = xb.taken
			case xb.fallPC:
				if xb.fall == nil || xb.fall.start != npc {
					xb.fall = c.transBlock(npc)
				}
				xb = xb.fall
			default:
				xb = nil
			}
		}
	}
}

// SetEngine resolves and applies an execution-engine selection. The
// default resolves to the translation engine; PredecodeOff (the
// benchmark/A-B master switch) forces the interpreter. Switching engines
// re-points the predecode tables and drops the translated-block cache;
// selecting the same engine twice is free, so RunCore applies it on
// every run.
func (c *Core) SetEngine(e platform.Engine) {
	if e == platform.EngineDefault {
		e = platform.EngineTranslate
	}
	if c.PredecodeOff {
		e = platform.EngineInterp
	}
	if e == c.engine {
		return
	}
	c.engine = e
	c.pdPage, c.pdPageBase = nil, 0
	c.transCache = nil
	if e == platform.EngineInterp {
		c.pdRom, c.pdRam = nil, nil
		return
	}
	if c.Img != nil {
		cfg := c.S.Cfg
		if c.pdRom == nil {
			c.pdRom = predecode.ForImage(c.Img, cfg.RomBase, cfg.RomSize, c.S.Bus.CostOf(cfg.RomBase))
		}
		if c.pdRam == nil {
			c.pdRam = predecode.NewOverlay(c.S.Mem, cfg.RamBase, cfg.RamSize, c.S.Bus.CostOf(cfg.RamBase))
		}
	}
	c.transMaxAccess = c.S.Bus.MaxAccessCost()
}

// Engine reports the core's resolved execution engine.
func (c *Core) Engine() platform.Engine {
	if c.engine == platform.EngineDefault {
		if c.PredecodeOff {
			return platform.EngineInterp
		}
		return platform.EngineTranslate
	}
	return c.engine
}
