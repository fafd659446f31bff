// Package rtl implements the HDL-RTL simulation platform: a multi-cycle
// (FSM) SC88 CPU written as clocked processes on the internal/hdl event
// kernel. It is an independent implementation of the ISA semantics — the
// point of running the same directed tests on both the golden model and
// RTL is to catch divergence between the two, exactly as in the paper's
// verification flow. Instructions take 3–6 cycles plus bus wait states,
// and peripherals are ticked every clock cycle, making this platform
// cycle-accurate and markedly slower than the golden model.
package rtl

import (
	"fmt"

	"repro/internal/hdl"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/platform"
	"repro/internal/predecode"
	"repro/internal/soc"
)

// ALUFlags carries the carry/overflow results of an ALU operation; Z and N
// are always derived from the result by the pipeline.
type ALUFlags struct {
	C, V bool
	// CVValid reports whether C and V are meaningful for this op
	// (add/sub/compare); logical and shift ops clear C and V.
	CVValid bool
}

// ALUBackend computes the combinational ALU function. The RTL platform
// uses a behavioural backend; the gate-level platform substitutes a
// synthesised gate netlist. Supported ops: Add, Sub, And, Or, Xor, Shl,
// Shr, Sar, Cmp (= Sub).
type ALUBackend interface {
	Execute(op isa.Opcode, a, b uint32) (uint32, ALUFlags)
}

// ALUChecker is an ALUBackend that defers part of its verification work
// (the gate-level platform batches netlist evaluation across 64 pending
// ops). The core drains the queue at architecturally flag-observable
// boundaries — PSW reads and trap entry, where software could see the
// flags — and the run loop polls ALUDivergence to stop a run whose
// netlist disagreed with the behavioural prediction. SC88 conditional
// branches compare registers, not flags, so branch boundaries need no
// flush; the queue-full bound keeps detection within one batch anyway.
type ALUChecker interface {
	ALUBackend
	// FlushALU verifies every queued, not-yet-checked operation.
	FlushALU()
	// ALUDivergence reports a detected backend/behavioural mismatch.
	ALUDivergence() (string, bool)
}

// DirectALU is the behavioural ALU backend.
type DirectALU struct{}

// Execute implements ALUBackend.
func (DirectALU) Execute(op isa.Opcode, a, b uint32) (uint32, ALUFlags) {
	switch op {
	case isa.OpAdd:
		res := a + b
		return res, ALUFlags{C: res < a, V: ^(a^b)&(a^res)&0x8000_0000 != 0, CVValid: true}
	case isa.OpSub, isa.OpCmp:
		res := a - b
		return res, ALUFlags{C: a < b, V: (a^b)&(a^res)&0x8000_0000 != 0, CVValid: true}
	case isa.OpAnd:
		return a & b, ALUFlags{}
	case isa.OpOr:
		return a | b, ALUFlags{}
	case isa.OpXor:
		return a ^ b, ALUFlags{}
	case isa.OpShl:
		return a << (b & 31), ALUFlags{}
	case isa.OpShr:
		return a >> (b & 31), ALUFlags{}
	case isa.OpSar:
		return uint32(int32(a) >> (b & 31)), ALUFlags{}
	}
	panic(fmt.Sprintf("rtl: ALU does not implement %v", op))
}

// FSM states.
const (
	stFetch uint64 = iota
	stFetchExt
	stDecode
	stExecute
	stMem
	stWriteback
	stHalt
)

// CPU is the multi-cycle RTL core.
type CPU struct {
	Sim *hdl.Simulator
	Clk *hdl.Clock
	S   *soc.SoC
	ALU ALUBackend

	// Architectural registers (modelled as register-file memories).
	D, A [16]uint32
	PC   uint32
	PSW  uint32
	VBR  uint32
	SPC  uint32
	SPSW uint32
	IC   uint32 // ICAUSE

	// Observable signals for waveform dump.
	sigState *hdl.Signal
	sigPC    *hdl.Signal
	sigIR    *hdl.Signal
	sigAddr  *hdl.Signal
	sigHalt  *hdl.Signal

	// Microarchitectural state.
	state    uint64
	ir0, ir1 uint32
	inst     isa.Inst
	instSize uint32
	wait     uint64 // bus wait cycles to burn in the current state
	memAddr  uint32
	memValue uint32

	Cycles   uint64
	Insts    uint64
	HaltCode uint16

	// Outcome flags, examined by the platform run loop.
	Halted      bool
	Unhandled   bool
	UnhandledAt string
	DebugStop   bool
	DebugStops  bool

	// pdRom is the shared ROM predecode table, pdRam the private RAM
	// overlay; nil when predecode is disabled. pdHits/pdSlow count
	// fetches per run and are flushed by the platform run loop.
	pdRom, pdRam   *predecode.Table
	pdHits, pdSlow uint64
	// aluFlush is non-nil when the ALU backend is an ALUChecker.
	aluFlush ALUChecker
}

// NewCPU builds the core and its clocked process.
func NewCPU(s *soc.SoC, alu ALUBackend) *CPU {
	sim := hdl.NewSimulator()
	c := &CPU{Sim: sim, S: s, ALU: alu}
	if chk, ok := alu.(ALUChecker); ok {
		c.aluFlush = chk
	}
	c.Clk = sim.NewClock("clk", 2)
	c.sigState = sim.NewSignal("state", 3, stFetch)
	c.sigPC = sim.NewSignal("pc", 32, uint64(s.Cfg.RomBase))
	c.sigIR = sim.NewSignal("ir", 32, 0)
	c.sigAddr = sim.NewSignal("addr", 32, 0)
	c.sigHalt = sim.NewSignal("halted", 1, 0)
	c.PC = s.Cfg.RomBase
	sim.NewProcess("cpu", func() {
		if c.Clk.Sig.GetBool() { // posedge
			c.posedge()
		}
	}, c.Clk.Sig)
	return c
}

// SetSP initialises the stack pointer (done by the loader).
func (c *CPU) SetSP(v uint32) { c.A[isa.SP.Index()] = v }

// posedge advances the FSM by one clock cycle.
func (c *CPU) posedge() {
	c.Cycles++
	c.S.Bus.Tick(1)
	if c.Halted || c.Unhandled || c.DebugStop {
		return
	}
	if c.wait > 0 {
		c.wait--
		return
	}
	switch c.state {
	case stFetch:
		// Instruction boundary: poll asynchronous events first.
		if c.pollAsync() {
			return
		}
		if e := c.pdEntry(c.PC); e != nil {
			// Predecode fast path: identical FSM sequence, IR signal and
			// wait-state burn as a live fetch, minus the bus round-trip.
			c.pdHits++
			c.ir0 = e.W0
			c.sigIR.Set(uint64(e.W0))
			c.burn(e.Wait)
			if e.Size == 2 {
				c.setState(stFetchExt)
			} else {
				c.setState(stDecode)
			}
			return
		}
		if c.pdRom != nil || c.pdRam != nil {
			c.pdSlow++
		}
		w, err := c.S.Bus.Read32(c.PC, mem.AccessFetch)
		if err != nil {
			c.Insts++
			c.enterTrap(isa.VecMemFault, c.PC, isa.VecMemFault)
			return
		}
		c.ir0 = w
		c.sigIR.Set(uint64(w))
		c.burn(c.S.Bus.LastCost)
		if isa.Opcode(w >> 24).HasExt() {
			c.setState(stFetchExt)
		} else {
			c.setState(stDecode)
		}
	case stFetchExt:
		if e := c.pdEntry(c.PC); e != nil && e.Size == 2 && e.W0 == c.ir0 {
			c.ir1 = e.W1
			c.burn(e.Wait)
			c.setState(stDecode)
			return
		}
		w, err := c.S.Bus.Read32(c.PC+4, mem.AccessFetch)
		if err != nil {
			c.Insts++
			c.enterTrap(isa.VecMemFault, c.PC, isa.VecMemFault)
			return
		}
		c.ir1 = w
		c.burn(c.S.Bus.LastCost)
		c.setState(stDecode)
	case stDecode:
		if e := c.pdEntry(c.PC); e != nil && e.W0 == c.ir0 && (e.Size == 1 || e.W1 == c.ir1) {
			c.inst = e.Inst
			c.instSize = e.Size * 4
			c.setState(stExecute)
			return
		}
		in, size, ok := isa.Decode([]uint32{c.ir0, c.ir1})
		if !ok {
			c.Insts++
			c.enterTrap(isa.VecIllegal, c.PC, isa.VecIllegal)
			return
		}
		c.inst = in
		c.instSize = uint32(size) * 4
		c.setState(stExecute)
	case stExecute:
		c.execute()
	case stMem:
		c.memAccess()
	case stWriteback:
		c.Insts++
		c.sigPC.Set(uint64(c.PC))
		c.setState(stFetch)
	case stHalt:
		// Remain halted.
	}
}

// pdEntry returns the predecoded entry for the current instruction, or
// nil to take the live-bus slow path.
func (c *CPU) pdEntry(pc uint32) *predecode.Entry {
	if e := c.pdRom.Lookup(pc); e != nil {
		return e
	}
	return c.pdRam.Lookup(pc)
}

// FlushPredecodeStats folds this core's fetch counters into the package
// totals and into one run's counts (nil discards them); the platform run
// loop calls it when a run ends.
func (c *CPU) FlushPredecodeStats(into *platform.EngineCounts) {
	h, s := c.pdHits, c.pdSlow
	c.pdHits, c.pdSlow = 0, 0
	predecode.AddRunStats(h, s)
	into.Add(platform.EngineCounts{Fetches: h, SlowFetches: s})
}

func (c *CPU) setState(s uint64) {
	c.state = s
	c.sigState.Set(s)
}

func (c *CPU) burn(waits uint64) {
	if waits > 0 {
		c.wait = waits
	}
}

func (c *CPU) pollAsync() bool {
	if c.S.Hub.WatchdogFired {
		c.S.Hub.WatchdogFired = false
		c.enterTrap(isa.VecWatchdog, c.PC, isa.VecWatchdog)
		return true
	}
	if c.PSW&isa.FlagI != 0 {
		if line, ok := c.S.Intc.Next(); ok {
			vec := isa.VecIRQBase + line
			c.enterTrap(vec, c.PC, uint32(vec))
			return true
		}
	}
	return false
}

func (c *CPU) enterTrap(vec int, returnPC, cause uint32) {
	// Trap entry saves PSW to SPSW — a flag-observable boundary, so any
	// deferred ALU verification must complete first.
	if c.aluFlush != nil {
		c.aluFlush.FlushALU()
	}
	handler, err := c.S.Bus.Read32(c.VBR+uint32(vec)*4, mem.AccessRead)
	if err != nil || handler == 0 {
		c.Unhandled = true
		c.UnhandledAt = fmt.Sprintf("unhandled trap: vector %d (cause 0x%x) at pc 0x%08x", vec, cause, c.PC)
		return
	}
	c.SPC = returnPC
	c.SPSW = c.PSW
	c.IC = cause
	c.PSW &^= isa.FlagI
	c.PSW |= isa.FlagS
	c.PC = handler
	c.sigPC.Set(uint64(c.PC))
	c.setState(stFetch)
	c.burn(c.S.Bus.LastCost + 1) // trap entry penalty
}

func (c *CPU) setZN(v uint32) {
	c.PSW &^= isa.FlagZ | isa.FlagN
	if v == 0 {
		c.PSW |= isa.FlagZ
	}
	if int32(v) < 0 {
		c.PSW |= isa.FlagN
	}
}

func (c *CPU) applyALU(dst isa.Reg, op isa.Opcode, a, b uint32, write bool) {
	res, fl := c.ALU.Execute(op, a, b)
	if write {
		c.D[dst.Index()] = res
	}
	c.setZN(res)
	c.PSW &^= isa.FlagC | isa.FlagV
	if fl.CVValid {
		if fl.C {
			c.PSW |= isa.FlagC
		}
		if fl.V {
			c.PSW |= isa.FlagV
		}
	}
}

// aluRegOp maps an immediate-form opcode to its register-form ALU op and
// operand; returns ok=false for non-ALU-backend ops.
func aluOp(op isa.Opcode) (isa.Opcode, bool) {
	switch op {
	case isa.OpAdd, isa.OpAddI:
		return isa.OpAdd, true
	case isa.OpSub:
		return isa.OpSub, true
	case isa.OpAnd, isa.OpAndI:
		return isa.OpAnd, true
	case isa.OpOr, isa.OpOrI:
		return isa.OpOr, true
	case isa.OpXor, isa.OpXorI:
		return isa.OpXor, true
	case isa.OpShl, isa.OpShlI:
		return isa.OpShl, true
	case isa.OpShr, isa.OpShrI:
		return isa.OpShr, true
	case isa.OpSar, isa.OpSarI:
		return isa.OpSar, true
	case isa.OpCmp, isa.OpCmpI:
		return isa.OpCmp, true
	}
	return 0, false
}

func (c *CPU) execute() {
	in := c.inst
	next := c.PC + c.instSize
	// Default flow: fall through to writeback with PC advanced.
	done := func(pc uint32) {
		c.PC = pc
		c.setState(stWriteback)
	}

	switch in.Op {
	case isa.OpNop:
		done(next)
	case isa.OpHalt:
		c.HaltCode = uint16(uint32(in.Imm))
		c.PC = next // architecturally, HALT retires like any instruction
		c.Halted = true
		c.Insts++
		c.sigHalt.Set(1)
		c.setState(stHalt)
	case isa.OpDebug:
		if c.DebugStops {
			c.PC = next
			c.Insts++
			c.DebugStop = true
			return
		}
		done(next)

	case isa.OpMovI, isa.OpMovX:
		c.D[in.Rd.Index()] = uint32(in.Imm)
		done(next)
	case isa.OpMovHI:
		c.D[in.Rd.Index()] = uint32(in.Imm) << 16
		done(next)
	case isa.OpMov:
		c.D[in.Rd.Index()] = c.D[in.Rs.Index()]
		done(next)
	case isa.OpMovA:
		c.A[in.Rd.Index()] = c.A[in.Rs.Index()]
		done(next)
	case isa.OpMovDA:
		c.D[in.Rd.Index()] = c.A[in.Rs.Index()]
		done(next)
	case isa.OpMovAD:
		c.A[in.Rd.Index()] = c.D[in.Rs.Index()]
		done(next)
	case isa.OpLea:
		c.A[in.Rd.Index()] = uint32(in.Imm)
		done(next)
	case isa.OpLeaO:
		c.A[in.Rd.Index()] = c.A[in.Rs.Index()] + uint32(in.Imm)
		done(next)

	case isa.OpLdW, isa.OpLdH, isa.OpLdHU, isa.OpLdB, isa.OpLdBU, isa.OpLdA,
		isa.OpStW, isa.OpStH, isa.OpStB, isa.OpStA:
		c.memAddr = c.A[in.Rs.Index()] + uint32(in.Imm)
		c.sigAddr.Set(uint64(c.memAddr))
		c.setState(stMem)
	case isa.OpLdWX, isa.OpStWX:
		c.memAddr = uint32(in.Imm)
		c.sigAddr.Set(uint64(c.memAddr))
		c.setState(stMem)

	case isa.OpAdd, isa.OpSub, isa.OpAnd, isa.OpOr, isa.OpXor,
		isa.OpShl, isa.OpShr, isa.OpSar:
		op, _ := aluOp(in.Op)
		c.applyALU(in.Rd, op, c.D[in.Rs.Index()], c.D[in.Rt.Index()], true)
		done(next)
	case isa.OpCmp:
		c.applyALU(0, isa.OpCmp, c.D[in.Rs.Index()], c.D[in.Rt.Index()], false)
		done(next)
	case isa.OpAddI:
		c.applyALU(in.Rd, isa.OpAdd, c.D[in.Rs.Index()], uint32(in.Imm), true)
		done(next)
	case isa.OpAndI, isa.OpOrI, isa.OpXorI, isa.OpShlI, isa.OpShrI, isa.OpSarI:
		op, _ := aluOp(in.Op)
		c.applyALU(in.Rd, op, c.D[in.Rs.Index()], uint32(in.Imm)&0xffff, true)
		done(next)
	case isa.OpCmpI:
		c.applyALU(0, isa.OpCmp, c.D[in.Rs.Index()], uint32(in.Imm), false)
		done(next)
	case isa.OpMul, isa.OpMulI:
		// Multiplier macro: behavioural on all platforms, 2 extra cycles.
		b := c.D[in.Rt.Index()]
		if in.Op == isa.OpMulI {
			b = uint32(in.Imm)
		}
		res := c.D[in.Rs.Index()] * b
		c.D[in.Rd.Index()] = res
		c.setZN(res)
		c.PSW &^= isa.FlagC | isa.FlagV
		c.burn(2)
		done(next)
	case isa.OpDiv, isa.OpRem:
		b := c.D[in.Rt.Index()]
		if b == 0 {
			c.Insts++
			c.enterTrap(isa.VecDivZero, c.PC, isa.VecDivZero)
			return
		}
		// Signed division with the INT_MIN / -1 overflow case wrapping,
		// matching the golden model's architectural definition.
		a := c.D[in.Rs.Index()]
		var res uint32
		switch {
		case a == 0x8000_0000 && b == 0xffff_ffff:
			if in.Op == isa.OpDiv {
				res = 0x8000_0000
			}
		case in.Op == isa.OpDiv:
			res = uint32(int32(a) / int32(b))
		default:
			res = uint32(int32(a) % int32(b))
		}
		c.D[in.Rd.Index()] = res
		c.setZN(res)
		c.burn(16) // iterative divider
		done(next)

	case isa.OpInsert:
		c.D[in.Rd.Index()] = isa.InsertBits(c.D[in.Rs.Index()], c.D[in.Rt.Index()], in.Pos, in.Width)
		done(next)
	case isa.OpInsertX:
		c.D[in.Rd.Index()] = isa.InsertBits(c.D[in.Rs.Index()], uint32(in.Imm), in.Pos, in.Width)
		done(next)
	case isa.OpExtractU:
		c.D[in.Rd.Index()] = isa.ExtractBitsU(c.D[in.Rs.Index()], in.Pos, in.Width)
		done(next)
	case isa.OpExtractS:
		c.D[in.Rd.Index()] = isa.ExtractBitsS(c.D[in.Rs.Index()], in.Pos, in.Width)
		done(next)

	case isa.OpJmp:
		done(uint32(in.Imm))
	case isa.OpJI:
		done(c.A[in.Rs.Index()])
	case isa.OpCall:
		c.A[isa.RA.Index()] = next
		done(uint32(in.Imm))
	case isa.OpCallI:
		c.A[isa.RA.Index()] = next
		done(c.A[in.Rs.Index()])
	case isa.OpRet:
		done(c.A[isa.RA.Index()])
	case isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge, isa.OpBltU, isa.OpBgeU:
		a, b := c.D[in.Rd.Index()], c.D[in.Rs.Index()]
		var taken bool
		switch in.Op {
		case isa.OpBeq:
			taken = a == b
		case isa.OpBne:
			taken = a != b
		case isa.OpBlt:
			taken = int32(a) < int32(b)
		case isa.OpBge:
			taken = int32(a) >= int32(b)
		case isa.OpBltU:
			taken = a < b
		case isa.OpBgeU:
			taken = a >= b
		}
		if taken {
			c.burn(1) // refetch penalty
			done(next + uint32(in.Imm)*4)
		} else {
			done(next)
		}

	case isa.OpTrap:
		c.Insts++
		c.enterTrap(isa.VecSyscall, next, uint32(isa.VecSyscall)|(uint32(in.Imm)&0xff)<<8)
	case isa.OpRfe:
		c.PSW = c.SPSW
		done(c.SPC)
	case isa.OpMfcr:
		// Reading PSW observes the flags: drain any deferred ALU
		// verification before software can see them.
		if uint16(in.Imm) == isa.CrPSW && c.aluFlush != nil {
			c.aluFlush.FlushALU()
		}
		c.D[in.Rd.Index()] = c.readCR(uint16(in.Imm))
		done(next)
	case isa.OpMtcr:
		c.writeCR(uint16(in.Imm), c.D[in.Rd.Index()])
		done(next)

	default:
		c.Insts++
		c.enterTrap(isa.VecIllegal, c.PC, isa.VecIllegal)
	}
}

func (c *CPU) memAccess() {
	in := c.inst
	next := c.PC + c.instSize
	fault := func() {
		c.Insts++
		c.enterTrap(isa.VecMemFault, c.PC, isa.VecMemFault)
	}
	switch in.Op {
	case isa.OpLdW, isa.OpLdWX:
		v, err := c.S.Bus.Read32(c.memAddr, mem.AccessRead)
		if err != nil {
			fault()
			return
		}
		c.D[in.Rd.Index()] = v
	case isa.OpLdA:
		v, err := c.S.Bus.Read32(c.memAddr, mem.AccessRead)
		if err != nil {
			fault()
			return
		}
		c.A[in.Rd.Index()] = v
	case isa.OpLdH, isa.OpLdHU:
		v, err := c.S.Bus.Read16(c.memAddr, mem.AccessRead)
		if err != nil {
			fault()
			return
		}
		if in.Op == isa.OpLdH {
			c.D[in.Rd.Index()] = uint32(int32(int16(v)))
		} else {
			c.D[in.Rd.Index()] = uint32(v)
		}
	case isa.OpLdB, isa.OpLdBU:
		v, err := c.S.Bus.Read8(c.memAddr, mem.AccessRead)
		if err != nil {
			fault()
			return
		}
		if in.Op == isa.OpLdB {
			c.D[in.Rd.Index()] = uint32(int32(int8(v)))
		} else {
			c.D[in.Rd.Index()] = uint32(v)
		}
	case isa.OpStW, isa.OpStWX:
		if err := c.S.Bus.Write32(c.memAddr, c.D[in.Rd.Index()]); err != nil {
			fault()
			return
		}
	case isa.OpStA:
		if err := c.S.Bus.Write32(c.memAddr, c.A[in.Rd.Index()]); err != nil {
			fault()
			return
		}
	case isa.OpStH:
		if err := c.S.Bus.Write16(c.memAddr, uint16(c.D[in.Rd.Index()])); err != nil {
			fault()
			return
		}
	case isa.OpStB:
		if err := c.S.Bus.Write8(c.memAddr, byte(c.D[in.Rd.Index()])); err != nil {
			fault()
			return
		}
	}
	switch in.Op {
	case isa.OpStW, isa.OpStWX, isa.OpStA, isa.OpStH, isa.OpStB:
		// A successful store into a decoded code page poisons it.
		c.pdRam.Invalidate(c.memAddr)
	}
	c.burn(c.S.Bus.LastCost)
	c.PC = next
	c.setState(stWriteback)
}

func (c *CPU) readCR(idx uint16) uint32 {
	switch idx {
	case isa.CrPSW:
		return c.PSW
	case isa.CrVBR:
		return c.VBR
	case isa.CrSPC:
		return c.SPC
	case isa.CrSPSW:
		return c.SPSW
	case isa.CrCPUID:
		return 0x5C88_0001
	case isa.CrDERIVID:
		return c.S.Cfg.DerivID
	case isa.CrCYCLE:
		return uint32(c.Cycles)
	case isa.CrICAUSE:
		return c.IC
	}
	return 0
}

func (c *CPU) writeCR(idx uint16, v uint32) {
	switch idx {
	case isa.CrPSW:
		c.PSW = v
	case isa.CrVBR:
		c.VBR = v &^ 3
	case isa.CrSPC:
		c.SPC = v
	case isa.CrSPSW:
		c.SPSW = v
	}
}
