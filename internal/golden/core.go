// Package golden implements the golden reference model: a functional
// (instruction-accurate) simulator of the SC88 core. It is the fastest
// platform, offers full register and memory visibility, and serves as the
// behavioural reference that the RTL and gate-level models are checked
// against. The emulator, bondout, and product-silicon platforms reuse this
// core with different capability wrappers and timing models.
package golden

import (
	"fmt"

	"repro/internal/core/telemetry"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/obj"
	"repro/internal/platform"
	"repro/internal/predecode"
	"repro/internal/soc"
	"repro/internal/translate"
)

// StepOutcome tells the run loop what a step did.
type StepOutcome uint8

// Step outcomes.
const (
	StepOK StepOutcome = iota
	StepHalted
	StepDebug     // DEBUG instruction retired with debug trapping enabled
	StepUnhandled // trap taken with no handler installed
)

// Core is the functional SC88 CPU model.
type Core struct {
	S *soc.SoC

	D   [16]uint32
	A   [16]uint32
	PC  uint32
	PSW uint32

	VBR    uint32
	SPC    uint32
	SPSW   uint32
	ICause uint32

	Cycles uint64
	Insts  uint64

	HaltCode uint16

	// CyclesPerInst is the base cost of every instruction before bus
	// wait states; the emulator platform uses a coarser value.
	CyclesPerInst uint64

	// DebugStops makes the DEBUG instruction stop execution (bondout);
	// elsewhere DEBUG retires as a NOP.
	DebugStops bool

	// Img allows source-level trace annotation.
	Img *obj.Image

	// Sink receives execution-trace events when armed (see ArmTrace);
	// nil keeps every telemetry hook on the nil fast path.
	Sink telemetry.EventSink
	// Mask is the effective event selection while the sink is armed.
	Mask telemetry.EventMask
	// Fidelity is the platform's trace-port fidelity: which event kinds
	// this core may emit at all. Zero means full fidelity (the golden
	// model); wrappers like bondout narrow it to what their hardware
	// trace port carries.
	Fidelity telemetry.EventMask

	// seq numbers emitted events; stopReq latches a sink stop request.
	seq     uint64
	stopReq bool

	// stepCost accumulates this instruction's bus costs.
	stepCost uint64
	// unhandledDetail records why StepUnhandled was returned.
	unhandledDetail string

	// PredecodeOff disables the predecoded-instruction fast path; set it
	// before LoadImage. Benchmarks and A/B fidelity checks use it — the
	// two paths must agree cycle-for-cycle.
	PredecodeOff bool
	// pdRom is the ROM predecode table, shared across every core running
	// the same image; pdRam is this core's private RAM overlay. Both are
	// nil when predecode is off.
	pdRom, pdRam *predecode.Table
	// pdPage/pdPageBase cache the ROM page containing the last fetch, so
	// straight-line and loop code fetches with one compare and one index.
	// Safe for ROM only: ROM pages are never poisoned (stores to ROM
	// fault on the bus), while RAM overlay pages can be and must be
	// re-looked-up every fetch.
	pdPage     *predecode.Page
	pdPageBase uint32
	// pdHits/pdSlow count fetches per run, flushed to the package
	// counters by RunCore (plain fields: no atomics on the hot path).
	pdHits, pdSlow uint64

	// engine is the resolved execution engine (never EngineDefault once
	// SetEngine has run); see golden/translate.go for the superblock
	// backend it selects.
	engine platform.Engine
	// transCache maps entry PC to lowered superblocks; dropped whenever
	// the predecode tables are re-pointed (the blocks pin table/page
	// pointers for their validity checks).
	transCache map[uint32]*xblock
	// tickDebt is device time owed to the bus by committed translated
	// instructions; always zero at block entry and exit (see flushDebt).
	tickDebt uint64
	// transCooldown suppresses translated dispatch for a few interpreter
	// steps after a low-tick-budget fallback.
	transCooldown uint32
	// transMaxAccess is Bus.MaxAccessCost() cached at SetEngine time for
	// superblock worst-case cost bounds.
	transMaxAccess uint64
	// tBuilt/tExec/tInval/tFallback count translation activity per run,
	// flushed by RunCore (plain fields, like pdHits).
	tBuilt, tExec, tInval, tFallback uint64

	// snapD/snapA/snapPSW hold the pre-step register snapshot while a
	// sink tracks register writes. Core fields rather than Step locals:
	// address-taken locals would cost a 128-byte stack clear on every
	// instruction, tracked or not.
	snapD, snapA [16]uint32
	snapPSW      uint32
}

// NewCore creates a core over a SoC, in reset state.
func NewCore(s *soc.SoC) *Core {
	c := &Core{S: s, CyclesPerInst: 1}
	c.Reset()
	return c
}

// Reset puts the core into its architectural reset state.
func (c *Core) Reset() {
	c.D = [16]uint32{}
	c.A = [16]uint32{}
	c.PC = c.S.Cfg.RomBase
	c.PSW = 0
	c.VBR = 0
	c.SPC, c.SPSW, c.ICause = 0, 0, 0
	c.Cycles, c.Insts = 0, 0
	c.HaltCode = 0
	c.S.Hub.Reset()
}

// LoadImage loads a linked image and points the core at its entry.
// Conventionally the stack pointer starts at the top of RAM.
func (c *Core) LoadImage(img *obj.Image) error {
	if err := platform.Load(c.S, img); err != nil {
		return err
	}
	c.Img = img
	c.PC = img.Entry
	c.A[isa.SP.Index()] = c.S.Cfg.RamBase + c.S.Cfg.RamSize - 16
	if !c.PredecodeOff {
		cfg := c.S.Cfg
		c.pdRom = predecode.ForImage(img, cfg.RomBase, cfg.RomSize, c.S.Bus.CostOf(cfg.RomBase))
		c.pdRam = predecode.NewOverlay(c.S.Mem, cfg.RamBase, cfg.RamSize, c.S.Bus.CostOf(cfg.RamBase))
	}
	c.pdPage, c.pdPageBase = nil, 0
	// The RAM overlay above is new, so any translated blocks validated
	// against the old one are stale.
	c.transCache = nil
	c.transMaxAccess = c.S.Bus.MaxAccessCost()
	return nil
}

// FlushStats folds this core's engine counters into the package totals
// and into one run's counts (nil discards them); RunCore calls it at the
// end of every run. Copy-then-zero keeps the flush idempotent — a
// duplicate call contributes zero instead of double-counting a run.
func (c *Core) FlushStats(into *platform.EngineCounts) {
	n := platform.EngineCounts{Fetches: c.pdHits, SlowFetches: c.pdSlow,
		BlocksBuilt: c.tBuilt, BlocksExecuted: c.tExec, BlocksInvalidated: c.tInval, FallbackExits: c.tFallback}
	c.pdHits, c.pdSlow, c.tBuilt, c.tExec, c.tInval, c.tFallback = 0, 0, 0, 0, 0, 0
	predecode.AddRunStats(n.Fetches, n.SlowFetches)
	translate.AddRunStats(n.BlocksBuilt, n.BlocksExecuted, n.BlocksInvalidated, n.FallbackExits)
	into.Add(n)
}

// State snapshots the architectural registers.
func (c *Core) State() *platform.ArchState {
	return &platform.ArchState{D: c.D, A: c.A, PC: c.PC, PSW: c.PSW}
}

// UnhandledDetail describes the most recent StepUnhandled outcome.
func (c *Core) UnhandledDetail() string { return c.unhandledDetail }

func (c *Core) reg(r isa.Reg) uint32 {
	if r.IsAddr() {
		return c.A[r.Index()]
	}
	return c.D[r.Index()]
}

func (c *Core) setReg(r isa.Reg, v uint32) {
	if r.IsAddr() {
		c.A[r.Index()] = v
	} else {
		c.D[r.Index()] = v
	}
}

// emit delivers one event to the armed sink, stamping sequence and
// counters. A sink returning false latches a stop request that the run
// loops convert into StopAbort.
func (c *Core) emit(ev telemetry.Event) {
	if c.Sink == nil || c.stopReq || !c.Mask.Has(ev.Kind) {
		return
	}
	c.seq++
	ev.Seq = c.seq
	ev.Insts = c.Insts
	ev.Cycles = c.Cycles
	if !c.Sink.Emit(ev) {
		c.stopReq = true
	}
}

// StopRequested reports whether the armed sink asked the run to stop.
func (c *Core) StopRequested() bool { return c.stopReq }

// ArmTrace wires a RunSpec's event stream into the core: it checks the
// platform's trace capability, intersects the requested mask with the
// core's fidelity, and installs the UART tap when bytes are selected.
// The returned disarm function must run when the run ends. With no
// events requested it is a no-op. Shared by every golden-core-based
// platform (golden, emulator, bondout, silicon).
func ArmTrace(c *Core, caps platform.Caps, spec platform.RunSpec) (func(), error) {
	if spec.Events == nil {
		return func() {}, nil
	}
	if !caps.Trace {
		return nil, platform.ErrNoTrace
	}
	fid := c.Fidelity
	if fid == 0 {
		fid = telemetry.MaskAll
	}
	c.Sink = spec.Events
	c.Mask = fid & spec.EventMask.Effective()
	c.seq, c.stopReq = 0, false
	if c.Mask.Has(telemetry.EvUARTByte) {
		c.S.Uart.TxHook = func(b byte) {
			c.emit(telemetry.Event{Kind: telemetry.EvUARTByte, PC: c.PC, Value: uint32(b)})
		}
	}
	return func() {
		c.Sink = nil
		c.S.Uart.TxHook = nil
	}, nil
}

// emitRegDiffs reports every architectural register the last instruction
// changed, by diffing against the pre-step snapshot (c.snapD/snapA/snapPSW).
func (c *Core) emitRegDiffs(pc uint32) {
	for i := 0; i < 16; i++ {
		if c.D[i] != c.snapD[i] {
			c.emit(telemetry.Event{Kind: telemetry.EvRegWrite, PC: pc, Reg: uint8(i), Value: c.D[i]})
		}
		if c.A[i] != c.snapA[i] {
			c.emit(telemetry.Event{Kind: telemetry.EvRegWrite, PC: pc, Reg: telemetry.RegA0 + uint8(i), Value: c.A[i]})
		}
	}
	if c.PSW != c.snapPSW {
		c.emit(telemetry.Event{Kind: telemetry.EvRegWrite, PC: pc, Reg: telemetry.RegPSW, Value: c.PSW})
	}
}

func (c *Core) busRead32(addr uint32) (uint32, error) {
	v, err := c.S.Bus.Read32(addr, mem.AccessRead)
	c.stepCost += c.S.Bus.LastCost
	if err == nil && c.Sink != nil {
		c.emit(telemetry.Event{Kind: telemetry.EvMemRead, PC: c.PC, Addr: addr, Value: v})
	}
	return v, err
}

func (c *Core) busWrite32(addr, v uint32) error {
	err := c.S.Bus.Write32(addr, v)
	c.stepCost += c.S.Bus.LastCost
	if err == nil {
		c.pdRam.Invalidate(addr)
		if c.Sink != nil {
			c.emit(telemetry.Event{Kind: telemetry.EvMemWrite, PC: c.PC, Addr: addr, Value: v})
		}
	}
	return err
}

func (c *Core) busRead16(addr uint32) (uint16, error) {
	v, err := c.S.Bus.Read16(addr, mem.AccessRead)
	c.stepCost += c.S.Bus.LastCost
	if err == nil && c.Sink != nil {
		c.emit(telemetry.Event{Kind: telemetry.EvMemRead, PC: c.PC, Addr: addr, Value: uint32(v)})
	}
	return v, err
}

func (c *Core) busWrite16(addr uint32, v uint16) error {
	err := c.S.Bus.Write16(addr, v)
	c.stepCost += c.S.Bus.LastCost
	if err == nil {
		c.pdRam.Invalidate(addr)
		if c.Sink != nil {
			c.emit(telemetry.Event{Kind: telemetry.EvMemWrite, PC: c.PC, Addr: addr, Value: uint32(v)})
		}
	}
	return err
}

func (c *Core) busRead8(addr uint32) (byte, error) {
	v, err := c.S.Bus.Read8(addr, mem.AccessRead)
	c.stepCost += c.S.Bus.LastCost
	if err == nil && c.Sink != nil {
		c.emit(telemetry.Event{Kind: telemetry.EvMemRead, PC: c.PC, Addr: addr, Value: uint32(v)})
	}
	return v, err
}

func (c *Core) busWrite8(addr uint32, v byte) error {
	err := c.S.Bus.Write8(addr, v)
	c.stepCost += c.S.Bus.LastCost
	if err == nil {
		c.pdRam.Invalidate(addr)
		if c.Sink != nil {
			c.emit(telemetry.Event{Kind: telemetry.EvMemWrite, PC: c.PC, Addr: addr, Value: uint32(v)})
		}
	}
	return err
}

// setFlagsZN updates the Z and N flags from v.
func (c *Core) setFlagsZN(v uint32) {
	c.PSW &^= isa.FlagZ | isa.FlagN
	if v == 0 {
		c.PSW |= isa.FlagZ
	}
	if int32(v) < 0 {
		c.PSW |= isa.FlagN
	}
}

// setFlagsAddSub updates all arithmetic flags for a+b or a-b.
func (c *Core) setFlagsAddSub(a, b, res uint32, sub bool) {
	c.setFlagsZN(res)
	c.PSW &^= isa.FlagC | isa.FlagV
	if sub {
		if a < b {
			c.PSW |= isa.FlagC // borrow
		}
		if (a^b)&(a^res)&0x8000_0000 != 0 {
			c.PSW |= isa.FlagV
		}
	} else {
		if res < a {
			c.PSW |= isa.FlagC
		}
		if ^(a^b)&(a^res)&0x8000_0000 != 0 {
			c.PSW |= isa.FlagV
		}
	}
}

// trap enters the handler for vector vec. faultPC selects what RFE
// returns to: the faulting instruction (retry semantics, used for faults
// and interrupts) or the next instruction (used for TRAP). cause is
// stored in ICAUSE.
func (c *Core) trap(vec int, returnPC uint32, cause uint32) StepOutcome {
	entryAddr := c.VBR + uint32(vec)*4
	handler, err := c.S.Bus.Read32(entryAddr, mem.AccessRead)
	c.stepCost += c.S.Bus.LastCost
	if err != nil || handler == 0 {
		c.unhandledDetail = fmt.Sprintf("unhandled trap: vector %d (cause 0x%x) at pc 0x%08x", vec, cause, c.PC)
		return StepUnhandled
	}
	if c.Sink != nil {
		kind := telemetry.EvTrap
		if vec >= isa.VecIRQBase || vec == isa.VecWatchdog {
			kind = telemetry.EvIRQEnter
		}
		c.emit(telemetry.Event{Kind: kind, PC: c.PC, Addr: handler, Value: cause})
	}
	c.SPC = returnPC
	c.SPSW = c.PSW
	c.ICause = cause
	c.PSW &^= isa.FlagI
	c.PSW |= isa.FlagS
	c.PC = handler
	return StepOK
}

// AsyncPending reports whether PollAsync would do anything: watchdog
// fired, or interrupts enabled with an active line. Small enough to
// inline, it lets run loops skip the PollAsync call on the (overwhelming)
// idle iterations.
func (c *Core) AsyncPending() bool {
	return c.S.Hub.WatchdogFired || (c.PSW&isa.FlagI != 0 && c.S.Intc.Armed())
}

// PollAsync checks for watchdog expiry and enabled interrupts; it must be
// called between instructions. It returns StepUnhandled if a trap was
// taken with no handler.
func (c *Core) PollAsync() StepOutcome {
	if c.S.Hub.WatchdogFired {
		c.S.Hub.WatchdogFired = false
		return c.trap(isa.VecWatchdog, c.PC, isa.VecWatchdog)
	}
	if c.PSW&isa.FlagI != 0 {
		if line, ok := c.S.Intc.Next(); ok {
			vec := isa.VecIRQBase + line
			return c.trap(vec, c.PC, uint32(vec))
		}
	}
	return StepOK
}

// Step executes one instruction. Memory faults are converted into traps;
// a fault inside trap dispatch surfaces as StepUnhandled.
func (c *Core) Step() StepOutcome {
	c.stepCost = c.CyclesPerInst

	// Telemetry snapshot: register-write events are produced by diffing
	// the architectural state across exec, which keeps the emission
	// complete without touching every assignment in the interpreter.
	pc := c.PC
	trackRegs := c.Sink != nil && c.Mask.Has(telemetry.EvRegWrite)
	if trackRegs {
		c.snapD, c.snapA, c.snapPSW = c.D, c.A, c.PSW
	}

	var in isa.Inst
	var size int
	var e *predecode.Entry
	if off := pc - c.pdPageBase; off < predecode.PageBytes && c.pdPage != nil && pc&3 == 0 {
		e = c.pdPage.EntryAt(off)
	} else if p, base := c.pdRom.PageFor(pc); p != nil {
		c.pdPage, c.pdPageBase = p, base
		if pc&3 == 0 {
			e = p.EntryAt(pc - base)
		}
	} else {
		e = c.pdRam.Lookup(pc)
	}
	if e != nil {
		// Predecode fast path: the entry carries the decoded instruction
		// and the exact per-word fetch cost the bus would charge.
		c.pdHits++
		c.stepCost += uint64(e.Size) * e.Wait
		in, size = e.Inst, int(e.Size)
	} else {
		if c.pdRom != nil || c.pdRam != nil {
			c.pdSlow++
		}
		w0, err := c.S.Bus.Read32(c.PC, mem.AccessFetch)
		c.stepCost += c.S.Bus.LastCost
		if err != nil {
			// A faulting fetch still consumes an issue slot so that trap
			// ping-pong through a corrupt vector table cannot run unbounded.
			c.Insts++
			return c.finish(c.trap(isa.VecMemFault, c.PC, isa.VecMemFault))
		}
		words := [2]uint32{w0, 0}
		n := 1
		if isa.Opcode(w0 >> 24).HasExt() {
			w1, err := c.S.Bus.Read32(c.PC+4, mem.AccessFetch)
			c.stepCost += c.S.Bus.LastCost
			if err != nil {
				c.Insts++
				return c.finish(c.trap(isa.VecMemFault, c.PC, isa.VecMemFault))
			}
			words[1] = w1
			n = 2
		}
		var ok bool
		in, size, ok = isa.Decode(words[:n])
		if !ok {
			c.Insts++
			return c.finish(c.trap(isa.VecIllegal, c.PC, isa.VecIllegal))
		}
	}
	// Gate on the mask here, not just the sink: rendering the disassembly
	// is the expensive part, and a mask excluding instruction events must
	// not pay for it.
	if c.Sink != nil && c.Mask.Has(telemetry.EvInstRetired) {
		c.emit(telemetry.Event{Kind: telemetry.EvInstRetired, PC: pc, Disasm: in.String()})
	}
	next := c.PC + uint32(size)*4
	out := c.exec(in, next)
	c.Insts++
	if trackRegs {
		c.emitRegDiffs(pc)
	}
	return c.finish(out)
}

// finish commits this step's cycle cost and advances device time.
func (c *Core) finish(out StepOutcome) StepOutcome {
	c.Cycles += c.stepCost
	c.S.Bus.Tick(c.stepCost)
	return out
}

func (c *Core) exec(in isa.Inst, next uint32) StepOutcome {
	// dataFault converts a data-access error into the memory-fault trap.
	dataFault := func() StepOutcome {
		return c.trap(isa.VecMemFault, c.PC, isa.VecMemFault)
	}

	switch in.Op {
	case isa.OpNop:
		c.PC = next
	case isa.OpHalt:
		c.HaltCode = uint16(uint32(in.Imm))
		c.PC = next
		return StepHalted
	case isa.OpDebug:
		c.PC = next
		if c.DebugStops {
			return StepDebug
		}

	case isa.OpMovI:
		c.D[in.Rd.Index()] = uint32(in.Imm)
		c.PC = next
	case isa.OpMovHI:
		c.D[in.Rd.Index()] = uint32(in.Imm) << 16
		c.PC = next
	case isa.OpMovX:
		c.D[in.Rd.Index()] = uint32(in.Imm)
		c.PC = next
	case isa.OpMov:
		c.D[in.Rd.Index()] = c.D[in.Rs.Index()]
		c.PC = next
	case isa.OpMovA:
		c.A[in.Rd.Index()] = c.A[in.Rs.Index()]
		c.PC = next
	case isa.OpMovDA:
		c.D[in.Rd.Index()] = c.A[in.Rs.Index()]
		c.PC = next
	case isa.OpMovAD:
		c.A[in.Rd.Index()] = c.D[in.Rs.Index()]
		c.PC = next
	case isa.OpLea:
		c.A[in.Rd.Index()] = uint32(in.Imm)
		c.PC = next
	case isa.OpLeaO:
		c.A[in.Rd.Index()] = c.A[in.Rs.Index()] + uint32(in.Imm)
		c.PC = next

	case isa.OpLdW, isa.OpLdA:
		addr := c.A[in.Rs.Index()] + uint32(in.Imm)
		v, err := c.busRead32(addr)
		if err != nil {
			return dataFault()
		}
		c.setReg(in.Rd, v)
		c.PC = next
	case isa.OpLdH, isa.OpLdHU:
		addr := c.A[in.Rs.Index()] + uint32(in.Imm)
		v, err := c.busRead16(addr)
		if err != nil {
			return dataFault()
		}
		if in.Op == isa.OpLdH {
			c.D[in.Rd.Index()] = uint32(int32(int16(v)))
		} else {
			c.D[in.Rd.Index()] = uint32(v)
		}
		c.PC = next
	case isa.OpLdB, isa.OpLdBU:
		addr := c.A[in.Rs.Index()] + uint32(in.Imm)
		v, err := c.busRead8(addr)
		if err != nil {
			return dataFault()
		}
		if in.Op == isa.OpLdB {
			c.D[in.Rd.Index()] = uint32(int32(int8(v)))
		} else {
			c.D[in.Rd.Index()] = uint32(v)
		}
		c.PC = next
	case isa.OpStW, isa.OpStA:
		addr := c.A[in.Rs.Index()] + uint32(in.Imm)
		if err := c.busWrite32(addr, c.reg(in.Rd)); err != nil {
			return dataFault()
		}
		c.PC = next
	case isa.OpStH:
		addr := c.A[in.Rs.Index()] + uint32(in.Imm)
		if err := c.busWrite16(addr, uint16(c.D[in.Rd.Index()])); err != nil {
			return dataFault()
		}
		c.PC = next
	case isa.OpStB:
		addr := c.A[in.Rs.Index()] + uint32(in.Imm)
		if err := c.busWrite8(addr, byte(c.D[in.Rd.Index()])); err != nil {
			return dataFault()
		}
		c.PC = next
	case isa.OpLdWX:
		v, err := c.busRead32(uint32(in.Imm))
		if err != nil {
			return dataFault()
		}
		c.D[in.Rd.Index()] = v
		c.PC = next
	case isa.OpStWX:
		if err := c.busWrite32(uint32(in.Imm), c.D[in.Rd.Index()]); err != nil {
			return dataFault()
		}
		c.PC = next

	case isa.OpAdd, isa.OpSub, isa.OpAnd, isa.OpOr, isa.OpXor,
		isa.OpShl, isa.OpShr, isa.OpSar, isa.OpMul:
		a, b := c.D[in.Rs.Index()], c.D[in.Rt.Index()]
		c.D[in.Rd.Index()] = c.alu(in.Op, a, b)
		c.PC = next
	case isa.OpDiv, isa.OpRem:
		a, b := c.D[in.Rs.Index()], c.D[in.Rt.Index()]
		if b == 0 {
			return c.trap(isa.VecDivZero, c.PC, isa.VecDivZero)
		}
		res := divide(in.Op, a, b)
		c.D[in.Rd.Index()] = res
		c.setFlagsZN(res)
		c.PC = next
	case isa.OpCmp:
		a, b := c.D[in.Rs.Index()], c.D[in.Rt.Index()]
		c.setFlagsAddSub(a, b, a-b, true)
		c.PC = next
	case isa.OpAddI:
		a, b := c.D[in.Rs.Index()], uint32(in.Imm)
		c.D[in.Rd.Index()] = c.alu(isa.OpAdd, a, b)
		c.PC = next
	case isa.OpAndI, isa.OpOrI, isa.OpXorI, isa.OpShlI, isa.OpShrI, isa.OpSarI:
		// Logical and shift immediates zero-extend the 16-bit field.
		a, b := c.D[in.Rs.Index()], uint32(in.Imm)&0xffff
		var regOp isa.Opcode
		switch in.Op {
		case isa.OpAndI:
			regOp = isa.OpAnd
		case isa.OpOrI:
			regOp = isa.OpOr
		case isa.OpXorI:
			regOp = isa.OpXor
		case isa.OpShlI:
			regOp = isa.OpShl
		case isa.OpShrI:
			regOp = isa.OpShr
		case isa.OpSarI:
			regOp = isa.OpSar
		}
		c.D[in.Rd.Index()] = c.alu(regOp, a, b)
		c.PC = next
	case isa.OpMulI:
		a, b := c.D[in.Rs.Index()], uint32(in.Imm)
		c.D[in.Rd.Index()] = c.alu(isa.OpMul, a, b)
		c.PC = next
	case isa.OpCmpI:
		a, b := c.D[in.Rs.Index()], uint32(in.Imm)
		c.setFlagsAddSub(a, b, a-b, true)
		c.PC = next

	case isa.OpInsert:
		c.D[in.Rd.Index()] = isa.InsertBits(c.D[in.Rs.Index()], c.D[in.Rt.Index()], in.Pos, in.Width)
		c.PC = next
	case isa.OpInsertX:
		c.D[in.Rd.Index()] = isa.InsertBits(c.D[in.Rs.Index()], uint32(in.Imm), in.Pos, in.Width)
		c.PC = next
	case isa.OpExtractU:
		c.D[in.Rd.Index()] = isa.ExtractBitsU(c.D[in.Rs.Index()], in.Pos, in.Width)
		c.PC = next
	case isa.OpExtractS:
		c.D[in.Rd.Index()] = isa.ExtractBitsS(c.D[in.Rs.Index()], in.Pos, in.Width)
		c.PC = next

	case isa.OpJmp:
		c.PC = uint32(in.Imm)
	case isa.OpJI:
		c.PC = c.A[in.Rs.Index()]
	case isa.OpCall:
		c.A[isa.RA.Index()] = next
		c.PC = uint32(in.Imm)
	case isa.OpCallI:
		c.A[isa.RA.Index()] = next
		c.PC = c.A[in.Rs.Index()]
	case isa.OpRet:
		c.PC = c.A[isa.RA.Index()]
	case isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge, isa.OpBltU, isa.OpBgeU:
		a, b := c.D[in.Rd.Index()], c.D[in.Rs.Index()]
		taken := false
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
			c.PC = next + uint32(in.Imm)*4
			c.stepCost++ // taken-branch penalty
		} else {
			c.PC = next
		}

	case isa.OpTrap:
		n := uint32(in.Imm) & 0xff
		return c.trap(isa.VecSyscall, next, uint32(isa.VecSyscall)|n<<8)
	case isa.OpRfe:
		if c.Sink != nil {
			c.emit(telemetry.Event{Kind: telemetry.EvIRQExit, PC: c.PC, Addr: c.SPC})
		}
		c.PC = c.SPC
		c.PSW = c.SPSW
	case isa.OpMfcr:
		c.D[in.Rd.Index()] = c.readCR(uint16(in.Imm))
		c.PC = next
	case isa.OpMtcr:
		c.writeCR(uint16(in.Imm), c.D[in.Rd.Index()])
		c.PC = next

	default:
		return c.trap(isa.VecIllegal, c.PC, isa.VecIllegal)
	}
	return StepOK
}

// divide implements signed division with the architectural overflow case
// pinned down: INT_MIN / -1 wraps to INT_MIN with remainder 0 (Go's
// native division would panic on it).
func divide(op isa.Opcode, a, b uint32) uint32 {
	if a == 0x8000_0000 && b == 0xffff_ffff {
		if op == isa.OpDiv {
			return 0x8000_0000
		}
		return 0
	}
	if op == isa.OpDiv {
		return uint32(int32(a) / int32(b))
	}
	return uint32(int32(a) % int32(b))
}

// alu computes a register-form ALU result and updates flags.
func (c *Core) alu(op isa.Opcode, a, b uint32) uint32 {
	var res uint32
	switch op {
	case isa.OpAdd:
		res = a + b
		c.setFlagsAddSub(a, b, res, false)
		return res
	case isa.OpSub:
		res = a - b
		c.setFlagsAddSub(a, b, res, true)
		return res
	case isa.OpAnd:
		res = a & b
	case isa.OpOr:
		res = a | b
	case isa.OpXor:
		res = a ^ b
	case isa.OpShl:
		res = a << (b & 31)
	case isa.OpShr:
		res = a >> (b & 31)
	case isa.OpSar:
		res = uint32(int32(a) >> (b & 31))
	case isa.OpMul:
		res = a * b
	}
	c.setFlagsZN(res)
	c.PSW &^= isa.FlagC | isa.FlagV
	return res
}

func (c *Core) readCR(idx uint16) uint32 {
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
		return c.ICause
	}
	return 0
}

func (c *Core) writeCR(idx uint16, v uint32) {
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

// RunCore drives a core to completion under a RunSpec; shared by the
// golden-core-based platforms.
func RunCore(c *Core, name string, kind platform.Kind, caps platform.Caps, spec platform.RunSpec) (*platform.Result, error) {
	c.SetEngine(spec.Engine)
	disarm, err := ArmTrace(c, caps, spec)
	if err != nil {
		return nil, err
	}
	defer disarm()
	maxInsts := spec.MaxInstructions
	if maxInsts == 0 {
		maxInsts = platform.DefaultMaxInstructions
	}
	maxCycles := spec.MaxCycles
	if maxCycles == 0 {
		maxCycles = ^uint64(0)
	}
	doTrace := caps.Trace && spec.Trace != nil
	ctx := spec.Context
	// Translated dispatch is the fast path, but only when nothing needs
	// per-instruction observation: an armed event sink, a trace callback,
	// or breakpoint semantics each force the interpreter (the fallback
	// contract — fidelity is never traded for speed).
	useTrans := c.engine == platform.EngineTranslate &&
		c.Sink == nil && !doTrace && !c.DebugStops
	res := &platform.Result{Platform: name, Kind: kind}
run:
	for {
		if ctx != nil && c.Insts&(platform.CancelStride-1) == 0 {
			if err := ctx.Err(); err != nil {
				res.Reason = platform.StopCancelled
				res.Detail = "run cancelled after " + fmt.Sprint(c.Insts) + " instructions: " + err.Error()
				break
			}
		}
		if c.stopReq {
			res.Reason = platform.StopAbort
			break
		}
		if c.Insts >= maxInsts {
			res.Reason = platform.StopMaxInsts
			break
		}
		if c.Cycles >= maxCycles {
			res.Reason = platform.StopMaxCycles
			break
		}
		if c.AsyncPending() {
			if out := c.PollAsync(); out == StepUnhandled {
				res.Reason = platform.StopUnhandled
				res.Detail = c.UnhandledDetail()
				break
			}
		}
		if useTrans && c.transCooldown == 0 {
			switch c.transRun(maxInsts, maxCycles, ctx) {
			case transOuter:
				// A limit, async event, or cancellation needs this
				// loop's checks; transRun always makes progress or
				// reports one of those, so this cannot spin. Handle
				// cancellation here rather than waiting for the strided
				// poll above: block execution can step past the stride
				// boundary, and cancellation latency must not grow.
				if ctx != nil && ctx.Err() != nil {
					res.Reason = platform.StopCancelled
					res.Detail = "run cancelled after " + fmt.Sprint(c.Insts) + " instructions: " + ctx.Err().Error()
					break run
				}
				continue
			case transUnhandled:
				res.Reason = platform.StopUnhandled
				res.Detail = c.UnhandledDetail()
				break run
			}
			// transStep: no translated progress possible at this PC —
			// fall through to exactly one interpreter step. transRun's
			// block-entry checks guarantee the limit/async/cancel state
			// is the same as at this loop's head, so stepping without
			// re-checking matches the interpreter schedule.
		} else if useTrans {
			c.transCooldown--
		}
		if doTrace {
			rec := platform.TraceRecord{PC: c.PC, Disasm: DisasmAt(c.S, c.PC)}
			if c.Img != nil {
				rec.File, rec.Line, _ = c.Img.SourceAt(c.PC)
			}
			spec.Trace(rec)
		}
		out := c.Step()
		if out == StepOK {
			continue
		}
		switch out {
		case StepHalted:
			res.Reason = platform.StopHalt
			res.HaltCode = c.HaltCode
		case StepDebug:
			res.Reason = platform.StopBreakpoint
			res.Detail = fmt.Sprintf("DEBUG instruction at pc 0x%08x", c.PC-4)
		case StepUnhandled:
			res.Reason = platform.StopUnhandled
			res.Detail = c.UnhandledDetail()
		}
		break
	}
	c.FlushStats(spec.Counts)
	res.Instructions = c.Insts
	res.Cycles = c.Cycles
	res.MboxResult, res.MboxDone = c.S.Mbox.Result()
	res.Console = c.S.Mbox.Console()
	res.Checkpoints = c.S.Mbox.Checkpoints()
	if caps.RegVisibility {
		res.State = c.State()
	}
	return res, nil
}

// DisasmAt disassembles the instruction at addr for trace records,
// bypassing permission checks. It returns "?" on unmapped or undecodable
// words.
func DisasmAt(s *soc.SoC, addr uint32) string {
	raw, err := s.Mem.Dump(addr, 8)
	if err != nil {
		raw, err = s.Mem.Dump(addr, 4)
		if err != nil {
			return "?"
		}
	}
	words := make([]uint32, len(raw)/4)
	for i := range words {
		words[i] = uint32(raw[i*4]) | uint32(raw[i*4+1])<<8 |
			uint32(raw[i*4+2])<<16 | uint32(raw[i*4+3])<<24
	}
	in, _, ok := isa.Decode(words)
	if !ok {
		return "?"
	}
	return in.String()
}
