package rtl

import (
	"context"
	"fmt"
	"io"

	"repro/internal/core/telemetry"
	"repro/internal/obj"
	"repro/internal/platform"
	"repro/internal/predecode"
	"repro/internal/soc"
)

// traceFidelity is what the simulated design's trace port carries:
// retired instructions and architectural register writes, observed at
// retire boundaries. Bus transactions, traps and UART bytes are not
// reconstructed from RTL signals.
const traceFidelity = telemetry.EventMask(1)<<telemetry.EvInstRetired |
	1<<telemetry.EvRegWrite

// Sim is the RTL simulation platform.
type Sim struct {
	name        string
	cfg         soc.HWConfig
	cpu         *CPU
	img         *obj.Image
	alu         ALUBackend
	kind        platform.Kind
	vcd         io.Writer
	noPredecode bool
}

func init() {
	platform.Register(platform.KindRTL, func(cfg soc.HWConfig) platform.Platform {
		return NewSim(cfg)
	})
}

// NewSim creates an RTL platform with the behavioural ALU backend.
func NewSim(cfg soc.HWConfig) *Sim {
	return &Sim{name: "rtl/" + cfg.Name, cfg: cfg, alu: DirectALU{}, kind: platform.KindRTL}
}

// NewSimWithALU creates an RTL-style platform with a custom ALU backend
// and identity; the gate-level platform builds on this.
func NewSimWithALU(name string, kind platform.Kind, cfg soc.HWConfig, alu ALUBackend) *Sim {
	return &Sim{name: name, cfg: cfg, alu: alu, kind: kind}
}

// Name implements platform.Platform.
func (s *Sim) Name() string { return s.name }

// Kind implements platform.Platform.
func (s *Sim) Kind() platform.Kind { return s.kind }

// Caps implements platform.Platform.
func (s *Sim) Caps() platform.Caps {
	return platform.Caps{
		Trace:         true,
		Breakpoints:   false,
		RegVisibility: true,
		MemVisibility: true,
		CycleAccurate: true,
	}
}

// SoC implements platform.Platform.
func (s *Sim) SoC() *soc.SoC {
	if s.cpu == nil {
		s.cpu = NewCPU(soc.New(s.cfg), s.alu)
	}
	return s.cpu.S
}

// CPU exposes the core for white-box inspection (waveforms, state).
func (s *Sim) CPU() *CPU { return s.cpu }

// SetVCD enables waveform dumping for the next Load/Run.
func (s *Sim) SetVCD(w io.Writer) { s.vcd = w }

// DisablePredecode turns off the predecoded-instruction fast path for
// subsequent Loads (benchmarks and A/B cycle-fidelity checks).
func (s *Sim) DisablePredecode() { s.noPredecode = true }

// Load implements platform.Platform.
func (s *Sim) Load(img *obj.Image) error {
	sc := soc.New(s.cfg)
	if err := platform.Load(sc, img); err != nil {
		return err
	}
	s.cpu = NewCPU(sc, s.alu)
	s.img = img
	s.cpu.PC = img.Entry
	s.cpu.SetSP(s.cfg.RamBase + s.cfg.RamSize - 16)
	if !s.noPredecode {
		s.cpu.pdRom = predecode.ForImage(img, s.cfg.RomBase, s.cfg.RomSize, sc.Bus.CostOf(s.cfg.RomBase))
		s.cpu.pdRam = predecode.NewOverlay(sc.Mem, s.cfg.RamBase, s.cfg.RamSize, sc.Bus.CostOf(s.cfg.RamBase))
	}
	// A reloaded platform starts a fresh run: clear any queued or
	// diverged state left in a deferred-verification ALU backend.
	if r, ok := s.alu.(interface{ ResetALU() }); ok {
		r.ResetALU()
	}
	if s.vcd != nil {
		s.cpu.Sim.StartVCD(s.vcd)
	}
	return nil
}

// cancelCycleStride is how many clock cycles the RTL state machine runs
// between RunSpec.Context polls — the cycle-domain analogue of
// platform.CancelStride (an SC88 instruction retires in a handful of
// cycles, so this bounds cancellation latency similarly). Power of two
// for a mask test in the cycle loop.
const cancelCycleStride = 8192

// Run implements platform.Platform.
func (s *Sim) Run(spec platform.RunSpec) (*platform.Result, error) {
	c := s.cpu
	// Engine selection: the RTL state machine has no translated mode, so
	// EngineInterp maps to predecode-off and everything else to the
	// predecoded fast path (unless DisablePredecode pinned it off). Both
	// are cycle-identical; the knob exists for A/B fidelity checks.
	if spec.Engine == platform.EngineInterp {
		c.pdRom, c.pdRam = nil, nil
	} else if !s.noPredecode && s.img != nil && (c.pdRom == nil || c.pdRam == nil) {
		c.pdRom = predecode.ForImage(s.img, s.cfg.RomBase, s.cfg.RomSize, c.S.Bus.CostOf(s.cfg.RomBase))
		c.pdRam = predecode.NewOverlay(c.S.Mem, s.cfg.RamBase, s.cfg.RamSize, c.S.Bus.CostOf(s.cfg.RamBase))
	}
	maxInsts := spec.MaxInstructions
	if maxInsts == 0 {
		maxInsts = platform.DefaultMaxInstructions
	}
	ctx := spec.Context
	// A deferred-verification backend (the gate platform's batched ALU
	// checker) observes the same context so a cancelled run's final
	// drain does not burn netlist sweeps on a condemned result.
	if cc, ok := s.alu.(interface{ SetRunContext(context.Context) }); ok {
		cc.SetRunContext(ctx)
	}
	res := &platform.Result{Platform: s.name, Kind: s.kind}
	// Event stream: the RTL trace port reports instructions at retire
	// boundaries (detected as Insts advancing) with the PC captured at
	// fetch, plus register writes found by diffing the architectural
	// state across the instruction.
	var (
		emitEvents = spec.Events != nil
		mask       telemetry.EventMask
		seq        uint64
		aborted    bool
		pendingPC  uint32
		prevInsts  = c.Insts
		snapD      [16]uint32
		snapA      [16]uint32
		snapPSW    uint32
	)
	if emitEvents {
		mask = traceFidelity & spec.EventMask.Effective()
	}
	emit := func(ev telemetry.Event) {
		if aborted || !mask.Has(ev.Kind) {
			return
		}
		seq++
		ev.Seq = seq
		ev.Insts = c.Insts
		ev.Cycles = c.Cycles
		if !spec.Events.Emit(ev) {
			aborted = true
		}
	}
	var lastTracedPC uint32 = 1 // unaligned: never a valid PC
	chk, _ := s.alu.(ALUChecker)
	// Observability runs (trace callback or event stream armed) disable
	// deferred batching: the queue is drained every cycle, so a netlist
	// divergence stops the run at the instruction that caused it.
	// First-divergence triage depends on that — a batched check that only
	// fires at the end-of-run drain leaves the (behaviourally correct)
	// event stream identical to the reference's, hiding the fault.
	eager := chk != nil && (spec.Trace != nil || spec.Events != nil)
	for {
		if eager {
			chk.FlushALU()
		}
		if chk != nil {
			if d, bad := chk.ALUDivergence(); bad {
				res.Reason = platform.StopDivergence
				res.Detail = d
			}
		}
		if res.Reason == "" && ctx != nil && c.Cycles&(cancelCycleStride-1) == 0 {
			if err := ctx.Err(); err != nil {
				res.Reason = platform.StopCancelled
				res.Detail = fmt.Sprintf("run cancelled after %d cycles: %v", c.Cycles, err)
			}
		}
		if res.Reason == "" {
			switch {
			case aborted:
				res.Reason = platform.StopAbort
			case c.Halted:
				res.Reason = platform.StopHalt
				res.HaltCode = c.HaltCode
			case c.Unhandled:
				res.Reason = platform.StopUnhandled
				res.Detail = c.UnhandledAt
			case c.DebugStop:
				res.Reason = platform.StopBreakpoint
			case c.Insts >= maxInsts:
				res.Reason = platform.StopMaxInsts
			case spec.MaxCycles > 0 && c.Cycles >= spec.MaxCycles:
				res.Reason = platform.StopMaxCycles
			}
		}
		if res.Reason != "" {
			// Drain the deferred-verification queue so a divergence in the
			// final partial batch is not lost to the stop.
			if chk != nil && res.Reason != platform.StopDivergence {
				chk.FlushALU()
				if d, bad := chk.ALUDivergence(); bad {
					res.Reason = platform.StopDivergence
					res.Detail = d
					res.HaltCode = 0
				}
			}
			break
		}
		if (spec.Trace != nil || emitEvents) && c.state == stFetch && c.PC != lastTracedPC {
			lastTracedPC = c.PC
			pendingPC = c.PC
			if emitEvents {
				snapD, snapA, snapPSW = c.D, c.A, c.PSW
			}
			if spec.Trace != nil {
				rec := platform.TraceRecord{PC: c.PC}
				if s.img != nil {
					rec.File, rec.Line, _ = s.img.SourceAt(c.PC)
				}
				spec.Trace(rec)
			}
		}
		if err := c.Clk.Cycles(1); err != nil {
			return nil, err
		}
		if emitEvents && c.Insts > prevInsts {
			prevInsts = c.Insts
			emit(telemetry.Event{Kind: telemetry.EvInstRetired, PC: pendingPC})
			for i := 0; i < 16; i++ {
				if c.D[i] != snapD[i] {
					emit(telemetry.Event{Kind: telemetry.EvRegWrite, PC: pendingPC, Reg: uint8(i), Value: c.D[i]})
				}
				if c.A[i] != snapA[i] {
					emit(telemetry.Event{Kind: telemetry.EvRegWrite, PC: pendingPC, Reg: telemetry.RegA0 + uint8(i), Value: c.A[i]})
				}
			}
			if c.PSW != snapPSW {
				emit(telemetry.Event{Kind: telemetry.EvRegWrite, PC: pendingPC, Reg: telemetry.RegPSW, Value: c.PSW})
			}
		}
	}
	c.FlushPredecodeStats(spec.Counts)
	res.Instructions = c.Insts
	res.Cycles = c.Cycles
	res.MboxResult, res.MboxDone = c.S.Mbox.Result()
	res.Console = c.S.Mbox.Console()
	res.Checkpoints = c.S.Mbox.Checkpoints()
	res.State = &platform.ArchState{D: c.D, A: c.A, PC: c.PC, PSW: c.PSW}
	return res, nil
}
