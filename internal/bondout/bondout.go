// Package bondout implements the bondout-silicon platform: the production
// design with extra debug hardware bonded out — hardware breakpoints, a
// memory watchpoint unit, an instruction trace port, and a register
// window. Tests behave as on product silicon, but debugging a failure is
// possible, which is exactly why chip-card projects order bondout parts.
package bondout

import (
	"fmt"

	"repro/internal/core/telemetry"
	"repro/internal/golden"
	"repro/internal/mem"
	"repro/internal/obj"
	"repro/internal/platform"
	"repro/internal/soc"
)

// traceFidelity is what the bonded-out trace port carries: the
// instruction stream plus trap and interrupt markers — no data-side
// (memory/register/UART) visibility while running.
const traceFidelity = telemetry.EventMask(1)<<telemetry.EvInstRetired |
	1<<telemetry.EvTrap | 1<<telemetry.EvIRQEnter | 1<<telemetry.EvIRQExit

// maxHWBreakpoints is the size of the bonded-out breakpoint unit.
const maxHWBreakpoints = 4

func init() {
	platform.Register(platform.KindBondout, func(cfg soc.HWConfig) platform.Platform {
		return New(cfg)
	})
}

// Chip is a bondout device. Its debug units, the breakpoint comparators
// and the watchpoint ranges, belong to the chip and stay armed across
// Loads; each Load arms them on the new SoC it builds.
type Chip struct {
	cfg soc.HWConfig
	// core is built by each Load, or on first use before any Load.
	core    *golden.Core
	name    string
	breaks  []uint32
	watches []mem.Watchpoint
	// WatchHits records watchpoint-unit hits (addr, value pairs) since
	// the last Load.
	WatchHits []uint32
}

// New creates a bondout platform.
func New(cfg soc.HWConfig) *Chip {
	return &Chip{cfg: cfg, name: "bondout/" + cfg.Name}
}

// chip returns the current core, building a new one with the debug units
// armed if there is none.
func (c *Chip) chip() *golden.Core {
	if c.core == nil {
		c.core = golden.NewCore(soc.New(c.cfg))
		c.core.DebugStops = true
		c.core.Fidelity = traceFidelity
		for _, w := range c.watches {
			c.core.S.Mem.AddWatchpoint(w)
		}
	}
	return c.core
}

// Name implements platform.Platform.
func (c *Chip) Name() string { return c.name }

// Kind implements platform.Platform.
func (c *Chip) Kind() platform.Kind { return platform.KindBondout }

// Caps implements platform.Platform.
func (c *Chip) Caps() platform.Caps {
	return platform.Caps{
		Trace:         true,
		Breakpoints:   true,
		RegVisibility: true,
		MemVisibility: true,
		CycleAccurate: false,
	}
}

// SoC implements platform.Platform.
func (c *Chip) SoC() *soc.SoC { return c.chip().S }

// AddBreakpoint arms a hardware breakpoint at a code address. Adding more
// than the unit supports silently replaces the oldest, as real debug
// hardware with a fixed comparator count does.
func (c *Chip) AddBreakpoint(addr uint32) {
	if len(c.breaks) >= maxHWBreakpoints {
		c.breaks = c.breaks[1:]
	}
	c.breaks = append(c.breaks, addr)
}

// AddWatchpoint arms the watchpoint unit on a data-address range.
func (c *Chip) AddWatchpoint(lo, hi uint32) {
	w := mem.Watchpoint{
		Lo: lo, Hi: hi, Kind: mem.AccessWrite,
		Hit: func(addr uint32, _ mem.Access, v uint32) {
			c.WatchHits = append(c.WatchHits, addr, v)
		},
	}
	c.watches = append(c.watches, w)
	if c.core != nil {
		c.core.S.Mem.AddWatchpoint(w)
	}
}

// Load implements platform.Platform. Every load starts from a new chip.
func (c *Chip) Load(img *obj.Image) error {
	c.core = nil
	c.WatchHits = nil
	return c.chip().LoadImage(img)
}

// Run implements platform.Platform.
func (c *Chip) Run(spec platform.RunSpec) (*platform.Result, error) {
	core := c.chip()
	if len(c.breaks) == 0 {
		return golden.RunCore(core, c.name, platform.KindBondout, c.Caps(), spec)
	}
	// With breakpoints armed, single-step and compare PC against the
	// comparators before each instruction.
	disarm, err := golden.ArmTrace(core, c.Caps(), spec)
	if err != nil {
		return nil, err
	}
	defer disarm()
	maxInsts := spec.MaxInstructions
	if maxInsts == 0 {
		maxInsts = platform.DefaultMaxInstructions
	}
	ctx := spec.Context
	res := &platform.Result{Platform: c.name, Kind: platform.KindBondout}
	for {
		if ctx != nil && core.Insts&(platform.CancelStride-1) == 0 {
			if err := ctx.Err(); err != nil {
				res.Reason = platform.StopCancelled
				res.Detail = fmt.Sprintf("run cancelled after %d instructions: %v", core.Insts, err)
				break
			}
		}
		if core.StopRequested() {
			res.Reason = platform.StopAbort
			break
		}
		if core.Insts >= maxInsts {
			res.Reason = platform.StopMaxInsts
			break
		}
		hit := false
		for _, b := range c.breaks {
			if core.PC == b {
				hit = true
			}
		}
		if hit {
			res.Reason = platform.StopBreakpoint
			break
		}
		if out := core.PollAsync(); out == golden.StepUnhandled {
			res.Reason = platform.StopUnhandled
			res.Detail = core.UnhandledDetail()
			break
		}
		if spec.Trace != nil {
			rec := platform.TraceRecord{PC: core.PC}
			if core.Img != nil {
				rec.File, rec.Line, _ = core.Img.SourceAt(core.PC)
			}
			spec.Trace(rec)
		}
		out := core.Step()
		if out == golden.StepOK {
			continue
		}
		switch out {
		case golden.StepHalted:
			res.Reason = platform.StopHalt
			res.HaltCode = core.HaltCode
		case golden.StepDebug:
			res.Reason = platform.StopBreakpoint
		case golden.StepUnhandled:
			res.Reason = platform.StopUnhandled
			res.Detail = core.UnhandledDetail()
		}
		break
	}
	res.Instructions = core.Insts
	res.Cycles = core.Cycles
	res.MboxResult, res.MboxDone = core.S.Mbox.Result()
	res.Console = core.S.Mbox.Console()
	res.Checkpoints = core.S.Mbox.Checkpoints()
	res.State = core.State()
	return res, nil
}

// Resume continues execution after a breakpoint stop.
func (c *Chip) Resume(spec platform.RunSpec) (*platform.Result, error) {
	// Step over the current breakpoint address by clearing comparators
	// for one instruction.
	saved := c.breaks
	c.breaks = nil
	if core := c.chip(); core.PollAsync() != golden.StepUnhandled {
		core.Step()
	}
	c.breaks = saved
	return c.Run(spec)
}

// Core exposes the underlying core for the debug register window.
func (c *Chip) Core() *golden.Core { return c.chip() }
