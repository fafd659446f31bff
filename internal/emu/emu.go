// Package emu implements the hardware-accelerator platform (the paper's
// Quickturn/IKOS emulator): functionally identical to the design, fast,
// but with coarse timing and restricted debug visibility — no
// per-instruction trace, no breakpoints, and no register window while
// running. Firmware sign-off regressions run here.
package emu

import (
	"repro/internal/golden"
	"repro/internal/obj"
	"repro/internal/platform"
	"repro/internal/soc"
)

// emuCyclesPerInst is the accelerator's coarse cycle approximation.
const emuCyclesPerInst = 2

func init() {
	platform.Register(platform.KindEmulator, func(cfg soc.HWConfig) platform.Platform {
		return New(cfg)
	})
}

// Box is an emulator instance.
type Box struct {
	cfg soc.HWConfig
	// core is built by each Load, or on first use before any Load.
	core *golden.Core
	name string
}

// New creates an emulator platform.
func New(cfg soc.HWConfig) *Box {
	return &Box{cfg: cfg, name: "emulator/" + cfg.Name}
}

// chip returns the current core, building a new one if there is none.
func (b *Box) chip() *golden.Core {
	if b.core == nil {
		b.core = golden.NewCore(soc.New(b.cfg))
		b.core.CyclesPerInst = emuCyclesPerInst
	}
	return b.core
}

// Name implements platform.Platform.
func (b *Box) Name() string { return b.name }

// Kind implements platform.Platform.
func (b *Box) Kind() platform.Kind { return platform.KindEmulator }

// Caps implements platform.Platform.
func (b *Box) Caps() platform.Caps {
	return platform.Caps{
		Trace:         false,
		Breakpoints:   false,
		RegVisibility: false,
		MemVisibility: true, // memories can be dumped at stop
		CycleAccurate: false,
	}
}

// SoC implements platform.Platform.
func (b *Box) SoC() *soc.SoC { return b.chip().S }

// Load implements platform.Platform. Every load starts from a new chip.
func (b *Box) Load(img *obj.Image) error {
	b.core = nil
	return b.chip().LoadImage(img)
}

// Run implements platform.Platform. Cooperative cancellation
// (RunSpec.Context) is inherited from golden.RunCore: the accelerator
// is one of the shared physical rungs the regression pipeline guards
// with per-cell deadlines and retries, so a wedged job stops with
// StopCancelled instead of holding the box.
func (b *Box) Run(spec platform.RunSpec) (*platform.Result, error) {
	// The accelerator ignores trace requests: it has no trace port.
	spec.Trace = nil
	return golden.RunCore(b.chip(), b.name, platform.KindEmulator, b.Caps(), spec)
}
