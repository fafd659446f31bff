// Package silicon implements the product-silicon platform: the final
// customer chip. Debug features are fused off — no trace, no breakpoints
// (DEBUG retires as a NOP), no register or memory visibility. The only
// observation channels are the chip's pins and the test mailbox, which is
// why every directed test in the ADVM suite must be self-checking.
package silicon

import (
	"repro/internal/golden"
	"repro/internal/obj"
	"repro/internal/platform"
	"repro/internal/soc"
)

func init() {
	platform.Register(platform.KindSilicon, func(cfg soc.HWConfig) platform.Platform {
		return New(cfg)
	})
}

// Chip is a product-silicon device.
type Chip struct {
	cfg soc.HWConfig
	// core is built by each Load, or on first use before any Load.
	core *golden.Core
	name string
}

// New creates a product-silicon platform.
func New(cfg soc.HWConfig) *Chip {
	return &Chip{cfg: cfg, name: "silicon/" + cfg.Name}
}

// chip returns the current core, building a new one if there is none.
func (c *Chip) chip() *golden.Core {
	if c.core == nil {
		c.core = golden.NewCore(soc.New(c.cfg))
	}
	return c.core
}

// Name implements platform.Platform.
func (c *Chip) Name() string { return c.name }

// Kind implements platform.Platform.
func (c *Chip) Kind() platform.Kind { return platform.KindSilicon }

// Caps implements platform.Platform.
func (c *Chip) Caps() platform.Caps { return platform.Caps{} }

// SoC implements platform.Platform: product silicon exposes its pins
// (UART, GPIO) — the SoC handle is the pin interface.
func (c *Chip) SoC() *soc.SoC { return c.chip().S }

// Load implements platform.Platform (the production programmer writes the
// ROM/NVM images). Every load starts from a new chip.
func (c *Chip) Load(img *obj.Image) error {
	c.core = nil
	return c.chip().LoadImage(img)
}

// Run implements platform.Platform. RunSpec.Context cancellation is
// inherited from golden.RunCore — on the real tester this is the
// handler's watchdog yanking a part that stopped answering.
func (c *Chip) Run(spec platform.RunSpec) (*platform.Result, error) {
	spec.Trace = nil // no trace port on product silicon
	res, err := golden.RunCore(c.chip(), c.name, platform.KindSilicon, c.Caps(), spec)
	if err != nil {
		return nil, err
	}
	// Fused-off visibility: strip everything not observable on pins.
	res.State = nil
	return res, nil
}
