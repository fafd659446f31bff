package golden

import (
	"repro/internal/obj"
	"repro/internal/platform"
	"repro/internal/soc"
)

// Model is the golden-reference-model platform: instruction-accurate,
// fully visible, fastest.
type Model struct {
	cfg soc.HWConfig
	// core is built by each Load, or on first use before any Load.
	core *Core
	name string
}

func init() {
	platform.Register(platform.KindGolden, func(cfg soc.HWConfig) platform.Platform {
		return NewModel(cfg)
	})
}

// NewModel creates a golden platform over a derivative configuration.
func NewModel(cfg soc.HWConfig) *Model {
	return &Model{cfg: cfg, name: "golden/" + cfg.Name}
}

// Name implements platform.Platform.
func (m *Model) Name() string { return m.name }

// Kind implements platform.Platform.
func (m *Model) Kind() platform.Kind { return platform.KindGolden }

// Caps implements platform.Platform.
func (m *Model) Caps() platform.Caps {
	return platform.Caps{
		Trace:         true,
		Breakpoints:   false,
		RegVisibility: true,
		MemVisibility: true,
		CycleAccurate: false, // instruction-approximate timing only
	}
}

// SoC implements platform.Platform.
func (m *Model) SoC() *soc.SoC { return m.Core().S }

// Core exposes the underlying functional core for white-box checks and
// cross-platform state comparison.
func (m *Model) Core() *Core {
	if m.core == nil {
		m.core = NewCore(soc.New(m.cfg))
	}
	return m.core
}

// Load implements platform.Platform. Every load starts from a new chip;
// PredecodeOff carries over from the previous one.
func (m *Model) Load(img *obj.Image) error {
	off := m.core != nil && m.core.PredecodeOff
	m.core = nil
	c := m.Core()
	c.PredecodeOff = off
	return c.LoadImage(img)
}

// Run implements platform.Platform.
func (m *Model) Run(spec platform.RunSpec) (*platform.Result, error) {
	return RunCore(m.Core(), m.name, platform.KindGolden, m.Caps(), spec)
}
