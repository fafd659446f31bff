// Package platform defines the common contract implemented by all six
// SC88 execution platforms from the paper's Section 1 list: golden
// reference model, HDL-RTL simulation, HDL gate-level simulation, hardware
// accelerator, bondout silicon, and product silicon. The same linked test
// image runs on every platform; what differs is timing fidelity, execution
// speed, and how much internal state is observable.
package platform

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"repro/internal/core/telemetry"
	"repro/internal/obj"
	"repro/internal/soc"
)

// ErrNoTrace is returned by Run when RunSpec.Events requests an
// execution-trace event stream on a platform without a trace port
// (Caps.Trace false): the hardware accelerator and product silicon.
// The legacy RunSpec.Trace callback is still silently ignored on those
// platforms for compatibility with pre-telemetry callers.
var ErrNoTrace = errors.New("platform: no trace port (Caps.Trace is false)")

// Kind enumerates the platform classes.
type Kind uint8

// Platform kinds, in the paper's order.
const (
	KindGolden Kind = iota
	KindRTL
	KindGate
	KindEmulator
	KindBondout
	KindSilicon
)

func (k Kind) String() string {
	switch k {
	case KindGolden:
		return "golden"
	case KindRTL:
		return "rtl"
	case KindGate:
		return "gate"
	case KindEmulator:
		return "emulator"
	case KindBondout:
		return "bondout"
	case KindSilicon:
		return "silicon"
	}
	return "platform?"
}

// ParseKind parses a platform-kind name, case-insensitively. Every kind
// on the ladder parses, registered or not: New checks registration.
func ParseKind(name string) (Kind, error) {
	for _, k := range []Kind{KindGolden, KindRTL, KindGate, KindEmulator, KindBondout, KindSilicon} {
		if strings.EqualFold(k.String(), name) {
			return k, nil
		}
	}
	return 0, fmt.Errorf("platform: unknown platform %q (want golden|rtl|gate|emulator|bondout|silicon)", name)
}

// Engine selects the execution strategy of the behavioural simulators
// (the golden core and the platforms wrapping it). Every engine is
// bit-identical by construction — same architectural results, same
// instruction and cycle counts, same stop reasons — so the choice is a
// pure speed/observability trade and MUST NOT leak into run-cache
// content addressing (see internal/core/runcache): a result computed by
// one engine is a valid cached outcome for every other.
type Engine uint8

// Engines, slowest to fastest.
const (
	// EngineDefault resolves to EngineTranslate, the fastest engine.
	EngineDefault Engine = iota
	// EngineInterp is the plain decode-per-step interpreter.
	EngineInterp
	// EnginePredecode is the interpreter over predecoded instruction
	// pages (PR 4).
	EnginePredecode
	// EngineTranslate executes superblock-translated threaded code
	// (internal/translate), falling back to the interpreter at armed
	// trace sinks, breakpoints, and poisoned pages.
	EngineTranslate
)

func (e Engine) String() string {
	switch e {
	case EngineInterp:
		return "interp"
	case EnginePredecode:
		return "predecode"
	case EngineTranslate, EngineDefault:
		return "translate"
	}
	return "engine?"
}

// ParseEngine parses an -engine flag value.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "", "default", "translate":
		return EngineTranslate, nil
	case "interp":
		return EngineInterp, nil
	case "predecode":
		return EnginePredecode, nil
	}
	return EngineDefault, fmt.Errorf("platform: unknown engine %q (want interp|predecode|translate)", s)
}

// Caps describes a platform's observability and debug capabilities.
type Caps struct {
	// Trace: per-instruction tracing is available.
	Trace bool
	// Breakpoints: DEBUG instructions and hardware breakpoints stop the run.
	Breakpoints bool
	// RegVisibility: final architectural register state is reported.
	RegVisibility bool
	// MemVisibility: memory can be inspected after the run.
	MemVisibility bool
	// CycleAccurate: reported cycle counts are cycle-true rather than
	// approximate.
	CycleAccurate bool
}

// ArchState is a snapshot of the architectural registers.
type ArchState struct {
	D, A    [16]uint32
	PC, PSW uint32
}

// TraceRecord describes one executed instruction on a tracing platform.
type TraceRecord struct {
	PC     uint32
	Disasm string
	File   string
	Line   int
}

// RunSpec bounds and instruments a run.
type RunSpec struct {
	// Context, when non-nil, cancels the run cooperatively: platforms
	// poll ctx.Err() every CancelStride instructions (or an equivalent
	// cycle stride) and stop with StopCancelled once the context is
	// done. This is how the regression pipeline enforces per-cell
	// wall-clock deadlines — a wedged platform model stops at its
	// deadline instead of hanging a worker forever. Nil means the run
	// is bounded only by the instruction/cycle limits.
	Context context.Context
	// MaxInstructions stops the run after this many instructions
	// (0 = default limit).
	MaxInstructions uint64
	// MaxCycles stops the run after this many cycles (0 = no limit).
	MaxCycles uint64
	// Trace receives per-instruction records on platforms with Caps.Trace.
	Trace func(TraceRecord)
	// Events receives the structured execution-trace event stream
	// (instruction retired, memory access, register write, IRQ
	// entry/exit, trap, UART byte). Each platform emits at its own
	// fidelity: the golden model emits every kind, RTL and gate-level
	// emit instruction and register-write events, bondout emits what its
	// bonded-out trace port carries (instructions, traps, interrupts).
	// Platforms without a trace port return ErrNoTrace from Run when
	// Events is set. A sink returning false aborts the run with
	// StopAbort.
	Events telemetry.EventSink
	// EventMask restricts the emitted kinds; zero means all the platform
	// can produce. The effective stream is the intersection of the mask
	// and the platform's fidelity.
	EventMask telemetry.EventMask
	// Engine selects the simulator execution strategy on platforms built
	// on the golden core (and predecode on/off on the RTL model). The
	// zero value means EngineTranslate. Engines are bit-identical, so
	// this knob never enters run-cache keys and cached outcomes are
	// shared freely across engines.
	Engine Engine
	// Counts, when non-nil, receives this run's engine counters as it
	// ends; unlike the process totals (predecode.GlobalStats,
	// translate.GlobalStats), concurrent runs never count into each other.
	Counts *EngineCounts
}

// EngineCounts are one run's engine counters: predecoded and per-step
// fetches, superblocks translated, dispatched and invalidated, and exits
// from translated code back to the interpreter.
type EngineCounts struct {
	Fetches, SlowFetches                                          uint64
	BlocksBuilt, BlocksExecuted, BlocksInvalidated, FallbackExits uint64
}

// Add accumulates o into c; a nil c discards it.
func (c *EngineCounts) Add(o EngineCounts) {
	if c == nil {
		return
	}
	c.Fetches += o.Fetches
	c.SlowFetches += o.SlowFetches
	c.BlocksBuilt += o.BlocksBuilt
	c.BlocksExecuted += o.BlocksExecuted
	c.BlocksInvalidated += o.BlocksInvalidated
	c.FallbackExits += o.FallbackExits
}

// DefaultMaxInstructions bounds runaway tests.
const DefaultMaxInstructions = 2_000_000

// StopReason says why a run ended.
type StopReason string

// Stop reasons.
const (
	StopHalt        StopReason = "halt"
	StopMaxInsts    StopReason = "max-instructions"
	StopMaxCycles   StopReason = "max-cycles"
	StopBreakpoint  StopReason = "breakpoint"
	StopUnhandled   StopReason = "unhandled-trap"
	StopDoubleFault StopReason = "double-fault"
	// StopAbort: the RunSpec.Events sink asked the platform to stop.
	StopAbort StopReason = "aborted"
	// StopDivergence: a deferred equivalence check (the gate-level
	// platform's batched ALU checker) found the structural model
	// disagreeing with the behavioural prediction; the run cannot
	// meaningfully continue past the fault.
	StopDivergence StopReason = "alu-divergence"
	// StopCancelled: RunSpec.Context was cancelled (deadline exceeded
	// or matrix shutdown) and the platform stopped cooperatively. Not a
	// test verdict — the resilience layer classifies it as a transient
	// platform fault.
	StopCancelled StopReason = "cancelled"
)

// CancelStride is how many instructions a platform retires between
// RunSpec.Context polls. A power of two so the hot loop can test
// `insts & (CancelStride-1) == 0`; at ~10M simulated inst/s this
// bounds cancellation latency well under a millisecond while keeping
// the poll invisible in profiles.
const CancelStride = 4096

// Result is the outcome of one run.
type Result struct {
	Platform     string
	Kind         Kind
	Reason       StopReason
	HaltCode     uint16
	MboxResult   uint32
	MboxDone     bool
	Instructions uint64
	Cycles       uint64
	Console      string
	Checkpoints  []uint32
	// State is the final architectural state on platforms that expose it.
	State *ArchState
	// Detail carries extra context for abnormal stops (trap vector, fault).
	Detail string
}

// Passed reports whether the test self-reported PASS through the mailbox
// and the run ended with a clean halt — the only criterion available on
// every platform including product silicon.
func (r *Result) Passed() bool {
	return r.Reason == StopHalt && r.MboxDone && r.MboxResult == passResult
}

// passResult mirrors periph.ResultPass without importing periph here.
const passResult = 0x600D

// Platform is one execution target.
type Platform interface {
	// Name identifies the instance (e.g. "rtl/SC88-B").
	Name() string
	// Kind is the platform class.
	Kind() Kind
	// Caps describes observability.
	Caps() Caps
	// SoC exposes the simulated chip for pin-level stimulus (UART
	// injection, GPIO). Register-level visibility is still governed by
	// Caps: product silicon exposes only its pins and the mailbox.
	SoC() *soc.SoC
	// Load resets the platform and loads a linked image.
	Load(img *obj.Image) error
	// Run executes until halt or a limit.
	Run(spec RunSpec) (*Result, error)
}

// Factory builds a platform instance over a derivative hardware config.
type Factory func(cfg soc.HWConfig) Platform

var factories = map[Kind]Factory{}

// Register installs a platform factory; platform packages call it from
// init. Re-registering a kind panics.
func Register(kind Kind, f Factory) {
	if _, dup := factories[kind]; dup {
		panic(fmt.Sprintf("platform: kind %s registered twice", kind))
	}
	factories[kind] = f
}

// New builds a platform of the given kind. It returns an error if the
// kind's package has not been linked in.
func New(kind Kind, cfg soc.HWConfig) (Platform, error) {
	f, ok := factories[kind]
	if !ok {
		return nil, fmt.Errorf("platform: kind %s not registered", kind)
	}
	return f(cfg), nil
}

// AllKinds lists the registered kinds in the paper's order.
func AllKinds() []Kind {
	var out []Kind
	for _, k := range []Kind{KindGolden, KindRTL, KindGate, KindEmulator, KindBondout, KindSilicon} {
		if _, ok := factories[k]; ok {
			out = append(out, k)
		}
	}
	return out
}

// Load initialises a SoC's memory from an image: segments are copied,
// BSS is cleared. Shared by all platform implementations.
func Load(s *soc.SoC, img *obj.Image) error {
	for _, seg := range img.Segments {
		if err := s.Mem.LoadBlob(seg.Addr, seg.Data); err != nil {
			return fmt.Errorf("load segment at 0x%08x: %w", seg.Addr, err)
		}
	}
	if img.BssSize > 0 {
		zero := make([]byte, img.BssSize)
		if err := s.Mem.LoadBlob(img.BssAddr, zero); err != nil {
			return fmt.Errorf("clear bss at 0x%08x: %w", img.BssAddr, err)
		}
	}
	return nil
}

// Macro returns the preprocessor symbol that selects this platform in
// conditional assembly (the ADVM abstraction layer's platform control).
func (k Kind) Macro() string {
	switch k {
	case KindGolden:
		return "PLAT_GOLDEN"
	case KindRTL:
		return "PLAT_RTL"
	case KindGate:
		return "PLAT_GATE"
	case KindEmulator:
		return "PLAT_EMULATOR"
	case KindBondout:
		return "PLAT_BONDOUT"
	case KindSilicon:
		return "PLAT_SILICON"
	}
	return "PLAT_UNKNOWN"
}
