// Package advm is the public API of the ADVM reproduction: an
// assembler-driven verification methodology (MacBeth, Heinz, Gray — DATE
// 2004) implemented over a synthetic SC88 chip-card SoC.
//
// The package re-exports the library's building blocks:
//
//   - Test environments: a System holds module Envs, each with Global
//     Defines and Base Functions (the abstraction layer) plus directed
//     TestCells (the test layer); the global layer (startup, trap
//     handlers, embedded software, register definitions) is generated per
//     Derivative.
//   - Execution platforms: the same linked image runs on the golden
//     reference model, HDL-RTL simulation, gate-level simulation, the
//     hardware accelerator, bondout silicon, and product silicon.
//   - Methodology machinery: release labels, the regression runner with
//     its static-analysis preflight gate, the multi-pass analyzer (layer
//     discipline, control flow, portability, dead abstraction), the
//     porting engine with cost accounting, the hardwired baseline
//     comparator, and constrained-random Global-Defines generation.
//
// Quickstart:
//
//	sys := advm.StandardSystem()
//	res, err := sys.RunTest("NVM", "TEST_NVM_PAGE_SELECT",
//	    advm.DerivativeA(), advm.KindGolden, advm.RunSpec{})
package advm

import (
	"io"
	"time"

	"repro/internal/asm"
	"repro/internal/baseline"
	"repro/internal/core/basefuncs"
	"repro/internal/core/buildcache"
	"repro/internal/core/castore"
	"repro/internal/core/content"
	"repro/internal/core/defines"
	"repro/internal/core/derivative"
	"repro/internal/core/env"
	"repro/internal/core/history"
	"repro/internal/core/journal"
	"repro/internal/core/port"
	"repro/internal/core/randgen"
	"repro/internal/core/regress"
	"repro/internal/core/release"
	"repro/internal/core/resilience"
	"repro/internal/core/runcache"
	"repro/internal/core/shard"
	"repro/internal/core/sysenv"
	"repro/internal/core/telemetry"
	"repro/internal/core/vet"
	"repro/internal/flaky"
	"repro/internal/obj"
	"repro/internal/platform"
	"repro/internal/predecode"
	"repro/internal/soc"
	"repro/internal/translate"

	// Link in all six execution platforms so that NewPlatform can build
	// any of them.
	_ "repro/internal/bondout"
	_ "repro/internal/emu"
	_ "repro/internal/gate"
	_ "repro/internal/golden"
	_ "repro/internal/rtl"
	_ "repro/internal/silicon"
)

// Environment model.
type (
	// System is a complete verification environment (Figure 4/5).
	System = sysenv.System
	// Env is one module test environment (Figure 1/3).
	Env = env.Env
	// TestCell is one directed test.
	TestCell = env.TestCell
	// DefineSet is the Global Defines component of an abstraction layer.
	DefineSet = defines.Set
	// Define is one Global Defines entry.
	Define = defines.Entry
	// FuncLibrary is the Base Functions component of an abstraction layer.
	FuncLibrary = basefuncs.Library
	// BaseFunction is one base function.
	BaseFunction = basefuncs.Function
)

// Define kinds.
const (
	DefineEqu   = defines.KindEqu
	DefineAlias = defines.KindDefine
)

// Derivatives and hardware.
type (
	// Derivative is one member of the SC88 chip family.
	Derivative = derivative.Derivative
	// HWConfig is a derivative's hardware ground truth.
	HWConfig = soc.HWConfig
)

// Platforms.
type (
	// Platform is one execution target.
	Platform = platform.Platform
	// Kind enumerates the six platform classes.
	Kind = platform.Kind
	// RunSpec bounds and instruments a run.
	RunSpec = platform.RunSpec
	// TraceRecord is one executed instruction on a tracing platform.
	TraceRecord = platform.TraceRecord
	// Result is a run outcome.
	Result = platform.Result
	// Caps describes a platform's observability.
	Caps = platform.Caps
	// Image is a linked, loadable program.
	Image = obj.Image
	// Engine selects a simulator execution engine (RunSpec.Engine). All
	// engines are bit-identical; the knob trades speed for simplicity in
	// A/B fidelity checks.
	Engine = platform.Engine
)

// Platform kinds in the paper's order.
const (
	KindGolden   = platform.KindGolden
	KindRTL      = platform.KindRTL
	KindGate     = platform.KindGate
	KindEmulator = platform.KindEmulator
	KindBondout  = platform.KindBondout
	KindSilicon  = platform.KindSilicon
)

// Execution engines, fastest default first.
const (
	EngineDefault   = platform.EngineDefault
	EngineInterp    = platform.EngineInterp
	EnginePredecode = platform.EnginePredecode
	EngineTranslate = platform.EngineTranslate
)

// ParseEngine parses an -engine flag value (interp, predecode,
// translate, or empty for the default).
func ParseEngine(s string) (Engine, error) { return platform.ParseEngine(s) }

// ParseKind parses a platform name (golden, rtl, gate, emulator, bondout,
// silicon), case-insensitively.
func ParseKind(name string) (Kind, error) { return platform.ParseKind(name) }

// TranslateStats is a snapshot of the translation-engine counters.
type TranslateStats = translate.Stats

// TranslateTotals snapshots the process-wide translation-engine
// counters (blocks built/executed/invalidated, interpreter fallbacks).
func TranslateTotals() TranslateStats { return translate.GlobalStats() }

// Methodology machinery.
type (
	// Label freezes one module environment (Section 3).
	Label = release.Label
	// SystemLabel composes module labels for a system regression.
	SystemLabel = release.SystemLabel
	// RegressionSpec selects the regression matrix.
	RegressionSpec = regress.Spec
	// RegressionReport is a completed regression.
	RegressionReport = regress.Report
	// RegressionOutcome is one cell of the regression matrix.
	RegressionOutcome = regress.Outcome
	// Finding is one static-analysis finding (Figure 2 and beyond).
	Finding = vet.Finding
	// VetReport is a completed analyzer run.
	VetReport = vet.Report
	// VetOptions tunes the analyzer.
	VetOptions = vet.Options
	// Severity grades a finding (info / warning / error).
	Severity = vet.Severity
	// PortImpactCell records one test cell a derivative port touches.
	PortImpactCell = vet.Impact
	// PreflightError carries the analyzer report that blocked a
	// regression preflight.
	PreflightError = release.PreflightError
	// Requirement is one entry of a system's requirements catalogue.
	Requirement = sysenv.Requirement
	// TraceMatrix is the two-way requirements-to-tests mapping.
	TraceMatrix = vet.TraceMatrix
	// StackBound is one row of the worst-case stack-depth table.
	StackBound = vet.StackBound
	// CertBundle is the sealed certification evidence bundle.
	CertBundle = release.Bundle
	// CertMatrixCell is one regression outcome inside a bundle.
	CertMatrixCell = release.MatrixCell
	// Change is one derivative/specification change event (Section 4).
	Change = port.Change
	// PortResult is the outcome of applying a change list.
	PortResult = port.Result
	// CostReport quantifies a port in files and lines touched.
	CostReport = port.CostReport
	// BaselineSuite is the hardwired non-ADVM comparator suite.
	BaselineSuite = baseline.Suite
	// Generator draws constrained-random Global-Defines instances.
	Generator = randgen.Generator
	// Constraint bounds one randomised define.
	Constraint = randgen.Constraint
	// Instance is one random assignment.
	Instance = randgen.Instance
	// Coverage tracks values drawn across instances.
	Coverage = randgen.Coverage
	// BuildCache memoises materialised trees, assembled objects, and
	// linked images by content hash, with singleflight deduplication.
	BuildCache = buildcache.Cache
	// BuildContext binds a BuildCache to a system content epoch.
	BuildContext = sysenv.BuildContext
	// RunCache memoises deterministic-platform run outcomes by content
	// hash (image, kind, hardware config, run bounds), with singleflight
	// deduplication.
	RunCache = runcache.Cache
	// PredecodeStats snapshots the simulators' predecoded-fetch counters.
	PredecodeStats = predecode.Stats
	// KindTime aggregates per-cell build/run time for one platform kind.
	KindTime = regress.KindTime
	// VerifyStatus summarises a port re-verification.
	VerifyStatus = port.VerifyStatus
)

// Change event constructors (Section 4 change classes).
type (
	// FieldWiden widens a named bit field for a derivative.
	FieldWiden = port.FieldWiden
	// FieldShift moves a named bit field for a derivative.
	FieldShift = port.FieldShift
	// RegisterRename re-maps a renamed global register definition.
	RegisterRename = port.RegisterRename
	// ESArgSwap adapts a wrapper to re-written embedded software whose
	// input registers were swapped (Figure 7).
	ESArgSwap = port.ESArgSwap
	// ReplaceFunction re-factors one base function.
	ReplaceFunction = port.ReplaceFunction
)

// NewSystem creates an empty system environment.
func NewSystem(name string) *System { return sysenv.New(name) }

// NewEnv creates an empty module test environment. Derivative-specific
// names are rejected.
func NewEnv(module string) (*Env, error) { return env.New(module) }

// StandardSystem returns the shipped, fully ported system environment:
// the NVM, UART, and Register module environments of the paper's
// Figure 5, passing on every family derivative and platform.
func StandardSystem() *System { return content.PortedSystem() }

// UnportedSystem returns the shipped environment as first written for
// SC88-A only; apply FamilyChanges to port it.
func UnportedSystem() *System { return content.UnportedSystem() }

// FamilyChanges is the canonical change list that ports UnportedSystem to
// the whole derivative family.
func FamilyChanges() []Change { return port.FamilyChanges() }

// ApplyChanges applies change events to a system's abstraction layers and
// reports the edit cost.
func ApplyChanges(s *System, changes ...Change) (*PortResult, error) {
	return port.ApplyAll(s, changes...)
}

// DerivativeA returns the SC88-A baseline chip.
func DerivativeA() *Derivative { return derivative.A() }

// DerivativeB returns SC88-B (widened page field, larger NVM).
func DerivativeB() *Derivative { return derivative.B() }

// DerivativeC returns SC88-C (shifted page field, relocated UART).
func DerivativeC() *Derivative { return derivative.C() }

// DerivativeSEC returns SC88-SEC (both field changes, renamed register,
// re-written embedded software).
func DerivativeSEC() *Derivative { return derivative.SEC() }

// Family returns all four derivatives in release order.
func Family() []*Derivative { return derivative.Family() }

// DerivativeByName resolves a derivative by name or macro.
func DerivativeByName(name string) (*Derivative, error) { return derivative.ByName(name) }

// NewPlatform instantiates an execution platform over a derivative's
// hardware.
func NewPlatform(kind Kind, d *Derivative) (Platform, error) {
	return platform.New(kind, d.HW)
}

// AllPlatformKinds lists the registered platform kinds in the paper's
// order.
func AllPlatformKinds() []Kind { return platform.AllKinds() }

// Snapshot freezes a module environment under a release label.
func Snapshot(name string, e *Env) *Label { return release.Snapshot(name, e) }

// ComposeSystemLabel builds a system regression label from module
// sub-labels; every module environment must be covered.
func ComposeSystemLabel(name string, s *System, subs ...*Label) (*SystemLabel, error) {
	return release.ComposeSystem(name, s, subs...)
}

// FreezeSystem snapshots every module environment and composes a system
// label in one step.
func FreezeSystem(name string, s *System) (*SystemLabel, error) {
	return release.Freeze(name, s)
}

// Regress runs the regression matrix against a frozen system label.
func Regress(s *System, label *SystemLabel, spec RegressionSpec) (*RegressionReport, error) {
	return regress.Run(s, label, spec)
}

// NewBuildCache creates an empty build cache. Share one cache across
// regressions, ports, and custom builds of the same session; pass it to
// RegressionSpec.Cache or wrap it with System.NewBuildContext.
func NewBuildCache() *BuildCache { return buildcache.New() }

// NewRunCache creates an empty run-outcome cache. Share one cache across
// regressions of the same frozen content; pass it to
// RegressionSpec.RunCache. Fault-injection harnesses and traced runs
// bypass it automatically.
func NewRunCache() *RunCache { return runcache.New() }

// PredecodeTotals reports the process-wide predecoded-instruction-fetch
// statistics accumulated by the golden and RTL simulators.
func PredecodeTotals() PredecodeStats { return predecode.GlobalStats() }

// Resilience: deadlines, retries, circuit breakers, quarantine, and
// seeded fault injection for the regression matrix.
type (
	// RetryPolicy budgets re-runs of transiently failing cells with
	// deterministic, seeded exponential backoff.
	RetryPolicy = resilience.RetryPolicy
	// Breaker is a per-platform-kind circuit breaker.
	Breaker = resilience.Breaker
	// BreakerState is the closed/open/half-open automaton state.
	BreakerState = resilience.BreakerState
	// BreakerSet holds one breaker per physical platform kind.
	BreakerSet = resilience.BreakerSet
	// Quarantine benches chronically flaky cells across regressions.
	Quarantine = resilience.Quarantine
	// FailureClass grades an outcome passed/deterministic/transient.
	FailureClass = resilience.Class
	// FlakyHarness wraps platforms with seeded fault injection; pass its
	// NewPlatform method to RegressionSpec.NewPlatform.
	FlakyHarness = flaky.Harness
	// FlakyPlan configures what the harness injects, where, and when.
	FlakyPlan = flaky.Plan
	// Fault enumerates the injectable failure modes.
	Fault = flaky.Fault
)

// Injectable failure modes.
const (
	// FaultHang wedges the run until its context deadline.
	FaultHang = flaky.FaultHang
	// FaultTransient fails the run with a transient (retryable) error.
	FaultTransient = flaky.FaultTransient
	// FaultDropMbox completes the run but loses the mailbox verdict.
	FaultDropMbox = flaky.FaultDropMbox
	// FaultReset stops the run with a spurious non-architectural reset.
	FaultReset = flaky.FaultReset
)

// StopCancelled is the stop reason of a run cancelled by its context
// (deadline or matrix shutdown).
const StopCancelled = platform.StopCancelled

// NewBreakerSet creates circuit breakers for the physical platform kinds
// (emulator, bondout, silicon): a kind's breaker opens after threshold
// consecutive transient failures and fast-fails its cells, re-admitting
// a probe after probation skipped cells. Pass to RegressionSpec.Breakers.
func NewBreakerSet(threshold, probation int) *BreakerSet {
	return resilience.NewBreakerSet(threshold, probation)
}

// NewQuarantine creates a flaky-cell quarantine store: a cell observed
// flaky in `after` distinct regressions is benched and skipped. Share one
// store across regressions via RegressionSpec.Quarantine.
func NewQuarantine(after int) *Quarantine { return resilience.NewQuarantine(after) }

// NewFlakyHarness creates a seeded fault-injection harness.
func NewFlakyHarness(plan FlakyPlan) *FlakyHarness { return flaky.New(plan) }

// TransientError marks an error as transient so the retry policy re-runs
// the cell.
func TransientError(err error) error { return resilience.Transient(err) }

// IsTransient reports whether any error in the chain is transient.
func IsTransient(err error) bool { return resilience.IsTransient(err) }

// Telemetry: execution tracing, metrics, timelines, triage.
type (
	// Event is one structured execution-trace event.
	Event = telemetry.Event
	// EventKind enumerates trace event kinds.
	EventKind = telemetry.EventKind
	// EventMask selects trace event kinds.
	EventMask = telemetry.EventMask
	// EventSink receives trace events from a running platform.
	EventSink = telemetry.EventSink
	// TraceRing is a bounded in-memory event buffer.
	TraceRing = telemetry.Ring
	// MetricsRegistry is a concurrency-safe counter/gauge/histogram set.
	MetricsRegistry = telemetry.Registry
	// MetricsSnapshot is a point-in-time registry rendering.
	MetricsSnapshot = telemetry.Snapshot
	// Timeline collects spans for Chrome trace-event export.
	Timeline = telemetry.Timeline
	// Triage is a first-divergence artifact for a failing cell.
	Triage = regress.Triage
	// TriageFrame is one retired instruction in a triage window.
	TriageFrame = regress.TriageFrame
)

// Observability: the matrix flight recorder, run-history store, and
// live progress board (see internal/core/journal and
// internal/core/history).
type (
	// JournalRecord is one line of a matrix flight record.
	JournalRecord = journal.Record
	// JournalKind enumerates flight-record line types.
	JournalKind = journal.Kind
	// JournalSink receives flight-record lines; pass one (or a tee) to
	// RegressionSpec.Journal.
	JournalSink = journal.Sink
	// JournalSinkFunc adapts a function to a JournalSink.
	JournalSinkFunc = journal.SinkFunc
	// JournalWriter persists a flight record as JSONL, flushed per line.
	JournalWriter = journal.Writer
	// JournalAnalysis is the digested form of one flight record.
	JournalAnalysis = journal.Analysis
	// JournalReportOptions tunes flight-record report rendering.
	JournalReportOptions = journal.ReportOptions
	// MatrixProgress renders a live in-place status line from flight
	// records.
	MatrixProgress = journal.Progress
	// HistoryStore is the on-disk per-cell run-history store feeding the
	// longest-expected-job-first scheduler; pass to
	// RegressionSpec.History.
	HistoryStore = history.Store
	// CellHistory is one cell's accumulated history.
	CellHistory = history.CellStats
	// RuntimeSample is one reading of the Go runtime's health.
	RuntimeSample = telemetry.RuntimeSample
)

// Flight-record line kinds.
const (
	JournalHeader     = journal.KindHeader
	JournalSchedule   = journal.KindSchedule
	JournalStart      = journal.KindStart
	JournalRetry      = journal.KindRetry
	JournalBreaker    = journal.KindBreaker
	JournalQuarantine = journal.KindQuarantine
	JournalCacheHit   = journal.KindCacheHit
	JournalOutcome    = journal.KindOutcome
	JournalTriage     = journal.KindTriage
	JournalRuntime    = journal.KindRuntime
	JournalEnd        = journal.KindEnd
)

// NewJournalWriter creates a flight-record writer over w (typically an
// opened journal file); pass it to RegressionSpec.Journal and Close it
// after the run.
func NewJournalWriter(w io.Writer) *JournalWriter { return journal.NewWriter(w) }

// TeeJournal fans one flight-record stream to several sinks (e.g. a
// file writer plus the live progress board). Nil sinks are skipped.
func TeeJournal(sinks ...JournalSink) JournalSink { return journal.Tee(sinks...) }

// ReadJournal parses a JSONL flight record from a file.
func ReadJournal(path string) ([]JournalRecord, error) { return journal.ReadFile(path) }

// ParseJournal parses a JSONL flight record from an in-memory stream.
func ParseJournal(r io.Reader) ([]JournalRecord, error) { return journal.Read(r) }

// AnalyzeJournal digests flight records for reporting.
func AnalyzeJournal(recs []JournalRecord) *JournalAnalysis { return journal.Analyze(recs) }

// MaskJournal strips the wall-clock fields from a JSONL flight record
// and re-encodes it canonically: two serial runs of the same frozen
// spec produce byte-identical masked journals.
func MaskJournal(data []byte) ([]byte, error) { return journal.Mask(data) }

// WriteJournalText renders an analyzed flight record as plain text.
func WriteJournalText(w io.Writer, a *JournalAnalysis, opts JournalReportOptions) error {
	return journal.WriteText(w, a, opts)
}

// WriteJournalHTML renders an analyzed flight record as a
// self-contained HTML report.
func WriteJournalHTML(w io.Writer, a *JournalAnalysis, opts JournalReportOptions) error {
	return journal.WriteHTML(w, a, opts)
}

// NewMatrixProgress creates a live progress board writing its status
// line to out (typically stderr); tee it with the journal writer.
func NewMatrixProgress(out io.Writer) *MatrixProgress { return journal.NewProgress(out) }

// OpenHistory loads (or creates) the run-history store under dir; Save
// it after the matrix to persist what the run learned.
func OpenHistory(dir string) (*HistoryStore, error) { return history.Open(dir) }

// NewMemoryHistory creates a process-lifetime history store with no
// backing directory (benchmarks, tests).
func NewMemoryHistory() *HistoryStore { return history.NewMemory() }

// SimulateMakespan replays a greedy least-loaded dispatch of per-cell
// durations (ns) under the given order permutation (nil = declaration
// order) across workers and returns the simulated matrix makespan —
// the deterministic counterpart of the wall-clock scheduler benchmark.
func SimulateMakespan(durations []int64, order []int, workers int) int64 {
	return history.Makespan(durations, order, workers)
}

// SampleRuntime reads the Go runtime's health (goroutines, heap, GC
// pauses) and mirrors it into reg's runtime.* gauges; reg may be nil.
func SampleRuntime(reg *MetricsRegistry) RuntimeSample { return telemetry.SampleRuntime(reg) }

// CellKey names one matrix cell (module/test@deriv/platform) — the key
// format shared by the quarantine store, the history store, and
// flight-record cell IDs.
func CellKey(module, test, deriv, kind string) string {
	return resilience.CellKeyString(module, test, deriv, kind)
}

// Trace event kinds.
const (
	EvInstRetired = telemetry.EvInstRetired
	EvMemRead     = telemetry.EvMemRead
	EvMemWrite    = telemetry.EvMemWrite
	EvRegWrite    = telemetry.EvRegWrite
	EvIRQEnter    = telemetry.EvIRQEnter
	EvIRQExit     = telemetry.EvIRQExit
	EvTrap        = telemetry.EvTrap
	EvUARTByte    = telemetry.EvUARTByte
)

// ErrNoTrace is returned by Run when RunSpec.Events is set on a platform
// without a trace port.
var ErrNoTrace = platform.ErrNoTrace

// NewTraceRing creates a bounded event ring (capacity <= 0 selects the
// default).
func NewTraceRing(capacity int) *TraceRing { return telemetry.NewRing(capacity) }

// NewMetricsRegistry creates an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return telemetry.NewRegistry() }

// NewTimeline creates a timeline whose clock starts now.
func NewTimeline() *Timeline { return telemetry.NewTimeline() }

// ParseEventKinds parses a comma-separated kind list
// ("inst,mem,reg,irq,trap,uart" or "all") into a mask.
func ParseEventKinds(s string) (EventMask, error) { return telemetry.ParseKinds(s) }

// FirstDivergence replays one image on a reference and a subject
// platform (both already loaded) and returns the first point where
// their instruction streams differ.
func FirstDivergence(ref, subject Platform, spec RunSpec) *Triage {
	return regress.FirstDivergence(ref, subject, spec)
}

// ReverifyPort re-runs every test cell of the system around a port,
// building through the given cache context (zero context = uncached).
// Defaults: the whole family on the golden model.
func ReverifyPort(s *System, bc BuildContext, derivs []*Derivative, kinds []Kind, spec RunSpec) *VerifyStatus {
	return port.Reverify(s, bc, derivs, kinds, spec)
}

// Finding severities.
const (
	SevInfo  = vet.SevInfo
	SevWarn  = vet.SevWarn
	SevError = vet.SevError
)

// Vet runs the multi-pass static analyzer over a system environment:
// layer discipline (Figure 2), control-flow checks, cross-variant
// portability, and dead-abstraction detection.
func Vet(s *System, opts VetOptions) *VetReport { return vet.Check(s, opts) }

// DefaultVetOptions returns the default analyzer configuration.
func DefaultVetOptions() VetOptions { return vet.NewOptions() }

// VetChecks lists every analyzer check ID.
func VetChecks() []string { return vet.Checks() }

// VetPortImpact statically computes which test cells a derivative port
// touches (the Figure 6/7 surface), without building or running anything.
func VetPortImpact(s *System, from, to *Derivative, k Kind) ([]PortImpactCell, error) {
	return vet.PortImpact(s, from, to, k)
}

// Preflight verifies a system against its frozen label and runs the
// analyzer; error-severity findings block with a *PreflightError. Regress
// applies the same gate automatically unless RegressionSpec.SkipVet. The
// label memoises the analysis: a second Preflight or Certify with the
// same options on the same label does not analyse again.
func Preflight(s *System, sl *SystemLabel, opts VetOptions) (*VetReport, error) {
	return release.Preflight(s, sl, opts)
}

// Traceability builds the requirements-to-tests matrix from the system's
// catalogue and the `; REQ:` annotations of its test cells.
func Traceability(s *System) TraceMatrix { return vet.Traceability(s) }

// Certify runs the full certification gate (preflight, traceability,
// stack-depth and dataflow analysis) over a frozen system and seals the
// evidence bundle. cells may come from RegressionReport.BundleCells, or
// be nil for a preflight-only bundle. The bundle's JSON is byte-identical
// across runs of the same frozen content.
func Certify(s *System, sl *SystemLabel, opts VetOptions, cells []CertMatrixCell) (*CertBundle, error) {
	return release.Certify(s, sl, opts, cells)
}

// ReadCertBundle parses a certification bundle and verifies its seal.
func ReadCertBundle(raw []byte) (*CertBundle, error) { return release.ReadBundle(raw) }

// GenerateBaseline produces the hardwired non-ADVM comparator suite for a
// derivative.
func GenerateBaseline(d *Derivative) *BaselineSuite { return baseline.Generate(d) }

// BaselinePortCost measures the re-factoring cost of moving the hardwired
// suite between derivatives.
func BaselinePortCost(from, to *Derivative) *CostReport { return baseline.PortCost(from, to) }

// NewGenerator creates a constrained-random Global-Defines generator.
func NewGenerator(seed int64) *Generator { return randgen.New(seed) }

// NewCoverage creates an empty coverage store.
func NewCoverage() *Coverage { return randgen.NewCoverage() }

// Randomise applies a constrained-random instance to a clone of the
// environment's Global Defines.
func Randomise(e *Env, inst Instance) (*Env, error) { return randgen.Apply(e, inst) }

// Assembler access for custom flows.
type (
	// AsmOptions configures one assembly.
	AsmOptions = asm.Options
	// SourceFS is an in-memory include resolver.
	SourceFS = asm.MapFS
	// Object is a relocatable object file.
	Object = obj.Object
	// LinkConfig controls image layout.
	LinkConfig = obj.LinkConfig
)

// Assemble assembles one source file into a relocatable object.
func Assemble(name, src string, opts AsmOptions) (*Object, error) {
	return asm.Assemble(name, src, opts)
}

// LinkObjects links objects into a loadable image.
func LinkObjects(cfg LinkConfig, objects ...*Object) (*Image, error) {
	return obj.Link(cfg, objects...)
}

// LinkFor returns the link configuration matching a derivative's memory
// map.
func LinkFor(d *Derivative) LinkConfig {
	return LinkConfig{TextBase: d.HW.RomBase, DataBase: d.HW.RamBase, Entry: "_start"}
}

// GlobalLayer renders the global-layer sources for a derivative.
func GlobalLayer(d *Derivative) map[string]string { return sysenv.GlobalLayer(d) }

// Persistent artifact store and the sharded multi-process matrix (see
// internal/core/castore and internal/core/shard).
type (
	// ArtifactStore is the durable content-addressed artifact store:
	// SHA-256-keyed entries under a directory, shared by concurrent
	// processes, GC'd least-recently-used under a byte budget.
	ArtifactStore = castore.Store
	// ArtifactStoreOptions tunes the store (byte budget, GC slack).
	ArtifactStoreOptions = castore.Options
	// ArtifactStoreStats is a store usage snapshot.
	ArtifactStoreStats = castore.Stats
	// ShardDaemon serves regression requests over a socket, sharding
	// cells across a pool of worker processes.
	ShardDaemon = shard.Daemon
	// ShardRequest asks a daemon for one regression matrix.
	ShardRequest = shard.Request
	// ShardPlan is the daemon's cell enumeration and dispatch order.
	ShardPlan = shard.Plan
	// ShardResult is one streamed cell result.
	ShardResult = shard.Result
	// ShardReply is a completed sharded regression, reassembled into
	// the in-process report and journal shapes.
	ShardReply = shard.Reply
	// ShardWorkerOptions configures one worker process.
	ShardWorkerOptions = shard.WorkerOptions
	// ShardConnectOptions configures one remote worker slot joining a
	// daemon's pool over TCP.
	ShardConnectOptions = shard.ConnectOptions
	// ShardRemoteStore is an artifact-store backend served by a remote
	// daemon over the frame protocol (fetch-through for fleet workers).
	ShardRemoteStore = shard.RemoteStore
	// ShardFetchThrough layers a local store tier in front of a remote
	// one: local hits are free, remote hits fill the local tier, puts
	// write through to both.
	ShardFetchThrough = shard.FetchThrough
)

// OpenArtifactStore opens (or creates) a persistent artifact store
// under dir. Options zero value: unbounded, default GC slack. Close it
// to persist the session's usage counters.
func OpenArtifactStore(dir string, opts ArtifactStoreOptions) (*ArtifactStore, error) {
	return castore.Open(dir, opts)
}

// AttachArtifactStore plugs the persistent store in as the second tier
// behind a build cache and/or run cache (either may be nil): memory
// misses consult the store, successful fills write through, and warm
// artifacts survive restarts and are shared across processes.
func AttachArtifactStore(store *ArtifactStore, bc *BuildCache, rc *RunCache) {
	if bc != nil {
		bc.SetBackend(store, sysenv.PersistEncode, sysenv.PersistDecode)
	}
	if rc != nil {
		rc.SetBackend(store)
	}
}

// RunShardWorker serves the worker side of the shard protocol on a
// local worker process's stdin/stdout (its daemon's socket pair) until
// EOF, exactly as a ConnectShardWorker slot serves it over TCP.
func RunShardWorker(r io.Reader, w io.Writer, opts ShardWorkerOptions) error {
	return shard.RunWorker(r, w, opts)
}

// ShardRegress runs one regression request against the daemon at addr
// (unix socket path or TCP host:port, with optional "unix:"/"tcp:"
// scheme prefix) and reassembles the streamed results. onResult, when
// non-nil, observes each cell as it completes.
func ShardRegress(addr string, req ShardRequest, onResult func(*ShardResult)) (*ShardReply, error) {
	return shard.Regress(addr, req, onResult)
}

// ConnectShardWorker joins a remote daemon's worker pool over TCP: a
// FrameHello registration handshake with epoch cross-check, then jobs
// off the shared dispatch queue until the daemon hangs up. Heartbeats
// let the daemon tell a long cell from a vanished machine.
func ConnectShardWorker(addr string, opts ShardConnectOptions) error {
	return shard.ConnectWorker(addr, opts)
}

// DialShardStore opens a fetch-through channel to the artifact store of
// the daemon at addr, usable as the persistent backend of a remote
// worker's caches.
func DialShardStore(addr string, wait time.Duration) (*ShardRemoteStore, error) {
	return shard.DialStore(addr, wait)
}

// SplitShardAddr resolves a daemon listen/dial address into (network,
// address): explicit "unix:"/"tcp:" prefixes win, then the heuristic (a
// '/' or ".sock" suffix means a unix socket path).
func SplitShardAddr(addr string) (network, address string) {
	return shard.SplitAddr(addr)
}
