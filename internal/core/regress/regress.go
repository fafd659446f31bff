// Package regress runs ADVM regressions: the full matrix of test cells ×
// derivatives × platforms. Following the paper's Section 3, a regression
// only runs against a frozen system release label — if any module
// environment has drifted from its sub-label, the run is refused, because
// abstraction-layer changes have a global effect on the tests.
package regress

import (
	"cmp"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core/buildcache"
	"repro/internal/core/derivative"
	"repro/internal/core/history"
	"repro/internal/core/journal"
	"repro/internal/core/memo"
	"repro/internal/core/release"
	"repro/internal/core/resilience"
	"repro/internal/core/runcache"
	"repro/internal/core/sysenv"
	"repro/internal/core/telemetry"
	"repro/internal/core/vet"
	"repro/internal/obj"
	"repro/internal/platform"
	"repro/internal/soc"
)

// Spec selects the regression matrix.
type Spec struct {
	// Derivatives to cover; default: the whole family.
	Derivatives []*derivative.Derivative
	// Kinds are the platforms to cover; default: all registered.
	Kinds []platform.Kind
	// Modules restricts to named environments; default: all.
	Modules []string
	// Tests restricts to named test IDs within the selected modules;
	// default: all. The sharded matrix (internal/core/shard) uses a
	// one-element filter to run exactly one cell through the full
	// pipeline in a worker process — same enumeration, same journal
	// shape, zero drift from the in-process path.
	Tests []string
	// RunSpec bounds each individual run; Run sets each run's Counts.
	RunSpec platform.RunSpec
	// Context, when non-nil, cancels the whole regression: the worker
	// pool stops dispatching, in-flight runs are cancelled
	// cooperatively (their per-cell context is a child of this one),
	// and cells that never started are reported broken with
	// BuildErr="cancelled". Nil means the matrix runs to completion.
	Context context.Context
	// Deadline is the per-cell wall-clock budget. When positive, every
	// attempt runs under a context.WithTimeout child and a platform
	// that makes no progress — a wedged model, a hung lab connection —
	// is stopped with StopCancelled at the deadline instead of hanging
	// its worker forever. The triage replay of a failing cell runs
	// under a fresh deadline of its own.
	Deadline time.Duration
	// Retry bounds transient-failure retries. Only the physical kinds
	// (emulator, bondout, silicon) are retried — the simulated rungs
	// are deterministic, so their failures replay identically. The
	// zero value means one attempt per cell.
	Retry resilience.RetryPolicy
	// Breakers, when non-nil, guards each physical kind with a circuit
	// breaker: after a run of consecutive transient faults the kind's
	// cells fast-fail (BuildErr="breaker open...") instead of queueing
	// against a dead platform, until a probe cell succeeds.
	Breakers *resilience.BreakerSet
	// Quarantine, when non-nil, benches chronically flaky cells: a
	// cell reported Flaky enough times is skipped by later regressions
	// sharing the store (BuildErr="quarantined..."). Shared across
	// regressions like the build and run caches.
	Quarantine *resilience.Quarantine
	// Workers runs matrix cells concurrently (each cell builds its own
	// image and platform instance, so cells are independent). 0 or 1
	// means serial. The report order is deterministic regardless.
	Workers int
	// Cache, when non-nil, memoises materialised trees, assembled units,
	// and linked images across cells (and across regressions sharing the
	// cache). Safe by the release-label invariant: Run refuses unfrozen
	// systems, and the frozen label's content hash keys every entry.
	Cache *buildcache.Cache
	// RunCache, when non-nil, memoises run outcomes across cells and
	// regressions sharing the cache. Only deterministic platforms
	// (golden, RTL, gate) are memoised, and only for plain runs: cells
	// under a fault-injection harness (NewPlatform) or with tracing or
	// event streams armed always execute. Sound for the same reason the
	// build cache is: a frozen label pins the image content, and the
	// outcome is a pure function of (image, kind, config, bounds).
	RunCache *runcache.Cache
	// Metrics, when non-nil, receives regression counters (cells run,
	// pass/fail/broken, build/run latency histograms), is threaded into
	// the build pipeline for assembler counters, counts the engine work
	// (predecode.*, translate.*) of each cell run it executes, and at the
	// end of the run receives this run's own cache lookups (buildcache.*
	// and runcache.*, as does the journal's end record): the caches'
	// counter growth during the run, so runs overlapping on one shared
	// cache share the tally.
	Metrics *telemetry.Registry
	// Timeline, when non-nil, records one build span and one run span
	// per cell on the executing worker's lane — a Chrome trace-event
	// rendering of the whole matrix.
	Timeline *telemetry.Timeline
	// Journal, when non-nil, receives the matrix's flight record: a
	// header, one record per cell event (schedule, start, retry, breaker
	// transition, quarantine skip, cache hit, outcome, triage reference,
	// runtime sample), and a closing end record. A journal.Writer
	// persists the stream as JSONL; the live -progress board consumes
	// the same stream through a Tee. Emission order between concurrent
	// workers is whatever the scheduler did — byte-determinism (modulo
	// the masked wall-clock fields) holds for serial runs.
	Journal journal.Sink
	// History, when non-nil, is the cross-run per-cell time store: the
	// matrix dispatches cells longest-expected-first from its estimates
	// (shrinking the makespan at a fixed worker count) and records each
	// live cell's build/run times and status back into it. Shared across
	// regressions like the caches; a cold store keeps declaration order.
	History *history.Store
	// Triage replays each failing cell against a golden reference
	// executing the same image and attaches a first-divergence artifact
	// to the outcome (see triage.go).
	Triage bool
	// TriageDir, when non-empty, additionally writes each triage
	// artifact to a file in that directory (implies Triage).
	TriageDir string
	// NewPlatform overrides platform instantiation for both the cell run
	// and the triage replay; nil means platform.New. Fault-injection
	// harnesses use it to hand the matrix a deliberately broken device.
	NewPlatform func(platform.Kind, soc.HWConfig) (platform.Platform, error)
	// SkipVet disables the static-analysis preflight gate. The gate runs
	// by default: a frozen system with error-severity analyzer findings
	// is refused before the matrix is enumerated, because a test that
	// bypasses the abstraction layer invalidates the release's porting
	// guarantees whatever its runs report.
	SkipVet bool
	// VetOptions tunes the preflight analyzer; nil means vet.NewOptions
	// narrowed to the spec's derivatives.
	VetOptions *vet.Options
}

// Outcome is one cell of the regression matrix.
type Outcome struct {
	Module     string
	Test       string
	Derivative string
	Platform   platform.Kind
	Passed     bool
	Reason     platform.StopReason
	MboxResult uint32
	Cycles     uint64
	Insts      uint64
	// BuildNanos is the wall time spent assembling and linking the cell
	// (near zero on a warm cache); RunNanos the time spent instantiating
	// the platform and simulating. Together they let the speed ladder
	// separate build cost from simulation cost.
	BuildNanos int64
	RunNanos   int64
	// BuildErr is non-empty when the cell could not produce a verdict:
	// assembly or link failure, platform error, or a recovered panic.
	BuildErr string
	Detail   string
	// RunCached reports that the outcome was served from Spec.RunCache
	// (or merged with another worker's in-flight run of the same cell)
	// instead of being simulated by this cell.
	RunCached bool
	// Attempts is how many times the cell ran (1 unless transient
	// faults were retried; 0 for cells that never ran at all —
	// cancelled, quarantined, or breaker-skipped).
	Attempts int
	// Flaky reports a cell that failed transiently and then passed on
	// retry. A flaky cell is never Passed — the paper's regression
	// discipline wants an answer, not a coin flip — and counts toward
	// quarantine.
	Flaky bool
	// Quarantined reports the cell was skipped because earlier runs
	// benched it as chronically flaky.
	Quarantined bool
	// BackoffNanos is the total wall time this cell spent waiting in
	// retry backoff (part of RunNanos' wall-clock overhead story).
	BackoffNanos int64
	// Triage is the first-divergence artifact for a failing cell when
	// Spec.Triage was set (nil for passing cells).
	Triage *Triage
}

// Status is the cell's verdict, by the one rule every report, journal
// and served reply applies: broken, else flaky, else passed or failed.
func (o Outcome) Status() string {
	switch {
	case o.BuildErr != "":
		return journal.StatusBroken
	case o.Flaky:
		return journal.StatusFlaky
	case o.Passed:
		return journal.StatusPassed
	}
	return journal.StatusFailed
}

// Record is the cell's outcome record, the one serialised form of its
// result. A broken cell's detail is left out, as the bundle leaves it:
// that keeps a recovered panic's stack out of the masked journal.
func (o Outcome) Record() journal.Record {
	r := journal.Record{Kind: journal.KindOutcome,
		Module: o.Module, Test: o.Test, Deriv: o.Derivative, Platform: o.Platform.String(),
		Attempt: o.Attempts, Status: o.Status(), Reason: string(o.Reason), BuildErr: o.BuildErr,
		MboxResult: o.MboxResult, Cycles: o.Cycles, Insts: o.Insts,
		BuildNs: o.BuildNanos, RunNs: o.RunNanos, Cached: o.RunCached}
	if o.BuildErr == "" {
		r.Detail = o.Detail
	}
	return r
}

// OutcomeFromRecord reads an outcome back from its record; BackoffNanos,
// Quarantined and Triage read as zero. A record that is not an outcome,
// or whose platform or status does not parse, is an error.
func OutcomeFromRecord(r journal.Record) (Outcome, error) {
	k, err := platform.ParseKind(r.Platform)
	if err != nil {
		return Outcome{}, err
	}
	o := Outcome{
		Module: r.Module, Test: r.Test, Derivative: r.Deriv, Platform: k,
		Passed: r.Status == journal.StatusPassed, Flaky: r.Status == journal.StatusFlaky,
		Reason: platform.StopReason(r.Reason), MboxResult: r.MboxResult,
		Cycles: r.Cycles, Insts: r.Insts, BuildNanos: r.BuildNs, RunNanos: r.RunNs,
		BuildErr: r.BuildErr, Detail: r.Detail, RunCached: r.Cached, Attempts: r.Attempt,
	}
	if r.Kind != journal.KindOutcome || o.Status() != r.Status {
		return Outcome{}, fmt.Errorf("regress: malformed %s record for %s: status %q, build error %q",
			r.Kind, r.CellID(), r.Status, r.BuildErr)
	}
	return o, nil
}

// HistoryOrder is the dispatch order the history store h gives cells:
// longest-expected-first, or nil when h is absent or cold.
func HistoryOrder(h *history.Store, cells []CellCoord) []int {
	if h == nil {
		return nil
	}
	keys := make([]string, len(cells))
	kinds := make([]string, len(cells))
	for i, c := range cells {
		keys[i] = resilience.CellKey(c.Module, c.Test, c.Deriv.Name, c.Kind)
		kinds[i] = c.Kind.String()
	}
	return h.Order(keys, kinds)
}

// Learn teaches the history store h the cell's times. Cells that never
// ran (cancelled, quarantined, breaker) or were served from the run cache
// would poison the estimates; broken builds have no run time worth
// learning.
func (o Outcome) Learn(h *history.Store) {
	if o.Attempts > 0 && !o.RunCached && o.BuildErr == "" {
		h.Record(resilience.CellKey(o.Module, o.Test, o.Derivative, o.Platform), o.Platform.String(),
			o.BuildNanos, o.RunNanos, o.Status())
	}
}

// Report is a completed regression.
type Report struct {
	Label string
	// Started is when the regression began (the JUnit suite timestamp).
	Started  time.Time
	Outcomes []Outcome
	// Vet is the preflight analyzer report (nil when Spec.SkipVet).
	Vet *vet.Report
}

// CellCoord names one enumerated matrix cell.
type CellCoord struct {
	Module string
	Test   string
	Deriv  *derivative.Derivative
	Kind   platform.Kind
}

// EnumerateCells expands a spec into its deterministic cell
// enumeration — modules × tests × derivatives × platform kinds, in
// declaration order — without running anything. This is the order
// Report.Outcomes is indexed by, and the order the sharded matrix's
// daemon plans and merges in: enumerating in one place is what makes
// the serial and sharded journals comparable record for record.
func EnumerateCells(s *sysenv.System, spec Spec) ([]CellCoord, error) {
	derivs := spec.Derivatives
	if len(derivs) == 0 {
		derivs = derivative.Family()
	}
	kinds := spec.Kinds
	if len(kinds) == 0 {
		kinds = platform.AllKinds()
	}
	modules := spec.Modules
	if len(modules) == 0 {
		modules = s.Modules()
	}
	return enumerate(s, modules, spec.Tests, derivs, kinds)
}

// enumerate builds the cell list for already-defaulted selections. A
// Tests filter that matches nothing it names is an error — a sharded
// job naming a vanished test must fail loudly, not run zero cells.
func enumerate(s *sysenv.System, modules, tests []string, derivs []*derivative.Derivative, kinds []platform.Kind) ([]CellCoord, error) {
	var testFilter map[string]bool
	if len(tests) > 0 {
		testFilter = make(map[string]bool, len(tests))
		for _, id := range tests {
			testFilter[id] = false // set true once seen
		}
	}
	var cells []CellCoord
	for _, module := range modules {
		e, ok := s.Env(module)
		if !ok {
			return nil, fmt.Errorf("regress: unknown module %q", module)
		}
		for _, id := range e.TestIDs() {
			if testFilter != nil {
				if _, ok := testFilter[id]; !ok {
					continue
				}
				testFilter[id] = true
			}
			for _, d := range derivs {
				for _, k := range kinds {
					cells = append(cells, CellCoord{module, id, d, k})
				}
			}
		}
	}
	for id, seen := range testFilter {
		if !seen {
			return nil, fmt.Errorf("regress: no module has test %q", id)
		}
	}
	return cells, nil
}

// Run executes the regression. The system must match the frozen label.
func Run(s *sysenv.System, label *release.SystemLabel, spec Spec) (*Report, error) {
	if label == nil {
		return nil, fmt.Errorf("regress: a frozen release label is required to run a regression")
	}
	if err := label.Verify(s); err != nil {
		return nil, fmt.Errorf("regress: refusing to run: %w", err)
	}
	derivs := spec.Derivatives
	if len(derivs) == 0 {
		derivs = derivative.Family()
	}
	// Runs count into their own structs; the triage replay's two concurrent
	// runs must not share a caller's.
	spec.RunSpec.Counts = nil

	// Static-analysis preflight: the frozen content must be clean before
	// any cycle is spent on the matrix. The report rides along on the
	// regression report either way.
	var vetReport *vet.Report
	if !spec.SkipVet {
		opts := vet.NewOptions()
		opts.Derivatives = derivs
		if spec.VetOptions != nil {
			opts = *spec.VetOptions
		}
		var err error
		vetReport, err = release.Preflight(s, label, opts)
		if err != nil {
			return nil, fmt.Errorf("regress: refusing to run: %w", err)
		}
	}
	kinds := spec.Kinds
	if len(kinds) == 0 {
		kinds = platform.AllKinds()
	}
	modules := spec.Modules
	if len(modules) == 0 {
		modules = s.Modules()
	}

	// Enumerate the matrix first so the report order is deterministic
	// even under concurrency.
	cells, err := enumerate(s, modules, spec.Tests, derivs, kinds)
	if err != nil {
		return nil, err
	}

	// Bind the cache to the frozen label's content hash: entries written
	// during this regression are keyed by exactly the content Verify
	// just attested.
	bc := sysenv.BuildContext{Cache: spec.Cache, Epoch: label.Epoch(), Metrics: spec.Metrics}
	buildStats0, runStats0 := cacheStats(spec)
	newPlat := spec.NewPlatform
	if newPlat == nil {
		newPlat = platform.New
	}
	triage := spec.Triage || spec.TriageDir != ""

	rep := &Report{Label: label.Name, Started: time.Now(), Vet: vetReport}
	rep.Outcomes = make([]Outcome, len(cells))
	matrixCtx := spec.Context

	// Flight-recorder plumbing. emit is a no-op without a journal, so
	// the cell hot path pays one nil check per event.
	emit := func(r journal.Record) {
		if spec.Journal != nil {
			spec.Journal.Emit(r)
		}
	}
	cellRec := func(kind journal.Kind, c CellCoord) journal.Record {
		return journal.Record{Kind: kind, Module: c.Module, Test: c.Test,
			Deriv: c.Deriv.Name, Platform: c.Kind.String()}
	}
	// sampleRuntime reads the Go runtime's health into the metrics
	// gauges and, when a journal is attached, a runtime record.
	sampleRuntime := func() {
		if spec.Journal == nil && spec.Metrics == nil {
			return
		}
		rs := telemetry.SampleRuntime(spec.Metrics)
		emit(journal.Record{Kind: journal.KindRuntime, Goroutines: rs.Goroutines,
			HeapBytes: rs.HeapBytes, GCPauseNs: rs.GCPauseMaxNs})
	}
	var outcomeN atomic.Int64

	// Dispatch order: longest-expected-job-first from the history
	// store's estimates, declaration order when the store is cold or
	// absent. Only the dispatch permutation changes — rep.Outcomes stays
	// indexed by the deterministic enumeration order, so reports are
	// identical whichever order the cells ran in.
	order := make([]int, len(cells))
	for i := range order {
		order[i] = i
	}
	if o := HistoryOrder(spec.History, cells); o != nil {
		order = o
		spec.Metrics.Counter("regress.history_scheduled").Inc()
	}

	spec.Timeline.NameProcess("advm matrix " + label.Name)
	if spec.Journal != nil {
		ew := spec.Workers
		if ew < 1 {
			ew = 1
		}
		emit(journal.Record{
			Kind: journal.KindHeader, Version: journal.Version,
			Label: label.Name, Epoch: label.Epoch(), Workers: ew,
			Cells: len(cells), Engine: "advm",
			Wall: rep.Started.UTC().Format(time.RFC3339),
		})
		for _, i := range order {
			emit(cellRec(journal.KindSchedule, cells[i]))
		}
	}
	sampleRuntime()

	runCell := func(worker, i int) {
		c := cells[i]
		out := &rep.Outcomes[i]
		*out = Outcome{
			Module: c.Module, Test: c.Test,
			Derivative: c.Deriv.Name, Platform: c.Kind,
		}
		cellName := fmt.Sprintf("%s/%s %s %s", c.Module, c.Test, c.Deriv.Name, c.Kind)
		key := resilience.CellKey(c.Module, c.Test, c.Deriv.Name, c.Kind)
		// A panicking platform (or build) breaks its own cell, not the
		// regression: record it and let the other workers finish.
		defer func() {
			if r := recover(); r != nil {
				out.Passed = false
				out.BuildErr = fmt.Sprintf("panic: %v", r)
				out.Detail = firstLines(string(debug.Stack()), 8)
			}
			spec.Metrics.Counter("regress.cells").Inc()
			switch {
			case out.BuildErr != "":
				spec.Metrics.Counter("regress.broken").Inc()
			case out.Passed:
				spec.Metrics.Counter("regress.passed").Inc()
			default:
				spec.Metrics.Counter("regress.failed").Inc()
			}
			// The outcome is final here — panics included — so this is
			// where the flight record closes the cell and the history
			// store learns its times.
			if spec.Journal != nil {
				emit(out.Record())
				// Periodic runtime-health sample, amortised across cells.
				if outcomeN.Add(1)%32 == 0 {
					sampleRuntime()
				}
			}
			out.Learn(spec.History)
		}()
		// Matrix shutdown: cells reached after cancellation never run.
		if matrixCtx != nil && matrixCtx.Err() != nil {
			out.BuildErr = "cancelled"
			spec.Metrics.Counter("resilience.cancelled_cells").Inc()
			return
		}
		// A benched cell is skipped outright: a chronically flaky
		// pairing stops burning platform time until someone clears the
		// quarantine store.
		if spec.Quarantine.Quarantined(key) {
			out.Quarantined = true
			out.BuildErr = "quarantined: chronically flaky in earlier runs"
			spec.Metrics.Counter("resilience.quarantine_skips").Inc()
			emit(cellRec(journal.KindQuarantine, c))
			return
		}
		// Circuit breaker: while a physical rung is presumed down its
		// cells fast-fail instead of queueing against a dead platform.
		// Every breaker interaction may move the automaton (Allow arms
		// the half-open probe, OnTransient trips, OnSuccess closes), so
		// each is bracketed by a state check that journals transitions.
		brk := spec.Breakers.For(c.Kind)
		brkState := brk.State()
		noteBreaker := func() {
			if s := brk.State(); s != brkState {
				emit(journal.Record{Kind: journal.KindBreaker, Platform: c.Kind.String(),
					From: brkState.String(), To: s.String()})
				brkState = s
			}
		}
		allowed := brk.Allow()
		noteBreaker()
		if !allowed {
			out.BuildErr = fmt.Sprintf("breaker open: %s platform failing transiently", c.Kind)
			spec.Metrics.Counter("resilience.breaker_fastfail").Inc()
			return
		}
		// buildAndRun is the uncached path and the run cache's fill
		// function: the whole build → instantiate → load → run pipeline
		// for one attempt at this cell. The run cache keys cells by
		// (epoch, cell coordinates, kind, config, bounds) — see
		// runcache.OutcomeKey — so a warm hit skips the build as well as
		// the simulation. Build and run times accumulate across attempts.
		var img *obj.Image
		buildAndRun := func(runSpec platform.RunSpec, attempt int) (*platform.Result, error) {
			t0 := time.Now()
			var err error
			img, err = s.BuildTestWith(bc, c.Module, c.Test, c.Deriv, c.Kind)
			bn := time.Since(t0).Nanoseconds()
			out.BuildNanos += bn
			spec.Metrics.Histogram("regress.build_ns").ObserveNanos(bn)
			spec.Timeline.Span("build "+cellName, "build", worker, t0, time.Duration(bn),
				map[string]any{"module": c.Module, "test": c.Test, "deriv": c.Deriv.Name, "platform": c.Kind.String(), "attempt": attempt})
			if err != nil {
				return nil, err
			}
			t1 := time.Now()
			defer func() {
				rn := time.Since(t1).Nanoseconds()
				out.RunNanos += rn
				spec.Metrics.Histogram("regress.run_ns").ObserveNanos(rn)
				spec.Timeline.Span("run "+cellName, "run", worker, t1, time.Duration(rn),
					map[string]any{"platform": c.Kind.String(), "attempt": attempt})
			}()
			p, err := newPlat(c.Kind, c.Deriv.HW)
			if err != nil {
				return nil, err
			}
			if err := p.Load(img); err != nil {
				return nil, err
			}
			var counts platform.EngineCounts // this attempt's own
			runSpec.Counts = &counts
			defer countEngine(spec.Metrics, &counts)
			return p.Run(runSpec)
		}
		var res *platform.Result
		var err error
		// The run cache only memoises pure runs: deterministic platform
		// kinds, stock instantiation (a NewPlatform harness may inject
		// faults), no observers (trace callbacks and event sinks are side
		// effects a cached replay would silently drop), and no
		// cancellation regime — a StopCancelled outcome reflects this
		// host's deadline, not the image, and must never be replayed.
		pure := spec.RunCache != nil && spec.NewPlatform == nil &&
			spec.RunSpec.Trace == nil && spec.RunSpec.Events == nil &&
			matrixCtx == nil && spec.Deadline == 0
		if pure && runcache.Cacheable(c.Kind) {
			tc := time.Now()
			out.Attempts = 1
			start := cellRec(journal.KindStart, c)
			start.Attempt = 1
			emit(start)
			res, out.RunCached, err = spec.RunCache.Do(
				runcache.OutcomeKey(bc.Epoch, c.Module, c.Test, c.Deriv.Name, c.Kind, c.Deriv.HW, spec.RunSpec),
				func() (*platform.Result, error) { return buildAndRun(spec.RunSpec, 1) })
			if out.RunCached {
				out.RunNanos = time.Since(tc).Nanoseconds()
				emit(cellRec(journal.KindCacheHit, c))
			}
		} else {
			if spec.RunCache != nil {
				spec.RunCache.Bypass()
			}
			// Attempt loop: transient faults on the physical rungs are
			// retried with deterministic backoff; everything else settles
			// on the first attempt. Each attempt runs under its own
			// deadline context so a wedged platform stops at Deadline
			// with StopCancelled instead of hanging the worker.
			maxAttempts := 1
			if resilience.Retryable(c.Kind) {
				maxAttempts = spec.Retry.Attempts()
			}
			var firstFault string
			for attempt := 1; ; attempt++ {
				out.Attempts = attempt
				spec.Metrics.Counter("resilience.attempts").Inc()
				start := cellRec(journal.KindStart, c)
				start.Attempt = attempt
				emit(start)
				runSpec := spec.RunSpec
				var cancel context.CancelFunc
				if spec.Deadline > 0 {
					base := matrixCtx
					if base == nil {
						base = context.Background()
					}
					runSpec.Context, cancel = context.WithTimeout(base, spec.Deadline)
				} else {
					runSpec.Context = matrixCtx
				}
				res, err = buildAndRun(runSpec, attempt)
				if cancel != nil {
					cancel()
				}
				var class resilience.Class
				if err != nil {
					class = resilience.ClassifyError(err)
				} else {
					class = resilience.ClassifyResult(res)
				}
				if class == resilience.ClassTransient {
					brk.OnTransient()
					spec.Metrics.Counter("resilience.transients").Inc()
				} else {
					brk.OnSuccess()
				}
				noteBreaker()
				if class != resilience.ClassTransient || attempt >= maxAttempts {
					if class == resilience.ClassPassed && attempt > 1 {
						// Fail-then-pass is Flaky, never Passed: the
						// regression discipline wants an answer, not a
						// coin flip. Enough flaky runs bench the cell.
						out.Flaky = true
						spec.Metrics.Counter("resilience.flaky").Inc()
						out.Detail = fmt.Sprintf("flaky: passed on attempt %d/%d; attempt 1 failed with %s",
							attempt, maxAttempts, firstFault)
						if spec.Quarantine.RecordFlaky(key) {
							out.Detail += "; cell quarantined"
						}
					}
					break
				}
				// Transient fault with retry budget left — unless the
				// whole matrix is shutting down, in which case settle for
				// what we have.
				if matrixCtx != nil && matrixCtx.Err() != nil {
					break
				}
				if firstFault == "" {
					if err != nil {
						firstFault = err.Error()
					} else {
						firstFault = string(res.Reason)
						if res.Detail != "" {
							firstFault += " (" + res.Detail + ")"
						}
					}
				}
				d := spec.Retry.Backoff(key, attempt)
				retry := cellRec(journal.KindRetry, c)
				retry.Attempt = attempt
				retry.Class = "transient"
				retry.BackoffNs = d.Nanoseconds()
				emit(retry)
				if d > 0 {
					tb := time.Now()
					timer := time.NewTimer(d)
					if matrixCtx != nil {
						select {
						case <-timer.C:
						case <-matrixCtx.Done():
							timer.Stop()
						}
					} else {
						<-timer.C
					}
					waited := time.Since(tb).Nanoseconds()
					out.BackoffNanos += waited
					spec.Metrics.Histogram("resilience.backoff_ns").ObserveNanos(waited)
					spec.Timeline.Span("backoff "+cellName, "backoff", worker, tb, time.Duration(waited),
						map[string]any{"attempt": attempt})
				}
				spec.Metrics.Counter("resilience.retries").Inc()
			}
		}
		if err != nil {
			out.BuildErr = err.Error()
			return
		}
		out.Passed = res.Passed() && !out.Flaky
		out.Reason = res.Reason
		out.MboxResult = res.MboxResult
		out.Cycles = res.Cycles
		out.Insts = res.Instructions
		if !out.Flaky {
			out.Detail = res.Detail
		}
		if triage && !out.Passed && !out.Flaky && c.Kind != platform.KindGolden {
			// Under a fault-injection harness the reference is a pristine
			// instance of the subject's own kind: cycle-identical, so the
			// first divergence is the injected fault, not a timing loop.
			refKind := platform.KindGolden
			if spec.NewPlatform != nil {
				refKind = c.Kind
			}
			if img == nil {
				// The failing outcome was served from the run cache, so
				// this worker never built the image. The build is
				// deterministic (same epoch, same inputs) and usually a
				// build-cache hit, so rebuilding for the replay is cheap.
				var berr error
				img, berr = s.BuildTestWith(bc, c.Module, c.Test, c.Deriv, c.Kind)
				if berr != nil {
					out.Detail = strings.TrimSpace(out.Detail + "\ntriage rebuild failed: " + berr.Error())
					return
				}
			}
			// The replay inherits the cell's run bounds and runs under a
			// fresh deadline of its own: triaging a hung or
			// fault-injected cell must not itself hang the worker.
			tspec := spec.RunSpec
			if spec.Deadline > 0 {
				base := matrixCtx
				if base == nil {
					base = context.Background()
				}
				var tcancel context.CancelFunc
				tspec.Context, tcancel = context.WithTimeout(base, spec.Deadline)
				defer tcancel()
			} else {
				tspec.Context = matrixCtx
			}
			t2 := time.Now()
			tri, terr := triageCell(img, c.Deriv.HW, c.Kind, refKind, newPlat, tspec)
			spec.Timeline.Span("triage "+cellName, "triage", worker, t2, time.Since(t2), nil)
			if terr != nil {
				out.Detail = strings.TrimSpace(out.Detail + "\ntriage failed: " + terr.Error())
				return
			}
			spec.Metrics.Counter("regress.triaged").Inc()
			tri.Module, tri.Test, tri.Derivative = c.Module, c.Test, c.Deriv.Name
			out.Triage = tri
			tref := cellRec(journal.KindTriage, c)
			tref.Ref = tri.Summary()
			emit(tref)
			if spec.TriageDir != "" {
				if werr := writeTriageFile(spec.TriageDir, tri); werr != nil {
					out.Detail = strings.TrimSpace(out.Detail + "\ntriage write failed: " + werr.Error())
				}
			}
		}
	}

	workers := spec.Workers
	if workers <= 1 {
		spec.Timeline.NameLane(0, "worker-0")
		for _, i := range order {
			runCell(0, i)
		}
	} else {
		if workers > len(cells) {
			workers = len(cells)
		}
		var wg sync.WaitGroup
		next := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(worker int) {
				defer wg.Done()
				spec.Timeline.NameLane(worker, fmt.Sprintf("worker-%d", worker))
				for i := range next {
					runCell(worker, i)
				}
			}(w)
		}
		// Dispatch watches the matrix context: on cancellation it stops
		// handing out cells, in-flight cells drain (their per-cell
		// contexts are children of the matrix context, so they stop
		// cooperatively), and the pool shuts down without leaking a
		// goroutine.
	dispatch:
		for _, i := range order {
			if matrixCtx == nil {
				next <- i
				continue
			}
			select {
			case next <- i:
			case <-matrixCtx.Done():
				break dispatch
			}
		}
		close(next)
		wg.Wait()
		// Cells never dispatched still get a deterministic outcome: the
		// entry check inside runCell marks them cancelled.
		for i := range cells {
			if rep.Outcomes[i].Module == "" {
				runCell(0, i)
			}
		}
	}
	// This run's own cache lookups: the counters' growth since the start.
	// Runs overlapping on one shared cache share the tally.
	buildStats, runStats := cacheStats(spec)
	buildStats, runStats = buildStats.Since(buildStats0), runStats.Since(runStats0)
	if spec.Metrics != nil {
		for prefix, st := range map[string]memo.Stats{"buildcache.": buildStats, "runcache.": runStats} {
			for name, n := range map[string]uint64{"hits": st.Hits, "misses": st.Misses,
				"merged": st.Merged, "disk_hits": st.DiskHits, "bypassed": st.Bypassed} {
				if n > 0 {
					spec.Metrics.Counter(prefix + name).Add(n)
				}
			}
		}
		if spec.Quarantine != nil {
			spec.Metrics.Gauge("resilience.quarantine_size").Set(int64(spec.Quarantine.Size()))
		}
	}
	sampleRuntime()
	if spec.Journal != nil {
		t := rep.tally()
		end := journal.Record{
			Kind: journal.KindEnd, Passed: t.Passed, Failed: t.Failed, Broken: t.Broken, Flaky: t.Flaky,
			WallNs: time.Since(rep.Started).Nanoseconds(),
		}
		for _, o := range rep.Outcomes {
			if o.Quarantined {
				end.Quarantine++
			}
		}
		end.BuildHits, end.BuildMiss = buildStats.Hits+buildStats.Merged, buildStats.Misses
		end.RunHits, end.RunMiss, end.RunBypass = runStats.Hits+runStats.Merged, runStats.Misses, runStats.Bypassed
		emit(end)
	}
	return rep, nil
}

// countEngine adds one run's engine counters to m.
func countEngine(m *telemetry.Registry, n *platform.EngineCounts) {
	if m == nil || *n == (platform.EngineCounts{}) {
		return
	}
	m.Counter("predecode.fetches").Add(n.Fetches)
	m.Counter("predecode.slow").Add(n.SlowFetches)
	m.Counter("translate.blocks_built").Add(n.BlocksBuilt)
	m.Counter("translate.blocks_executed").Add(n.BlocksExecuted)
	m.Counter("translate.blocks_invalidated").Add(n.BlocksInvalidated)
	m.Counter("translate.fallback_exits").Add(n.FallbackExits)
}

// cacheStats snapshots the spec's caches; an absent cache reads as zero.
func cacheStats(spec Spec) (build, run memo.Stats) {
	if spec.Cache != nil {
		build = spec.Cache.Stats()
	}
	if spec.RunCache != nil {
		run = spec.RunCache.Stats()
	}
	return build, run
}

// writeTriageFile renders one triage artifact into dir, creating it if
// needed. The file name encodes the cell coordinates.
func writeTriageFile(dir string, t *Triage) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("triage_%s_%s_%s_%s.txt", t.Module, t.Test, t.Derivative, t.Platform)
	name = strings.Map(func(r rune) rune {
		switch r {
		case '/', '\\', ':', ' ':
			return '-'
		}
		return r
	}, name)
	return os.WriteFile(filepath.Join(dir, name), []byte(t.Render()), 0o644)
}

// BundleCells converts the matrix outcomes into the certification
// bundle's neutral cell form: verdict plus architectural evidence, minus
// the wall-clock fields, so the bundle stays byte-identical across runs.
func (r *Report) BundleCells() []release.MatrixCell {
	out := make([]release.MatrixCell, 0, len(r.Outcomes))
	for _, o := range r.Outcomes {
		rec := o.Record()
		out = append(out, release.MatrixCell{
			Module:     rec.Module,
			Test:       rec.Test,
			Derivative: rec.Deriv,
			Platform:   rec.Platform,
			Status:     rec.Status,
			Reason:     rec.Reason,
			MboxResult: rec.MboxResult,
			Cycles:     rec.Cycles,
			Insts:      rec.Insts,
			Detail:     cmp.Or(rec.BuildErr, rec.Detail),
		})
	}
	return out
}

// AllPassed reports whether every cell passed.
func (r *Report) AllPassed() bool {
	for _, o := range r.Outcomes {
		if !o.Passed {
			return false
		}
	}
	return true
}

// Counts returns (passed, failed, broken).
func (r *Report) Counts() (passed, failed, broken int) {
	t := r.tally()
	return t.Passed, t.Failed, t.Broken
}

func (r *Report) tally() journal.Tally {
	var t journal.Tally
	for _, o := range r.Outcomes {
		t.Add(o.Status())
	}
	return t
}

// Failures lists the non-passing outcomes.
func (r *Report) Failures() []Outcome {
	var out []Outcome
	for _, o := range r.Outcomes {
		if !o.Passed {
			out = append(out, o)
		}
	}
	return out
}

// CountFlaky returns the number of flaky cells. Flaky cells count as
// failed in Counts — a fail-then-pass is not a pass — so this is a
// refinement of the failed bucket, not a fourth bucket.
func (r *Report) CountFlaky() int { return r.tally().Flaky }

// Summary renders a one-line result.
func (r *Report) Summary() string {
	p, f, b := r.Counts()
	if fl := r.CountFlaky(); fl > 0 {
		return fmt.Sprintf("regression %s: %d passed, %d failed (%d flaky), %d broken (of %d)",
			r.Label, p, f, fl, b, len(r.Outcomes))
	}
	return fmt.Sprintf("regression %s: %d passed, %d failed, %d broken (of %d)",
		r.Label, p, f, b, len(r.Outcomes))
}

// Table renders a per-platform × derivative pass-count matrix, the row
// format the cross-platform experiment (E6) reports, with per-platform
// build and run time totals so build cost and simulation cost read
// separately on the speed ladder.
func (r *Report) Table() string {
	type key struct {
		k platform.Kind
		d string
	}
	pass := map[key]int{}
	total := map[key]int{}
	kindSet := map[platform.Kind]bool{}
	derivSet := map[string]bool{}
	for _, o := range r.Outcomes {
		kk := key{o.Platform, o.Derivative}
		total[kk]++
		if o.Passed {
			pass[kk]++
		}
		kindSet[o.Platform] = true
		derivSet[o.Derivative] = true
	}
	var kinds []platform.Kind
	for k := range kindSet {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	var derivs []string
	for d := range derivSet {
		derivs = append(derivs, d)
	}
	sort.Strings(derivs)
	times := map[platform.Kind]KindTime{}
	for _, kt := range r.TimesByKind() {
		times[kt.Kind] = kt
	}

	var b strings.Builder
	fmt.Fprintf(&b, "%-10s", "platform")
	for _, d := range derivs {
		fmt.Fprintf(&b, " %12s", d)
	}
	fmt.Fprintf(&b, " %10s %10s", "build_ms", "run_ms")
	b.WriteString("\n")
	for _, k := range kinds {
		fmt.Fprintf(&b, "%-10s", k)
		for _, d := range derivs {
			kk := key{k, d}
			fmt.Fprintf(&b, " %7d/%-4d", pass[kk], total[kk])
		}
		kt := times[k]
		fmt.Fprintf(&b, " %10.1f %10.1f", float64(kt.BuildNanos)/1e6, float64(kt.RunNanos)/1e6)
		b.WriteString("\n")
	}
	return b.String()
}

// KindTime aggregates cell times for one platform kind.
type KindTime struct {
	Kind       platform.Kind
	Cells      int
	BuildNanos int64
	RunNanos   int64
}

// TimesByKind sums per-cell build and run time for each platform kind,
// in the paper's platform order (golden, rtl, gate, emulator, bondout,
// silicon) — the speed-ladder order every table in Section 4 uses. The
// sums are over cells, not wall clock: concurrent workers overlap them.
func (r *Report) TimesByKind() []KindTime {
	acc := map[platform.Kind]*KindTime{}
	for _, o := range r.Outcomes {
		kt, ok := acc[o.Platform]
		if !ok {
			kt = &KindTime{Kind: o.Platform}
			acc[o.Platform] = kt
		}
		kt.Cells++
		kt.BuildNanos += o.BuildNanos
		kt.RunNanos += o.RunNanos
	}
	out := make([]KindTime, 0, len(acc))
	for _, k := range []platform.Kind{platform.KindGolden, platform.KindRTL,
		platform.KindGate, platform.KindEmulator, platform.KindBondout, platform.KindSilicon} {
		if kt, ok := acc[k]; ok {
			out = append(out, *kt)
			delete(acc, k)
		}
	}
	// Any kind outside the canonical six (future ladder rungs) follows,
	// in numeric order, so the result stays total and deterministic.
	var rest []KindTime
	for _, kt := range acc {
		rest = append(rest, *kt)
	}
	sort.Slice(rest, func(i, j int) bool { return rest[i].Kind < rest[j].Kind })
	return append(out, rest...)
}

// firstLines truncates s to its first n lines.
func firstLines(s string, n int) string {
	lines := strings.SplitN(s, "\n", n+1)
	if len(lines) > n {
		lines = lines[:n]
	}
	return strings.Join(lines, "\n")
}
