// Package journal is the flight recorder of the regression matrix: an
// append-only, structured JSONL record of everything one matrix run did
// — a run header carrying the frozen release label and content epoch,
// then one record per cell event (schedule, start, retry, breaker
// transition, quarantine skip, cache hit, outcome, triage reference,
// runtime sample) and a closing end record with the verdict counts and
// cache totals.
//
// A cell's outcome record is its whole result: the one serialised form
// that reports, certification bundles and served replies are read back
// from. Format version 2 added mbox_result and detail to it.
//
// The journal is the persistence half of the observability layer: the
// in-process telemetry substrate (internal/core/telemetry) answers "what
// is the process doing right now", the journal answers "what did that
// run do" after the process is gone, across runs, and across machines.
// cmd/advm-report renders a journal into a report; the live -progress
// board of advm-regress is fed by the same records through the Sink
// interface, so the file format and the live view can never drift.
//
// Determinism: every record is stamped with a monotonic offset from the
// run start (t_ns) and wall-clock durations, but those are the only
// host-dependent fields. Mask strips them and re-encodes each line
// canonically, so two serial runs of the same frozen spec produce
// byte-identical masked journals — the property the E17 acceptance test
// enforces. The package is a leaf: it imports only the standard library.
package journal

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// Version is the journal format version stamped into header records,
// and checked where a worker or a client meets a daemon.
const Version = 2

// Kind enumerates the record types.
type Kind string

// Record kinds.
const (
	// KindHeader opens a journal: format version, release label, content
	// epoch, matrix shape (cells, workers, engine), and the wall-clock
	// start time.
	KindHeader Kind = "header"
	// KindSchedule announces one cell in dispatch order, before any cell
	// runs — the scheduler's plan, written down so a report (or the E17
	// test) can audit the longest-expected-job-first order.
	KindSchedule Kind = "schedule"
	// KindStart marks one attempt of a cell beginning to build+run.
	KindStart Kind = "start"
	// KindRetry marks a transient fault about to be retried; BackoffNs is
	// the policy's planned (seeded, deterministic) backoff.
	KindRetry Kind = "retry"
	// KindBreaker marks a circuit-breaker state transition on a platform
	// kind (From/To are automaton state names).
	KindBreaker Kind = "breaker"
	// KindQuarantine marks a cell skipped because earlier regressions
	// benched it as chronically flaky.
	KindQuarantine Kind = "quarantine-skip"
	// KindCacheHit marks a cell served from the run cache instead of
	// being simulated.
	KindCacheHit Kind = "cache-hit"
	// KindOutcome closes one cell with its whole result: status, stop
	// reason, mailbox result, detail, counters, and the accumulated
	// build/run times.
	KindOutcome Kind = "outcome"
	// KindTriage references the first-divergence artifact of a failing
	// cell (Ref is the one-line summary, or the artifact path when the
	// matrix writes triage files).
	KindTriage Kind = "triage"
	// KindRuntime is a Go-runtime health sample (goroutines, heap, GC
	// pause), taken at matrix start/end and periodically between
	// outcomes.
	KindRuntime Kind = "runtime"
	// KindEnd closes a journal: verdict counts, wall time, and the
	// build/run cache totals.
	KindEnd Kind = "end"
)

// Outcome status values (Record.Status).
const (
	StatusPassed = "passed"
	StatusFailed = "failed"
	StatusFlaky  = "flaky"
	StatusBroken = "broken"
)

// Tally counts outcome statuses the way every report, board and served
// reply does: a flaky cell counts as failed, and again as flaky.
type Tally struct{ Passed, Failed, Broken, Flaky int }

// Add counts one outcome status.
func (t *Tally) Add(status string) {
	switch status {
	case StatusPassed:
		t.Passed++
	case StatusBroken:
		t.Broken++
	case StatusFlaky:
		t.Failed++
		t.Flaky++
	default:
		t.Failed++
	}
}

// Record is one journal line. It is a flat union over every record
// kind: unused fields are omitted from the JSON, so each line carries
// only its kind's payload. Fields named *_ns plus Wall, Goroutines and
// HeapBytes are host wall-clock or process state, and Seq, Workers and
// the cache totals are execution shape (how the matrix was sharded,
// not what it concluded); Mask strips them all. Everything else is a
// deterministic function of the frozen spec.
type Record struct {
	Kind Kind   `json:"kind"`
	Seq  uint64 `json:"seq"`
	// T is the monotonic offset from the journal's start, in
	// nanoseconds. Stamped by the Writer, not the caller.
	T int64 `json:"t_ns,omitempty"`

	// Header fields.
	Version int    `json:"version,omitempty"`
	Label   string `json:"label,omitempty"`
	Epoch   string `json:"epoch,omitempty"`
	Workers int    `json:"workers,omitempty"`
	Cells   int    `json:"cells,omitempty"`
	Engine  string `json:"engine,omitempty"`
	Wall    string `json:"wall,omitempty"`

	// Cell coordinates (schedule/start/retry/cache-hit/outcome/triage).
	Module   string `json:"module,omitempty"`
	Test     string `json:"test,omitempty"`
	Deriv    string `json:"deriv,omitempty"`
	Platform string `json:"platform,omitempty"`
	Attempt  int    `json:"attempt,omitempty"`

	// Retry and breaker fields.
	Class     string `json:"class,omitempty"`
	BackoffNs int64  `json:"backoff_ns,omitempty"`
	From      string `json:"from,omitempty"`
	To        string `json:"to,omitempty"`

	// Outcome fields. Detail is empty for a broken cell: see BuildErr.
	Status     string `json:"status,omitempty"`
	Reason     string `json:"reason,omitempty"`
	BuildErr   string `json:"build_err,omitempty"`
	MboxResult uint32 `json:"mbox_result,omitempty"`
	Detail     string `json:"detail,omitempty"`
	Cycles     uint64 `json:"cycles,omitempty"`
	Insts      uint64 `json:"insts,omitempty"`
	BuildNs    int64  `json:"build_ns,omitempty"`
	RunNs      int64  `json:"run_ns,omitempty"`
	Cached     bool   `json:"cached,omitempty"`

	// Triage reference.
	Ref string `json:"ref,omitempty"`

	// Runtime sample fields.
	Goroutines int64 `json:"goroutines,omitempty"`
	HeapBytes  int64 `json:"heap_bytes,omitempty"`
	GCPauseNs  int64 `json:"gc_pause_ns,omitempty"`

	// End fields.
	Passed     int    `json:"passed,omitempty"`
	Failed     int    `json:"failed,omitempty"`
	Broken     int    `json:"broken,omitempty"`
	Flaky      int    `json:"flaky,omitempty"`
	WallNs     int64  `json:"wall_ns,omitempty"`
	BuildHits  uint64 `json:"build_hits,omitempty"`
	BuildMiss  uint64 `json:"build_misses,omitempty"`
	RunHits    uint64 `json:"run_hits,omitempty"`
	RunMiss    uint64 `json:"run_misses,omitempty"`
	RunBypass  uint64 `json:"run_bypassed,omitempty"`
	Quarantine int    `json:"quarantined,omitempty"`
}

// CellID names the cell a record belongs to, in the resilience CellKey
// format (module/test@deriv/platform); empty for non-cell records.
func (r Record) CellID() string {
	if r.Module == "" {
		return ""
	}
	return r.Module + "/" + r.Test + "@" + r.Deriv + "/" + r.Platform
}

// Sink receives journal records. The regression runner emits into a
// Sink so a file writer, the live progress board, and tests all consume
// the identical stream. Implementations must be safe for concurrent use
// — matrix workers emit from their own goroutines.
type Sink interface {
	Emit(Record)
}

// SinkFunc adapts a function to a Sink.
type SinkFunc func(Record)

// Emit implements Sink.
func (f SinkFunc) Emit(r Record) { f(r) }

// Tee fans one record stream out to several sinks in order. Nil sinks
// are skipped; a tee over zero live sinks is a valid no-op sink.
func Tee(sinks ...Sink) Sink {
	var live []Sink
	for _, s := range sinks {
		if s != nil {
			live = append(live, s)
		}
	}
	return tee(live)
}

type tee []Sink

func (t tee) Emit(r Record) {
	for _, s := range t {
		s.Emit(r)
	}
}

// Writer appends records to an io.Writer as JSONL, one record per
// line, flushed after every record — the journal survives a crashed or
// killed matrix up to the last completed event, which is the whole
// point of a flight recorder. The Writer stamps Seq and T (monotonic
// offset from NewWriter); callers fill everything else. All methods
// are safe for concurrent use and nil-safe.
type Writer struct {
	mu    sync.Mutex
	bw    *bufio.Writer
	start time.Time
	seq   uint64
	err   error
}

// NewWriter creates a journal writer over w. The monotonic clock
// starts now.
func NewWriter(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriter(w), start: time.Now()}
}

// Emit implements Sink: stamps, encodes, writes, and flushes one
// record. The first write error is latched and reported by Close.
func (w *Writer) Emit(r Record) {
	if w == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.seq++
	r.Seq = w.seq
	r.T = time.Since(w.start).Nanoseconds()
	data, err := json.Marshal(r)
	if err != nil {
		// A Record is a plain struct of marshalable fields; an error here
		// is programmer error, but latch it rather than panic a worker.
		w.setErr(err)
		return
	}
	if _, err := w.bw.Write(append(data, '\n')); err != nil {
		w.setErr(err)
		return
	}
	w.setErr(w.bw.Flush())
}

func (w *Writer) setErr(err error) {
	if w.err == nil && err != nil {
		w.err = err
	}
}

// Count reports how many records were emitted.
func (w *Writer) Count() uint64 {
	if w == nil {
		return 0
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seq
}

// Close flushes and returns the first write error, if any. It does not
// close the underlying writer (the caller owns the file).
func (w *Writer) Close() error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.setErr(w.bw.Flush())
	return w.err
}

// Read parses a JSONL journal back into records. Blank lines are
// skipped; a malformed line is an error naming its line number.
func Read(r io.Reader) ([]Record, error) {
	var out []Record
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(raw, &rec); err != nil {
			return nil, fmt.Errorf("journal: line %d: %w", line, err)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	return out, nil
}

// ReadFile is Read over a file's contents.
func ReadFile(path string) ([]Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Read(bytes.NewReader(data))
}

// volatileKeys are the JSON fields that depend on host wall-clock,
// process state, or execution shape rather than on the frozen spec:
// Mask deletes them. Execution-shape fields (seq, workers, and the
// cache totals) joined the set with the sharded matrix: a cell's
// verdict is spec-determined, but which worker process ran it, how
// records interleaved with dropped runtime samples, and which tier a
// build was served from are not — a sharded run and a serial run of
// the same frozen spec must mask to identical bytes.
var volatileKeys = []string{
	"t_ns", "wall", "wall_ns",
	"build_ns", "run_ns", "backoff_ns",
	"goroutines", "heap_bytes", "gc_pause_ns",
	"seq", "workers",
	"build_hits", "build_misses", "run_hits", "run_misses", "run_bypassed",
}

// Mask strips the volatile fields from a JSONL journal, drops the
// runtime-sample records entirely (they describe the host, and their
// cadence — every 32nd outcome per process — depends on how the matrix
// was sharded), and re-encodes each surviving line canonically (sorted
// keys). Two serial runs of the same frozen spec produce byte-identical
// Mask output, and so do a serial run and a sharded multi-process run
// dispatching in the same order — the determinism contracts the E17 and
// E19 acceptance tests enforce, and the form trend comparisons should
// diff.
func Mask(data []byte) ([]byte, error) {
	var out bytes.Buffer
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal(raw, &m); err != nil {
			return nil, fmt.Errorf("journal: mask: line %d: %w", line, err)
		}
		if m["kind"] == string(KindRuntime) {
			continue
		}
		for _, k := range volatileKeys {
			delete(m, k)
		}
		enc, err := json.Marshal(m) // map keys marshal sorted: canonical
		if err != nil {
			return nil, fmt.Errorf("journal: mask: line %d: %w", line, err)
		}
		out.Write(enc)
		out.WriteByte('\n')
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("journal: mask: %w", err)
	}
	return out.Bytes(), nil
}

// Resequence renumbers a merged record stream with a fresh monotonic
// Seq, 1..n in slice order. A sharded matrix produces one record
// sub-stream per worker process, each with its own worker-local
// sequence; after the daemon's client merges them — schedule records in
// dispatch order, per-cell groups in dispatch order, each group's
// records in its worker's emission order (the worker-local Seq is the
// tiebreak that makes the merge deterministic) — Resequence restores
// the journal invariant that Seq increases line by line. The input is
// not mutated.
func Resequence(recs []Record) []Record {
	out := make([]Record, len(recs))
	for i, r := range recs {
		r.Seq = uint64(i + 1)
		out[i] = r
	}
	return out
}
