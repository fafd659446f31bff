package journal

// The live progress board: an in-place terminal status line rendered
// from the same record stream the flight recorder persists. advm-regress
// wires it as a second Sink behind Tee, so what you watch and what the
// journal file says are one stream by construction.
//
// Stream discipline: the board writes only to its status writer
// (stderr in advm-regress) using carriage-return redraws, and routes
// one-off log lines (verbose cell failures) through Logf, which erases
// the status line, writes the log line to the separate log writer
// (stdout), and redraws — so progress and cell logs interleave cleanly
// on a terminal where both streams share the tty.

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// Progress renders a matrix run as an in-place status line. Create
// with NewProgress; all methods are safe for concurrent use.
type Progress struct {
	mu  sync.Mutex
	out io.Writer // status line (carriage-return redraws)
	log io.Writer // Logf lines; nil falls back to out

	// Estimate, when set, supplies the history store's expected
	// build+run time for a cell, enabling a work-weighted ETA.
	estimate func(module, test, deriv, platform string) (int64, bool)

	start    time.Time
	total    int
	workers  int
	done     int
	tally    Tally
	retries  int
	cached   int
	skipped  int            // quarantine
	inflight map[string]int // platform -> cells currently running
	started  map[string]bool

	remainNs  int64            // summed estimates of scheduled, unfinished cells
	estimated map[string]int64 // cellID -> estimate

	lastDraw time.Time
	drawn    bool
	closed   bool
}

// NewProgress creates a progress board writing its status line to out.
func NewProgress(out io.Writer) *Progress {
	return &Progress{
		out:       out,
		start:     time.Now(),
		inflight:  map[string]int{},
		started:   map[string]bool{},
		estimated: map[string]int64{},
	}
}

// SetLogWriter routes Logf lines to w (advm-regress passes stdout so
// cell logs and the status line live on separate streams).
func (p *Progress) SetLogWriter(w io.Writer) {
	p.mu.Lock()
	p.log = w
	p.mu.Unlock()
}

// SetEstimator installs a per-cell expected-time source (the history
// store) for the ETA.
func (p *Progress) SetEstimator(f func(module, test, deriv, platform string) (int64, bool)) {
	p.mu.Lock()
	p.estimate = f
	p.mu.Unlock()
}

// Emit implements Sink.
func (p *Progress) Emit(r Record) {
	p.mu.Lock()
	defer p.mu.Unlock()
	switch r.Kind {
	case KindHeader:
		p.total = r.Cells
		p.workers = r.Workers
	case KindSchedule:
		if p.estimate != nil {
			if ns, ok := p.estimate(r.Module, r.Test, r.Deriv, r.Platform); ok {
				p.estimated[r.CellID()] = ns
				p.remainNs += ns
			}
		}
	case KindStart:
		if id := r.CellID(); !p.started[id] {
			p.started[id] = true
			p.inflight[r.Platform]++
		}
	case KindRetry:
		p.retries++
	case KindCacheHit:
		p.cached++
	case KindQuarantine:
		p.skipped++
	case KindOutcome:
		p.done++
		p.tally.Add(r.Status)
		id := r.CellID()
		if p.started[id] {
			delete(p.started, id)
			if p.inflight[r.Platform] > 0 {
				p.inflight[r.Platform]--
			}
		}
		if ns, ok := p.estimated[id]; ok {
			p.remainNs -= ns
			delete(p.estimated, id)
		}
	default:
		return // runtime samples and end records don't change the board
	}
	p.redraw(false)
}

// Logf erases the status line, writes one log line to the log writer,
// and redraws — the clean-interleave contract for -progress with -v.
func (p *Progress) Logf(format string, args ...any) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.clear()
	w := p.log
	if w == nil {
		w = p.out
	}
	fmt.Fprintf(w, format+"\n", args...)
	p.redraw(true)
}

// Done finalises the board: a last redraw and a newline so subsequent
// output starts on a fresh line.
func (p *Progress) Done() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	p.redraw(true)
	if p.drawn {
		fmt.Fprintln(p.out)
	}
	p.closed = true
}

// clear erases the current status line (caller holds the lock).
func (p *Progress) clear() {
	if p.drawn {
		fmt.Fprint(p.out, "\r\x1b[K")
	}
}

// redraw repaints the status line, throttled to ~20 Hz unless forced
// (caller holds the lock).
func (p *Progress) redraw(force bool) {
	if p.closed {
		return
	}
	now := time.Now()
	if !force && p.drawn && now.Sub(p.lastDraw) < 50*time.Millisecond {
		return
	}
	p.lastDraw = now
	fmt.Fprint(p.out, "\r\x1b[K"+p.line())
	p.drawn = true
}

// line renders the status text (caller holds the lock).
func (p *Progress) line() string {
	var b strings.Builder
	total := p.total
	if total < p.done {
		total = p.done
	}
	// A 20-slot bar keeps the line narrow enough for small terminals.
	const slots = 20
	fill := 0
	if total > 0 {
		fill = p.done * slots / total
	}
	fmt.Fprintf(&b, "[%s%s] %d/%d", strings.Repeat("#", fill), strings.Repeat(".", slots-fill), p.done, total)
	fmt.Fprintf(&b, "  pass %d fail %d broken %d", p.tally.Passed, p.tally.Failed, p.tally.Broken)
	if p.tally.Flaky > 0 {
		fmt.Fprintf(&b, " flaky %d", p.tally.Flaky)
	}
	if p.retries > 0 {
		fmt.Fprintf(&b, "  retries %d", p.retries)
	}
	if p.cached > 0 {
		fmt.Fprintf(&b, "  cached %d", p.cached)
	}
	if p.skipped > 0 {
		fmt.Fprintf(&b, "  quarantined %d", p.skipped)
	}
	if inflight := p.inflightSummary(); inflight != "" {
		fmt.Fprintf(&b, "  | %s", inflight)
	}
	if eta := p.eta(); eta > 0 && p.done < total {
		fmt.Fprintf(&b, "  eta %s", eta.Round(time.Second))
	}
	return b.String()
}

func (p *Progress) inflightSummary() string {
	var plats []string
	for plat, n := range p.inflight {
		if n > 0 {
			plats = append(plats, plat)
		}
	}
	sort.Strings(plats)
	parts := make([]string, 0, len(plats))
	for _, plat := range plats {
		parts = append(parts, fmt.Sprintf("%s:%d", plat, p.inflight[plat]))
	}
	return strings.Join(parts, " ")
}

// eta prefers the history store's expected remaining work divided
// across workers; with no estimates it extrapolates from progress so
// far (caller holds the lock).
func (p *Progress) eta() time.Duration {
	if p.remainNs > 0 {
		workers := p.workers
		if workers < 1 {
			workers = 1
		}
		return time.Duration(p.remainNs / int64(workers))
	}
	if p.done == 0 || p.total == 0 {
		return 0
	}
	elapsed := time.Since(p.start)
	return time.Duration(int64(elapsed) / int64(p.done) * int64(p.total-p.done))
}
