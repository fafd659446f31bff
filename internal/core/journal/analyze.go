package journal

// Post-mortem analysis of a flight record: the aggregations advm-report
// renders (per-platform lanes, slowest cells, retry storms, cache
// reuse) and the trend comparison between two journals of the same
// release label. Everything here is a pure function of the records, so
// the report is as deterministic as the journal it reads.

import (
	"fmt"
	"sort"
)

// Analysis is the digested form of one journal.
type Analysis struct {
	// Header is the run header (zero if the journal is headless — e.g.
	// truncated by a crash before the first record).
	Header Record
	// End is the closing record; HasEnd reports whether the run closed
	// cleanly (a crashed matrix leaves a journal without one — the
	// flight-recorder case the format exists for).
	End    Record
	HasEnd bool
	// Outcomes are the cell outcome records in journal order.
	Outcomes []Record
	// Schedule is the planned dispatch order (cell IDs).
	Schedule []string
	// Retries are the retry records in journal order.
	Retries []Record
	// Breakers are the breaker-transition records in journal order.
	Breakers []Record
	// TriageRefs maps cell ID to its triage reference.
	TriageRefs map[string]string
	// CacheHits counts run-cache-served cells; QuarantineSkips the cells
	// benched by the quarantine store.
	CacheHits       int
	QuarantineSkips int
	// MaxGoroutines, MaxHeapBytes and MaxGCPauseNs are the peaks over
	// the runtime samples (zero when none were recorded).
	MaxGoroutines int64
	MaxHeapBytes  int64
	MaxGCPauseNs  int64
	// attempts maps cell ID to the outcome's attempt count.
	attempts map[string]int
}

// Analyze digests a record stream.
func Analyze(recs []Record) *Analysis {
	a := &Analysis{TriageRefs: map[string]string{}, attempts: map[string]int{}}
	for _, r := range recs {
		switch r.Kind {
		case KindHeader:
			a.Header = r
		case KindSchedule:
			a.Schedule = append(a.Schedule, r.CellID())
		case KindOutcome:
			a.Outcomes = append(a.Outcomes, r)
			a.attempts[r.CellID()] = r.Attempt
		case KindRetry:
			a.Retries = append(a.Retries, r)
		case KindBreaker:
			a.Breakers = append(a.Breakers, r)
		case KindCacheHit:
			a.CacheHits++
		case KindQuarantine:
			a.QuarantineSkips++
		case KindTriage:
			a.TriageRefs[r.CellID()] = r.Ref
		case KindRuntime:
			if r.Goroutines > a.MaxGoroutines {
				a.MaxGoroutines = r.Goroutines
			}
			if r.HeapBytes > a.MaxHeapBytes {
				a.MaxHeapBytes = r.HeapBytes
			}
			if r.GCPauseNs > a.MaxGCPauseNs {
				a.MaxGCPauseNs = r.GCPauseNs
			}
		case KindEnd:
			a.End = r
			a.HasEnd = true
		}
	}
	return a
}

// Counts tallies the outcome statuses.
func (a *Analysis) Counts() (passed, failed, broken, flaky int) {
	var t Tally
	for _, o := range a.Outcomes {
		t.Add(o.Status)
	}
	return t.Passed, t.Failed, t.Broken, t.Flaky
}

// PlatformLane aggregates one platform's cells.
type PlatformLane struct {
	Platform string
	Cells    int
	Tally
	Cached  int
	Retries int
	BuildNs int64
	RunNs   int64
	// FirstNs/LastNs bound the platform's outcome offsets — the lane's
	// extent on the run's time axis.
	FirstNs int64
	LastNs  int64
}

// Lanes aggregates outcomes per platform, sorted by total run time
// descending (the busiest lane first), ties by name.
func (a *Analysis) Lanes() []PlatformLane {
	acc := map[string]*PlatformLane{}
	for _, o := range a.Outcomes {
		l, ok := acc[o.Platform]
		if !ok {
			l = &PlatformLane{Platform: o.Platform, FirstNs: o.T}
			acc[o.Platform] = l
		}
		l.Cells++
		l.Add(o.Status)
		if o.Cached {
			l.Cached++
		}
		if o.Attempt > 1 {
			l.Retries += o.Attempt - 1
		}
		l.BuildNs += o.BuildNs
		l.RunNs += o.RunNs
		start := o.T - o.BuildNs - o.RunNs
		if start < l.FirstNs {
			l.FirstNs = start
		}
		if o.T > l.LastNs {
			l.LastNs = o.T
		}
	}
	out := make([]PlatformLane, 0, len(acc))
	for _, l := range acc {
		out = append(out, *l)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].RunNs != out[j].RunNs {
			return out[i].RunNs > out[j].RunNs
		}
		return out[i].Platform < out[j].Platform
	})
	return out
}

// Slowest returns the n outcomes with the largest run time, slowest
// first (ties broken by cell ID for determinism). Cached outcomes are
// excluded — their "run time" is a cache lookup.
func (a *Analysis) Slowest(n int) []Record {
	var live []Record
	for _, o := range a.Outcomes {
		if !o.Cached {
			live = append(live, o)
		}
	}
	sort.Slice(live, func(i, j int) bool {
		if live[i].RunNs != live[j].RunNs {
			return live[i].RunNs > live[j].RunNs
		}
		return live[i].CellID() < live[j].CellID()
	})
	if n > 0 && len(live) > n {
		live = live[:n]
	}
	return live
}

// Storm is one cell's retry history.
type Storm struct {
	Cell      string
	Attempts  int
	BackoffNs int64
	Status    string
}

// RetryStorms lists the cells that needed more than one attempt, worst
// first (most attempts, then most backoff, then cell ID).
func (a *Analysis) RetryStorms() []Storm {
	backoff := map[string]int64{}
	for _, r := range a.Retries {
		backoff[r.CellID()] += r.BackoffNs
	}
	var out []Storm
	for _, o := range a.Outcomes {
		if o.Attempt > 1 {
			out = append(out, Storm{
				Cell: o.CellID(), Attempts: o.Attempt,
				BackoffNs: backoff[o.CellID()], Status: o.Status,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Attempts != out[j].Attempts {
			return out[i].Attempts > out[j].Attempts
		}
		if out[i].BackoffNs != out[j].BackoffNs {
			return out[i].BackoffNs > out[j].BackoffNs
		}
		return out[i].Cell < out[j].Cell
	})
	return out
}

// CacheSummary renders the end record's cache totals as one line, or
// "" when the journal has no end record.
func (a *Analysis) CacheSummary() string {
	if !a.HasEnd {
		return ""
	}
	e := a.End
	line := func(hits, misses uint64) string {
		total := hits + misses
		if total == 0 {
			return "off"
		}
		return fmt.Sprintf("%d/%d hits (%.1f%% reuse)", hits, total, float64(hits)/float64(total)*100)
	}
	out := "build " + line(e.BuildHits, e.BuildMiss) + ", run " + line(e.RunHits, e.RunMiss)
	if e.RunBypass > 0 {
		out += fmt.Sprintf(", %d bypassed", e.RunBypass)
	}
	return out
}

// TrendRow compares one platform between two runs.
type TrendRow struct {
	Platform  string
	RunNs     int64
	PrevRunNs int64
	Passed    int
	PrevPass  int
}

// Trend compares this analysis against a previous run of the same
// release label: per-platform run-time and pass-count deltas plus the
// cells that regressed (now failing, passed before) and recovered. If
// the labels differ the comparison is still computed — the caller
// decides whether cross-label trends mean anything — but SameLabel
// reports the mismatch.
type Trend struct {
	SameLabel bool
	Rows      []TrendRow
	// Regressed cells passed in prev and do not pass now; Recovered the
	// reverse. Both sorted.
	Regressed []string
	Recovered []string
}

// TrendVs computes the trend of a (current) versus prev.
func (a *Analysis) TrendVs(prev *Analysis) *Trend {
	t := &Trend{SameLabel: a.Header.Label == prev.Header.Label}
	cur := map[string]*TrendRow{}
	for _, l := range a.Lanes() {
		cur[l.Platform] = &TrendRow{Platform: l.Platform, RunNs: l.RunNs, Passed: l.Passed}
	}
	for _, l := range prev.Lanes() {
		r, ok := cur[l.Platform]
		if !ok {
			r = &TrendRow{Platform: l.Platform}
			cur[l.Platform] = r
		}
		r.PrevRunNs = l.RunNs
		r.PrevPass = l.Passed
	}
	for _, r := range cur {
		t.Rows = append(t.Rows, *r)
	}
	sort.Slice(t.Rows, func(i, j int) bool { return t.Rows[i].Platform < t.Rows[j].Platform })

	status := func(an *Analysis) map[string]bool {
		m := map[string]bool{}
		for _, o := range an.Outcomes {
			m[o.CellID()] = o.Status == StatusPassed
		}
		return m
	}
	now, was := status(a), status(prev)
	for cell, passed := range now {
		if wasPassed, seen := was[cell]; seen && wasPassed && !passed {
			t.Regressed = append(t.Regressed, cell)
		}
	}
	for cell, wasPassed := range was {
		if nowPassed, seen := now[cell]; seen && !wasPassed && nowPassed {
			t.Recovered = append(t.Recovered, cell)
		}
	}
	sort.Strings(t.Regressed)
	sort.Strings(t.Recovered)
	return t
}
