package shard

import (
	"fmt"
	"net"
	"sort"
	"strings"
	"time"

	"repro/internal/core/journal"
	"repro/internal/core/regress"
)

// Reply is a completed sharded regression, reassembled client-side into
// the same shapes the in-process matrix produces.
type Reply struct {
	Plan *Plan
	// Outcomes is indexed by the plan's deterministic cell enumeration —
	// the same order regress.Run's report uses.
	Outcomes []regress.Outcome
	// Journal is the canonical merged flight record: one header, the
	// schedule in dispatch order, each cell's records in dispatch order
	// merged by (worker, seq), one end record — resequenced so Seq is
	// monotonic. Masked, it is byte-identical to the serial run's
	// masked journal.
	Journal []journal.Record
	Done    Done
}

// Dial connects to a daemon at addr with a short retry window, so a
// client racing a just-started daemon (the smoke test does exactly
// this) connects as soon as the socket exists. An explicit "unix:" or
// "tcp:" scheme prefix selects the network; without one, an addr
// containing a path separator is a unix socket and anything else is TCP
// host:port. The prefix exists because the bare heuristic misroutes
// TCP addrs that legitimately contain '/' — IPv6 zone-scoped hosts and
// URL-style addresses — and those must be able to say "tcp:" outright.
func Dial(addr string, wait time.Duration) (net.Conn, error) {
	network, addr := SplitAddr(addr)
	deadline := time.Now().Add(wait)
	for {
		conn, err := net.Dial(network, addr)
		if err == nil {
			return conn, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("shard: dial %s %s: %w", network, addr, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// SplitAddr resolves a listen/dial address into (network, address):
// explicit "unix:"/"tcp:" prefixes win, then the legacy heuristic (a
// '/' or a ".sock" suffix means a unix socket path).
func SplitAddr(addr string) (network, address string) {
	switch {
	case strings.HasPrefix(addr, "unix:"):
		return "unix", strings.TrimPrefix(addr, "unix:")
	case strings.HasPrefix(addr, "tcp:"):
		return "tcp", strings.TrimPrefix(addr, "tcp:")
	case strings.ContainsRune(addr, '/'), strings.HasSuffix(addr, ".sock"):
		return "unix", addr
	default:
		return "tcp", addr
	}
}

// Regress runs one regression request against the daemon at addr and
// reassembles the streamed results. onResult, when non-nil, observes
// each cell result as it arrives (completion order, not enumeration
// order) — the client's progress hook.
func Regress(addr string, req Request, onResult func(*Result)) (*Reply, error) {
	nc, err := Dial(addr, 10*time.Second)
	if err != nil {
		return nil, err
	}
	defer nc.Close()
	return request(NewConn(nc, nc), req, onResult)
}

// request is Regress on an open connection. A malformed daemon stream
// is an error, never a panic.
func request(conn *Conn, req Request, onResult func(*Result)) (*Reply, error) {
	if err := conn.Write(Frame{Type: FrameRequest, Request: &req}); err != nil {
		return nil, err
	}
	f, err := conn.Read()
	if err != nil {
		return nil, fmt.Errorf("shard: reading plan: %w", err)
	}
	if f.Type == FrameError {
		return nil, fmt.Errorf("shard: daemon refused: %s", f.Error)
	}
	if f.Type != FramePlan || f.Plan == nil {
		return nil, fmt.Errorf("shard: expected plan, got %q", f.Type)
	}
	if f.Plan.Version != journal.Version {
		return nil, fmt.Errorf("shard: daemon speaks journal version %d, this client %d",
			f.Plan.Version, journal.Version)
	}
	// The merge lays cells out in dispatch order, so it must be absent
	// or a permutation of the cell indices.
	scheduled := make([]bool, len(f.Plan.Cells))
	for _, i := range f.Plan.Dispatch {
		if len(f.Plan.Dispatch) != len(scheduled) || i < 0 || i >= len(scheduled) || scheduled[i] {
			return nil, fmt.Errorf("shard: plan dispatch is not a permutation of its %d cells", len(scheduled))
		}
		scheduled[i] = true
	}
	reply := &Reply{
		Plan:     f.Plan,
		Outcomes: make([]regress.Outcome, len(f.Plan.Cells)),
	}
	groups := make([][]journal.Record, len(f.Plan.Cells))
	// got tracks per-cell receipt: a duplicate result frame for the same
	// cell ID must be rejected, not counted — counting it twice would
	// let the done-frame completeness check pass with other cells never
	// reported, and the duplicate would silently overwrite the earlier
	// outcome.
	got := make([]bool, len(f.Plan.Cells))
	seen := 0
	for {
		f, err := conn.Read()
		if err != nil {
			return nil, fmt.Errorf("shard: result stream: %w", err)
		}
		switch f.Type {
		case FrameResult:
			r := f.Result
			if r == nil || r.ID < 0 || r.ID >= len(reply.Outcomes) {
				return nil, fmt.Errorf("shard: result for unknown cell")
			}
			if got[r.ID] {
				return nil, fmt.Errorf("shard: duplicate result for cell %d (%s)",
					r.ID, reply.Plan.Cells[r.ID])
			}
			got[r.ID] = true
			o, err := r.outcome(reply.Plan.Cells[r.ID])
			if err != nil {
				return nil, err
			}
			reply.Outcomes[r.ID] = o
			groups[r.ID] = r.Records
			seen++
			if onResult != nil {
				onResult(r)
			}
		case FrameError:
			return nil, fmt.Errorf("shard: daemon error: %s", f.Error)
		case FrameDone:
			if f.Done == nil {
				return nil, fmt.Errorf("shard: done frame without its counts")
			}
			if seen != len(reply.Outcomes) {
				return nil, fmt.Errorf("shard: done after %d of %d cells", seen, len(reply.Outcomes))
			}
			reply.Done = *f.Done
			reply.Journal = MergeJournal(reply.Plan, groups, *f.Done)
			return reply, nil
		default:
			return nil, fmt.Errorf("shard: unexpected %q frame in result stream", f.Type)
		}
	}
}

// Report converts the reply into a regress.Report so every downstream
// renderer — table, summary, JUnit, certification bundle — works
// unchanged on a sharded run.
func (r *Reply) Report() *regress.Report {
	return &regress.Report{Label: r.Plan.Label, Outcomes: r.Outcomes}
}

// MergeJournal reassembles the canonical flight record from per-cell
// record groups. Emission order in a live multi-process run is whatever
// the scheduler did; the merge instead lays cells out in dispatch
// order — exactly the order a serial run emits them — with each cell's
// own records ordered by its worker's local sequence, then resequences
// the whole stream. The result is deterministic per plan: masked, it is
// byte-identical to the serial run's masked journal, which is the
// paper's reproducibility check extended across process boundaries.
func MergeJournal(plan *Plan, groups [][]journal.Record, done Done) []journal.Record {
	out := []journal.Record{{
		Kind: journal.KindHeader, Version: journal.Version,
		Label: plan.Label, Epoch: plan.Epoch, Workers: plan.Workers,
		Cells: len(plan.Cells), Engine: "advm",
	}}
	order := plan.Order()
	for _, i := range order {
		c := plan.Cells[i]
		out = append(out, journal.Record{Kind: journal.KindSchedule,
			Module: c.Module, Test: c.Test, Deriv: c.Deriv, Platform: c.Platform})
	}
	for _, i := range order {
		if i < 0 || i >= len(groups) {
			continue
		}
		g := append([]journal.Record(nil), groups[i]...)
		sort.SliceStable(g, func(a, b int) bool { return g[a].Seq < g[b].Seq })
		out = append(out, g...)
	}
	out = append(out, journal.Record{
		Kind: journal.KindEnd, Passed: done.Passed, Failed: done.Failed,
		Broken: done.Broken, Flaky: done.Flaky, WallNs: done.WallNs,
	})
	return journal.Resequence(out)
}
