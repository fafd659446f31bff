// Package shard lifts the regression matrix across the process
// boundary: a serialisable cell-job protocol, a daemon that shards
// cells over N worker processes, and a client that reassembles their
// streamed results into the same report and flight record the
// in-process pool produces.
//
// A cell's result travels as its journal records alone: the daemon's
// tally and the client's report read it back from its one outcome record.
//
// The protocol is JSONL frames over any byte stream — a unix or TCP
// socket between client and daemon, a TCP socket between the daemon and
// a remote worker, and a socket pair (the worker's stdin and stdout)
// between the daemon and a local worker process. One frame type per
// line, tagged by "type":
//
//	client → daemon:  request
//	daemon → client:  plan, result*, done   (or error)
//	worker → daemon:  hello{role,version,epoch,ping}, then ping* interleaved with result*
//	daemon → worker:  welcome{epoch} (or error, and close), then job*
//
// Every worker, local process or remote machine, registers the same way:
// its hello carries its journal version and the epoch of a frozen probe
// label, both checked at the door (a client checks a plan's version), and
// its pings let the daemon tell a long-running cell from a lost worker.
// A hello with role "store" instead opens a fetch-through channel to the
// daemon's persistent artifact store:
//
//	store:            hello{role}, welcome, then store-get/store-put in, store-data out
//
// Every job carries the frozen-spec epoch — the content hash of the
// module environments the daemon froze — and the worker refuses a job
// whose epoch its own frozen system does not reproduce: two processes
// that disagree about the source content must fail loudly, not compare
// incomparable runs. Per-cell isolation falls out of the process
// boundary: a crashed, wedged or vanished worker costs its in-flight cell
// (reported broken, like a panicking platform in the in-process pool),
// and the daemon respawns a local worker for the rest of the queue.
package shard

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"repro/internal/core/journal"
	"repro/internal/core/regress"
)

// Frame type tags.
const (
	FrameRequest = "request"
	FramePlan    = "plan"
	FrameJob     = "job"
	FrameResult  = "result"
	FrameDone    = "done"
	FrameError   = "error"
	// Registration frames: a worker or store connection introduces
	// itself with a hello (role + frozen probe epoch), the daemon answers
	// with a welcome, and a worker pings periodically so a lost worker is
	// distinguishable from a long-running cell.
	FrameHello   = "hello"
	FrameWelcome = "welcome"
	FramePing    = "ping"
	// Store frames: Get/Put against the daemon's persistent artifact
	// store, multiplexed over a dedicated store-role connection.
	FrameStoreGet  = "store-get"
	FrameStorePut  = "store-put"
	FrameStoreData = "store-data"
)

// Connection roles a hello frame can announce.
const (
	// RoleWorker joins the daemon's dispatch pool: the daemon writes
	// job frames at the connection and reads result frames (and pings)
	// back.
	RoleWorker = "worker"
	// RoleStore opens a fetch-through channel to the daemon's
	// persistent artifact store: store-get/store-put in, store-data out.
	RoleStore = "store"
)

// HelloLabel is the well-known release-label name both sides of a
// registration freeze to cross-check content at handshake time, before
// any request label exists. Epochs are content hashes over the frozen
// module environments, so two processes that agree on this probe epoch
// will agree on every per-request epoch too.
const HelloLabel = "advm-fleet-hello"

// Frame is the one-of JSONL envelope: Type selects which payload field
// is set.
type Frame struct {
	Type    string      `json:"type"`
	Request *Request    `json:"request,omitempty"`
	Plan    *Plan       `json:"plan,omitempty"`
	Job     *Job        `json:"job,omitempty"`
	Result  *Result     `json:"result,omitempty"`
	Done    *Done       `json:"done,omitempty"`
	Error   string      `json:"error,omitempty"`
	Hello   *Hello      `json:"hello,omitempty"`
	Welcome *Welcome    `json:"welcome,omitempty"`
	Store   *StoreFrame `json:"store,omitempty"`
}

// Hello registers a worker or store connection with the daemon. Epoch is
// the sender's frozen probe epoch under HelloLabel; the daemon refuses a
// worker whose content disagrees with its own at the door, instead of
// per-job after cells have been planned onto it.
type Hello struct {
	Role string `json:"role"`
	// Name identifies the worker in daemon logs.
	Name string `json:"name,omitempty"`
	// Version is the journal.Version of the worker's result records.
	Version int    `json:"version,omitempty"`
	Epoch   string `json:"epoch,omitempty"`
	// PingNs is the heartbeat interval the worker commits to. The
	// daemon declares the worker dead after missing several of them.
	PingNs int64 `json:"ping_ns,omitempty"`
}

// Welcome acknowledges a hello, echoing the daemon's own probe epoch.
type Welcome struct {
	Epoch string `json:"epoch,omitempty"`
}

// StoreFrame carries one store operation or its reply. Sum is the hex
// SHA-256 of Data, verified on receipt in both directions: the store's
// keys are content addresses over *inputs*, so the payload needs its
// own transport checksum.
type StoreFrame struct {
	Key  string `json:"key"`
	Data []byte `json:"data,omitempty"`
	Sum  string `json:"sum,omitempty"`
	OK   bool   `json:"ok,omitempty"`
	Err  string `json:"err,omitempty"`
}

// Request asks the daemon for one regression matrix. Selections are
// by name (the client may not share memory with the daemon); empty
// slices mean the matrix defaults (whole family, all platforms, all
// modules and tests).
type Request struct {
	// Label is the release-label name the daemon freezes the matrix
	// under.
	Label     string   `json:"label"`
	Derivs    []string `json:"derivs,omitempty"`
	Platforms []string `json:"platforms,omitempty"`
	Modules   []string `json:"modules,omitempty"`
	Tests     []string `json:"tests,omitempty"`
	// MaxInstructions and MaxCycles bound each cell's run.
	MaxInstructions uint64 `json:"max_instructions,omitempty"`
	MaxCycles       uint64 `json:"max_cycles,omitempty"`
	// Engine names the simulator execution engine (empty = default).
	Engine string `json:"engine,omitempty"`
	// SkipVet disables the daemon's static-analysis preflight gate.
	SkipVet bool `json:"skip_vet,omitempty"`
}

// CellID names one matrix cell on the wire.
type CellID struct {
	Module   string `json:"module"`
	Test     string `json:"test"`
	Deriv    string `json:"deriv"`
	Platform string `json:"platform"`
}

// String renders the resilience CellKey format.
func (c CellID) String() string {
	return c.Module + "/" + c.Test + "@" + c.Deriv + "/" + c.Platform
}

// Plan is the daemon's answer to a request, sent before any cell runs:
// the journal format version of the results to come, the frozen epoch,
// the worker count, the deterministic cell enumeration, and the dispatch
// permutation (longest-expected-first when the daemon's history store is
// warm, identity when cold).
type Plan struct {
	Version  int      `json:"version"`
	Label    string   `json:"label"`
	Epoch    string   `json:"epoch"`
	Workers  int      `json:"workers"`
	Cells    []CellID `json:"cells"`
	Dispatch []int    `json:"dispatch,omitempty"`
}

// Order returns the dispatch permutation, defaulting to enumeration
// order.
func (p *Plan) Order() []int {
	if len(p.Dispatch) == len(p.Cells) {
		return p.Dispatch
	}
	order := make([]int, len(p.Cells))
	for i := range order {
		order[i] = i
	}
	return order
}

// Job dispatches one cell to a worker process.
type Job struct {
	// ID is the cell's enumeration index in the plan.
	ID int `json:"id"`
	// Req is the daemon-assigned request ID the cell belongs to. With
	// concurrent requests interleaving across one pool, the worker
	// echoes it into the result and the daemon routes the result back
	// to its request by (Req, ID) — a mismatched echo is a protocol
	// desync and treated like a crash.
	Req   uint64 `json:"req,omitempty"`
	Label string `json:"label"`
	// Epoch is the daemon's frozen-spec epoch; the worker verifies its
	// own frozen system reproduces it before running.
	Epoch           string `json:"epoch"`
	Cell            CellID `json:"cell"`
	MaxInstructions uint64 `json:"max_instructions,omitempty"`
	MaxCycles       uint64 `json:"max_cycles,omitempty"`
	Engine          string `json:"engine,omitempty"`
}

// Result reports one completed cell as its journal records
// (start/cache-hit/outcome and any retries), each stamped with the
// worker's local sequence — the (worker, seq) pair the client merges by.
type Result struct {
	ID int `json:"id"`
	// Req echoes the job's request ID (see Job.Req).
	Req uint64 `json:"req,omitempty"`
	// Worker is the pool-unique ID the daemon assigned the worker that
	// ran the cell (-1 for a cell no worker ran).
	Worker  int              `json:"worker"`
	Records []journal.Record `json:"records,omitempty"`
}

// outcome reads the cell's outcome back from the result's records, which
// must hold exactly one outcome record, naming cell.
func (r *Result) outcome(cell CellID) (regress.Outcome, error) {
	var rec *journal.Record
	for i := range r.Records {
		if r.Records[i].Kind != journal.KindOutcome {
			continue
		}
		if rec != nil {
			return regress.Outcome{}, fmt.Errorf("shard: result for cell %d carries two outcome records", r.ID)
		}
		rec = &r.Records[i]
	}
	switch {
	case rec == nil:
		return regress.Outcome{}, fmt.Errorf("shard: result for cell %d carries no outcome record", r.ID)
	case rec.CellID() != cell.String():
		return regress.Outcome{}, fmt.Errorf("shard: result for cell %d (%s) carries the outcome of %q",
			r.ID, cell, rec.CellID())
	}
	return regress.OutcomeFromRecord(*rec)
}

// Done closes a daemon's result stream with the verdict counts.
type Done struct {
	Passed int   `json:"passed"`
	Failed int   `json:"failed"`
	Broken int   `json:"broken"`
	Flaky  int   `json:"flaky"`
	WallNs int64 `json:"wall_ns"`
}

// Conn frames JSONL messages over a byte stream. Writes are mutexed so
// concurrent senders (the daemon's worker loops share the client
// connection) interleave whole frames, never bytes. Reads are
// single-consumer.
type Conn struct {
	wmu sync.Mutex
	w   *bufio.Writer
	sc  *bufio.Scanner
}

// NewConn wraps a read and a write stream (one net.Conn, or a pipe
// pair).
func NewConn(r io.Reader, w io.Writer) *Conn {
	sc := bufio.NewScanner(r)
	// Result frames carry journal records and console detail; a frame
	// is bounded far below this, but be generous.
	sc.Buffer(make([]byte, 0, 64*1024), 1<<24)
	return &Conn{w: bufio.NewWriter(w), sc: sc}
}

// Write sends one frame, flushed immediately — the protocol streams.
func (c *Conn) Write(f Frame) error {
	data, err := json.Marshal(f)
	if err != nil {
		return fmt.Errorf("shard: encode %s frame: %w", f.Type, err)
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if _, err := c.w.Write(append(data, '\n')); err != nil {
		return err
	}
	return c.w.Flush()
}

// Read receives the next frame; io.EOF at a clean end of stream.
func (c *Conn) Read() (Frame, error) {
	for c.sc.Scan() {
		line := c.sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var f Frame
		if err := json.Unmarshal(line, &f); err != nil {
			return Frame{}, fmt.Errorf("shard: malformed frame: %w", err)
		}
		return f, nil
	}
	if err := c.sc.Err(); err != nil {
		return Frame{}, err
	}
	return Frame{}, io.EOF
}
