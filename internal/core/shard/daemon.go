package shard

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net"
	"os/exec"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core/derivative"
	"repro/internal/core/history"
	"repro/internal/core/journal"
	"repro/internal/core/memo"
	"repro/internal/core/regress"
	"repro/internal/core/release"
	"repro/internal/core/resilience"
	"repro/internal/core/sysenv"
	"repro/internal/core/vet"
	"repro/internal/platform"
)

// DefaultRequestTimeout bounds how long an accepted connection may sit
// idle before its first frame; DefaultPing is the heartbeat interval
// remote workers commit to when they don't choose their own, and
// pingMissFactor is how many missed heartbeats declare a machine dead.
const (
	DefaultRequestTimeout = 30 * time.Second
	DefaultPing           = 2 * time.Second
	pingMissFactor        = 4
)

// Daemon shards regression requests across a pool of workers: local
// worker processes it spawns itself, plus any remote workers that
// register over TCP (advm-served -connect). It owns the matrix-level
// decisions — freezing the release label, running the vet preflight
// once, enumerating cells, dispatching longest-expected-first from its
// history store — and leaves each cell's build and run to a worker.
//
// Requests are concurrent: every request feeds the same dispatch queue
// and the pool interleaves cells from all active requests, with results
// routed back to their request by (request ID, cell ID). Each request's
// journal merge is unchanged — per-cell record groups laid out in that
// request's dispatch order — so the masked journal stays byte-identical
// to a serial run regardless of what else shared the pool.
//
// Crash isolation is the point of the process boundary: a local worker
// that dies (OOM, a platform model segfaulting through cgo, a kill -9)
// costs exactly its in-flight cell, which is reported broken while a
// replacement worker takes over the queue. A remote machine that
// vanishes (network partition, power loss) is detected by missed
// heartbeats and costs only its in-flight cells; the local pool is the
// liveness floor that always drains the queue.
type Daemon struct {
	// NewSystem constructs the daemon's module environments (for
	// freezing, vet, and enumeration — the daemon never builds a cell).
	NewSystem func() *sysenv.System
	// Workers is the local worker-process pool size (minimum 1 — the
	// local pool guarantees the dispatch queue always drains even if
	// every remote machine vanishes).
	Workers int
	// WorkerCommand builds the command for worker process id. The
	// command must speak the job/result protocol on stdin/stdout —
	// normally the daemon binary re-executing itself with a -worker
	// flag.
	WorkerCommand func(id int) *exec.Cmd
	// History, when non-nil, orders dispatch longest-expected-first and
	// learns each completed cell's times (saved after every request).
	History *history.Store
	// Store, when non-nil, is served to store-role connections so
	// remote workers warm-start from (and fill back) the daemon's
	// persistent artifact store.
	Store memo.Backend
	// RequestTimeout bounds how long an accepted connection may sit
	// idle before its first frame (0 = DefaultRequestTimeout). An idle
	// client costs one connection, never the service.
	RequestTimeout time.Duration
	// Logf, when non-nil, receives daemon progress lines.
	Logf func(format string, args ...any)

	mu         sync.Mutex // guards started/closed, remotes, epoch, label
	started    bool
	closed     bool
	helloEpoch string
	remotes    map[string]*remoteWorker
	label      *release.SystemLabel // the last request label frozen

	queue  chan *task
	quit   chan struct{}
	wg     sync.WaitGroup // slot + remote loops
	reqSeq atomic.Uint64
	slots  atomic.Int64 // pool size, for Plan.Workers
}

// task is one cell queued for dispatch: the job plus the owning
// request's reply channel (buffered for the whole request, so no
// consumer ever blocks delivering a result).
type task struct {
	job  *Job
	done chan *Result
}

// workerProc is one live local worker process.
type workerProc struct {
	id    int
	cmd   *exec.Cmd
	stdin io.WriteCloser
	conn  *Conn
}

// remoteWorker is one registered remote worker connection.
type remoteWorker struct {
	name string
	nc   net.Conn
	conn *Conn
	ping time.Duration
	// frames carries non-ping frames from the reader goroutine; dead
	// closes when the connection errors or misses its heartbeats.
	frames chan Frame
	dead   chan struct{}
	err    atomic.Value // error string once dead
}

func (d *Daemon) logf(format string, args ...any) {
	if d.Logf != nil {
		d.Logf(format, args...)
	}
}

func (d *Daemon) requestTimeout() time.Duration {
	if d.RequestTimeout > 0 {
		return d.RequestTimeout
	}
	return DefaultRequestTimeout
}

// freeze freezes a request's system with release.Freeze — the recipe
// the workers use too, so both sides derive the epoch the same way — and
// returns the daemon's kept label instead when it has the same name and
// epoch. The kept label memoises the analysis of its content, so a warm
// daemon analyses an epoch once rather than in every request's plan
// step. The daemon keeps one label: the last one it froze.
func (d *Daemon) freeze(name string, sys *sysenv.System) (*release.SystemLabel, error) {
	l, err := release.Freeze(name, sys)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if kept := d.label; kept != nil && kept.Name == l.Name && kept.Epoch() == l.Epoch() {
		return kept, nil
	}
	d.label = l
	return l, nil
}

// spawn starts worker process id and wires its pipes.
func (d *Daemon) spawn(id int) (*workerProc, error) {
	cmd := d.WorkerCommand(id)
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d.logf("worker %d: pid %d", id, cmd.Process.Pid)
	return &workerProc{id: id, cmd: cmd, stdin: stdin, conn: NewConn(stdout, stdin)}, nil
}

// Start spawns the local worker pool and the dispatch machinery.
func (d *Daemon) Start() error {
	if d.NewSystem == nil {
		return fmt.Errorf("shard: daemon needs a NewSystem constructor")
	}
	if d.WorkerCommand == nil {
		return fmt.Errorf("shard: daemon needs a WorkerCommand")
	}
	label, err := release.Freeze(HelloLabel, d.NewSystem())
	if err != nil {
		return fmt.Errorf("shard: freeze probe label: %w", err)
	}
	n := d.Workers
	if n < 1 {
		n = 1
	}
	procs := make([]*workerProc, n)
	for i := 0; i < n; i++ {
		w, err := d.spawn(i)
		if err != nil {
			for _, p := range procs {
				if p != nil {
					p.stdin.Close()
					p.cmd.Wait()
				}
			}
			return fmt.Errorf("shard: spawn worker %d: %w", i, err)
		}
		procs[i] = w
	}
	d.mu.Lock()
	d.started = true
	d.helloEpoch = label.Epoch()
	d.remotes = make(map[string]*remoteWorker)
	d.mu.Unlock()
	d.queue = make(chan *task)
	d.quit = make(chan struct{})
	d.slots.Store(int64(n))
	for i, w := range procs {
		d.wg.Add(1)
		go d.slotLoop(i, w)
	}
	return nil
}

// Close shuts the pool down: it signals every slot and remote loop to
// stop and waits for them, so it synchronises with any in-flight
// request (active requests observe the quit signal and fail their
// clients cleanly; no loop touches a worker process after Close
// returns). Each slot loop closes its own worker's stdin — the
// protocol's EOF — so workers exit cleanly and are reaped.
func (d *Daemon) Close() {
	d.mu.Lock()
	if !d.started || d.closed {
		d.mu.Unlock()
		return
	}
	d.closed = true
	remotes := make([]*remoteWorker, 0, len(d.remotes))
	for _, rw := range d.remotes {
		remotes = append(remotes, rw)
	}
	d.mu.Unlock()
	close(d.quit)
	// Unblock remote reader goroutines parked in conn.Read.
	for _, rw := range remotes {
		rw.nc.Close()
	}
	d.wg.Wait()
}

// PoolSize reports the current dispatch pool size: local slots plus
// registered remote workers. Plans stamp it as Plan.Workers.
func (d *Daemon) PoolSize() int { return int(d.slots.Load()) }

// slotLoop is one local pool slot: it owns its worker process (no other
// goroutine touches it — the ownership is what makes Close race-free),
// drains the shared dispatch queue, and respawns the worker after a
// crash. If a respawn fails the slot keeps draining, breaking its share
// of the queue, so every request still produces a full matrix.
func (d *Daemon) slotLoop(slot int, w *workerProc) {
	defer d.wg.Done()
	defer func() {
		if w != nil {
			w.stdin.Close()
			w.cmd.Wait()
		}
	}()
	for {
		select {
		case <-d.quit:
			return
		case t := <-d.queue:
			if w == nil {
				// A previous respawn failed; try again per task so a
				// transient fork failure doesn't disable the slot for
				// the daemon's lifetime.
				if nw, err := d.spawn(slot); err == nil {
					w = nw
				} else {
					d.logf("respawn worker %d: %v", slot, err)
					t.done <- brokenResult(slot, t.job, "worker unavailable: respawn failed")
					continue
				}
			}
			res, err := runOn(w, t.job)
			if err != nil {
				d.logf("worker %d crashed on %s: %v", slot, t.job.Cell, err)
				res = brokenResult(slot, t.job, "worker crashed: "+err.Error())
				w.stdin.Close()
				w.cmd.Wait()
				w = nil
				if nw, serr := d.spawn(slot); serr != nil {
					d.logf("respawn worker %d: %v", slot, serr)
				} else {
					w = nw
				}
			}
			t.done <- res
		}
	}
}

// Serve accepts connections until the listener closes. Every connection
// is handled on its own goroutine — a wedged or malicious peer costs
// one connection, never the accept loop — and sorted by its first
// frame: a request frame is a client regression, a hello frame
// registers a remote worker or opens a store channel.
func (d *Daemon) Serve(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		go d.handleConn(conn)
	}
}

// handleConn reads the connection's first frame under the request-read
// deadline and dispatches on it.
func (d *Daemon) handleConn(nc net.Conn) {
	conn := NewConn(nc, nc)
	nc.SetReadDeadline(time.Now().Add(d.requestTimeout()))
	f, err := conn.Read()
	if err != nil {
		d.logf("read request: %v", err)
		nc.Close()
		return
	}
	nc.SetReadDeadline(time.Time{})
	switch {
	case f.Type == FrameRequest && f.Request != nil:
		defer nc.Close()
		d.handleRequest(conn, f.Request)
	case f.Type == FrameHello && f.Hello != nil && f.Hello.Role == RoleWorker:
		d.handleWorkerConn(nc, conn, f.Hello)
	case f.Type == FrameHello && f.Hello != nil && f.Hello.Role == RoleStore:
		defer nc.Close()
		d.handleStoreConn(nc, conn, f.Hello)
	default:
		conn.Write(Frame{Type: FrameError,
			Error: fmt.Sprintf("shard: expected a request or hello frame, got %q", f.Type)})
		nc.Close()
	}
}

// handshake cross-checks a hello's probe epoch against the daemon's and
// answers with a welcome. A worker whose content disagrees with the
// daemon's is refused at the door: every job it could run would fail
// the per-job epoch check anyway, so fail loudly at registration.
func (d *Daemon) handshake(conn *Conn, h *Hello) error {
	d.mu.Lock()
	epoch := d.helloEpoch
	d.mu.Unlock()
	if h.Role == RoleWorker && h.Epoch != epoch {
		err := fmt.Errorf("shard: epoch mismatch at registration: remote froze %s, daemon froze %s",
			h.Epoch, epoch)
		conn.Write(Frame{Type: FrameError, Error: err.Error()})
		return err
	}
	return conn.Write(Frame{Type: FrameWelcome, Welcome: &Welcome{Epoch: epoch}})
}

// handleWorkerConn registers a remote worker connection and runs its
// dispatch loop until the machine vanishes or the daemon closes.
func (d *Daemon) handleWorkerConn(nc net.Conn, conn *Conn, h *Hello) {
	if err := d.handshake(conn, h); err != nil {
		d.logf("remote worker %s refused: %v", h.Name, err)
		nc.Close()
		return
	}
	ping := time.Duration(h.PingNs)
	if ping <= 0 {
		ping = DefaultPing
	}
	name := h.Name
	if name == "" {
		name = nc.RemoteAddr().String()
	}
	rw := &remoteWorker{name: name, nc: nc, conn: conn, ping: ping,
		frames: make(chan Frame, 4), dead: make(chan struct{})}
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		nc.Close()
		return
	}
	// Names index the registry; a re-registering name displaces nothing
	// (the old connection's loop still owns its entry until it dies), so
	// disambiguate. The wg.Add happens under the same lock as the closed
	// check, so Close either waits for this loop or this registration
	// observes closed — never a loop Close doesn't know about.
	for d.remotes[name] != nil {
		name += "+"
	}
	rw.name = name
	d.remotes[name] = rw
	d.wg.Add(1)
	d.slots.Add(1)
	d.mu.Unlock()
	d.logf("remote worker %s joined (ping %s)", rw.name, rw.ping)
	go func() {
		defer d.wg.Done()
		defer func() {
			d.slots.Add(-1)
			d.mu.Lock()
			delete(d.remotes, rw.name)
			d.mu.Unlock()
			nc.Close()
			d.logf("remote worker %s left: %v", rw.name, rw.err.Load())
		}()
		go rw.readLoop()
		d.remoteLoop(rw)
	}()
}

// readLoop pulls frames off the remote connection under a heartbeat
// deadline: each frame (pings included) refreshes the deadline, and a
// deadline expiry — pingMissFactor missed heartbeats — declares the
// machine dead. Pings are drained here so an idle worker's heartbeats
// never back up the socket.
func (rw *remoteWorker) readLoop() {
	defer close(rw.dead)
	for {
		rw.nc.SetReadDeadline(time.Now().Add(pingMissFactor * rw.ping))
		f, err := rw.conn.Read()
		if err != nil {
			rw.err.Store(fmt.Sprintf("connection lost: %v", err))
			return
		}
		if f.Type == FramePing {
			continue
		}
		select {
		case rw.frames <- f:
		case <-time.After(pingMissFactor * rw.ping):
			rw.err.Store("protocol desync: unconsumed frame")
			return
		}
	}
}

// remoteLoop drains the shared dispatch queue onto one remote worker.
// A machine that vanishes mid-cell costs exactly that cell (reported
// broken, like a local crash) and the loop exits — queued cells are
// picked up by the rest of the pool.
func (d *Daemon) remoteLoop(rw *remoteWorker) {
	for {
		select {
		case <-d.quit:
			return
		case <-rw.dead:
			return
		case t := <-d.queue:
			res, err := d.runOnRemote(rw, t.job)
			if err != nil {
				d.logf("remote worker %s lost on %s: %v", rw.name, t.job.Cell, err)
				t.done <- brokenResult(-1, t.job, "remote worker lost: "+err.Error())
				return
			}
			t.done <- res
		}
	}
}

// runOnRemote sends one job to a remote worker and waits for its result
// frame, bounded by the heartbeat deadline the read loop enforces.
func (d *Daemon) runOnRemote(rw *remoteWorker, job *Job) (*Result, error) {
	if err := rw.conn.Write(Frame{Type: FrameJob, Job: job}); err != nil {
		return nil, err
	}
	select {
	case <-rw.dead:
		if s, ok := rw.err.Load().(string); ok {
			return nil, fmt.Errorf("%s", s)
		}
		return nil, fmt.Errorf("remote worker died")
	case f := <-rw.frames:
		res, err := checkResult(f, job)
		if err != nil {
			rw.err.Store(err.Error())
			rw.nc.Close() // poison the connection: the stream is desynced
			return nil, err
		}
		return res, nil
	}
}

// handleStoreConn serves Get/Put against the daemon's persistent store
// over one connection until EOF. Payload checksums are verified on
// receipt and stamped on replies, so a transport bit-flip degrades to a
// miss on the far side, never a wrong artifact.
func (d *Daemon) handleStoreConn(nc net.Conn, conn *Conn, h *Hello) {
	if err := d.handshake(conn, h); err != nil {
		return
	}
	d.logf("store channel open for %s", nc.RemoteAddr())
	for {
		f, err := conn.Read()
		if err != nil {
			return
		}
		reply := &StoreFrame{}
		switch {
		case f.Type == FramePing:
			continue
		case f.Type == FrameStoreGet && f.Store != nil:
			reply.Key = f.Store.Key
			if d.Store != nil {
				if data, ok := d.Store.Get(f.Store.Key); ok {
					reply.Data, reply.Sum, reply.OK = data, payloadSum(data), true
				}
			}
		case f.Type == FrameStorePut && f.Store != nil:
			reply.Key = f.Store.Key
			switch {
			case d.Store == nil:
				reply.Err = "daemon has no persistent store"
			case payloadSum(f.Store.Data) != f.Store.Sum:
				reply.Err = "payload checksum mismatch in transit"
			case d.Store.Put(f.Store.Key, f.Store.Data) != nil:
				reply.Err = "store put failed"
			default:
				reply.OK = true
			}
		default:
			conn.Write(Frame{Type: FrameError,
				Error: fmt.Sprintf("shard: unexpected %q frame on store channel", f.Type)})
			return
		}
		if err := conn.Write(Frame{Type: FrameStoreData, Store: reply}); err != nil {
			return
		}
	}
}

// payloadSum is the transport checksum store frames carry.
func payloadSum(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// handleRequest serves one client regression: request in, plan + result
// stream + done out. Pre-flight failures (bad names, vet findings,
// unfrozen content) are an error frame, not a half-run matrix. Requests
// run concurrently; the shared pool interleaves their cells.
func (d *Daemon) handleRequest(conn *Conn, req *Request) {
	fail := func(err error) {
		d.logf("request failed: %v", err)
		conn.Write(Frame{Type: FrameError, Error: err.Error()})
	}
	d.mu.Lock()
	ready := d.started && !d.closed
	d.mu.Unlock()
	if !ready {
		fail(fmt.Errorf("shard: daemon is not serving"))
		return
	}
	if req.Label == "" {
		fail(fmt.Errorf("shard: request needs a label"))
		return
	}
	start := time.Now()
	plan, keys, kindNames, err := d.plan(req)
	if err != nil {
		fail(err)
		return
	}
	if err := conn.Write(Frame{Type: FramePlan, Plan: plan}); err != nil {
		d.logf("write plan: %v", err)
		return
	}
	reqID := d.reqSeq.Add(1)
	d.logf("request %d %s: %d cells across %d workers", reqID, req.Label, len(plan.Cells), plan.Workers)

	// Dispatch: feed the shared queue in plan order and collect results
	// as the pool completes them. The results channel is buffered for
	// the whole request, so pool loops never block on a slow client.
	order := plan.Order()
	results := make(chan *Result, len(order))
	go func() {
		for _, idx := range order {
			t := &task{
				job: &Job{
					ID: idx, Req: reqID, Label: req.Label, Epoch: plan.Epoch,
					Cell:            plan.Cells[idx],
					MaxInstructions: req.MaxInstructions,
					MaxCycles:       req.MaxCycles,
					Engine:          req.Engine,
				},
				done: results,
			}
			select {
			case d.queue <- t:
			case <-d.quit:
				// The pool is gone; answer the remaining cells
				// ourselves so the collector can finish.
				results <- brokenResult(-1, t.job, "daemon shutting down")
			}
		}
	}()
	var done Done
	for received := 0; received < len(order); received++ {
		res := <-results
		o := res.Outcome
		switch {
		case o.BuildErr != "":
			done.Broken++
		case o.Passed:
			done.Passed++
		default:
			done.Failed++
		}
		if o.Flaky {
			done.Flaky++
		}
		if d.History != nil && o.Attempts > 0 && !o.RunCached && o.BuildErr == "" {
			status := journal.StatusFailed
			switch {
			case o.Flaky:
				status = journal.StatusFlaky
			case o.Passed:
				status = journal.StatusPassed
			}
			d.History.Record(keys[res.ID], kindNames[res.ID], o.BuildNanos, o.RunNanos, status)
		}
		if err := conn.Write(Frame{Type: FrameResult, Result: res}); err != nil {
			d.logf("write result: %v", err)
		}
	}
	if d.History != nil {
		if err := d.History.Save(); err != nil {
			d.logf("history save: %v", err)
		}
	}
	done.WallNs = time.Since(start).Nanoseconds()
	if err := conn.Write(Frame{Type: FrameDone, Done: &done}); err != nil {
		d.logf("write done: %v", err)
	}
	d.logf("request %d %s: %d passed, %d failed, %d broken in %s",
		reqID, req.Label, done.Passed, done.Failed, done.Broken, time.Duration(done.WallNs))
}

// plan is the matrix-level setup of one request: resolve names, freeze,
// preflight, enumerate, order. keys and kindNames are each cell's
// history key and platform name, in plan order.
func (d *Daemon) plan(req *Request) (plan *Plan, keys, kindNames []string, err error) {
	var derivs []*derivative.Derivative
	for _, name := range req.Derivs {
		dv, err := derivative.ByName(name)
		if err != nil {
			return nil, nil, nil, err
		}
		derivs = append(derivs, dv)
	}
	var kinds []platform.Kind
	for _, name := range req.Platforms {
		k, err := ParseKind(name)
		if err != nil {
			return nil, nil, nil, err
		}
		kinds = append(kinds, k)
	}
	if _, err := platform.ParseEngine(req.Engine); err != nil {
		return nil, nil, nil, err
	}
	sys := d.NewSystem()
	label, err := d.freeze(req.Label, sys)
	if err != nil {
		return nil, nil, nil, err
	}
	if !req.SkipVet {
		opts := vet.NewOptions()
		if len(derivs) > 0 {
			opts.Derivatives = derivs
		}
		if _, err := release.Preflight(sys, label, opts); err != nil {
			return nil, nil, nil, err
		}
	}
	cells, err := regress.EnumerateCells(sys, regress.Spec{
		Derivatives: derivs, Kinds: kinds,
		Modules: req.Modules, Tests: req.Tests,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	plan = &Plan{
		Label: req.Label, Epoch: label.Epoch(), Workers: int(d.slots.Load()),
		Cells: make([]CellID, len(cells)),
	}
	keys = make([]string, len(cells))
	kindNames = make([]string, len(cells))
	for i, c := range cells {
		plan.Cells[i] = CellID{Module: c.Module, Test: c.Test,
			Deriv: c.Deriv.Name, Platform: c.Kind.String()}
		keys[i] = resilience.CellKey(c.Module, c.Test, c.Deriv.Name, c.Kind)
		kindNames[i] = c.Kind.String()
	}
	if d.History != nil {
		plan.Dispatch = d.History.Order(keys, kindNames)
	}
	return plan, keys, kindNames, nil
}

// runOn sends one job to a local worker and waits for its result. Any
// transport error — including the worker dying mid-cell — is returned
// for the caller to translate into a broken cell.
func runOn(w *workerProc, job *Job) (*Result, error) {
	if err := w.conn.Write(Frame{Type: FrameJob, Job: job}); err != nil {
		return nil, err
	}
	f, err := w.conn.Read()
	if err != nil {
		return nil, err
	}
	return checkResult(f, job)
}

// checkResult validates that a frame is the result for exactly the job
// in flight: with concurrent requests sharing the pool, a worker that
// echoes the wrong (request, cell) pair has desynced its stream and
// must be treated as crashed, never routed to the wrong request.
func checkResult(f Frame, job *Job) (*Result, error) {
	if f.Type != FrameResult || f.Result == nil {
		return nil, fmt.Errorf("shard: worker sent %q, want result", f.Type)
	}
	if f.Result.Req != job.Req || f.Result.ID != job.ID {
		return nil, fmt.Errorf("shard: worker answered req %d cell %d, want req %d cell %d",
			f.Result.Req, f.Result.ID, job.Req, job.ID)
	}
	return f.Result, nil
}

// brokenResult manufactures the deterministic outcome for a cell whose
// worker died under it, with a synthesized outcome record so the merged
// flight record still closes every cell.
func brokenResult(worker int, job *Job, msg string) *Result {
	return &Result{ID: job.ID, Req: job.Req, Worker: worker,
		Outcome: Outcome{
			Module: job.Cell.Module, Test: job.Cell.Test,
			Derivative: job.Cell.Deriv, Platform: job.Cell.Platform,
			BuildErr: msg,
		},
		Records: []journal.Record{{
			Kind: journal.KindOutcome, Module: job.Cell.Module, Test: job.Cell.Test,
			Deriv: job.Cell.Deriv, Platform: job.Cell.Platform,
			Status: journal.StatusBroken, BuildErr: msg,
		}},
	}
}
