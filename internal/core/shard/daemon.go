package shard

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net"
	"os"
	"os/exec"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core/derivative"
	"repro/internal/core/history"
	"repro/internal/core/journal"
	"repro/internal/core/memo"
	"repro/internal/core/regress"
	"repro/internal/core/release"
	"repro/internal/core/sysenv"
	"repro/internal/core/vet"
	"repro/internal/platform"
)

// DefaultRequestTimeout bounds how long an accepted connection may sit
// idle before its first frame; DefaultPing is the heartbeat interval
// workers commit to when they don't choose their own, pingMissFactor is
// how many missed heartbeats declare a worker lost, and closeGrace is how
// long Close lets a local worker exit before killing it.
const (
	DefaultRequestTimeout = 30 * time.Second
	DefaultPing           = 2 * time.Second
	pingMissFactor        = 4
	closeGrace            = 5 * time.Second
)

// Daemon shards regression requests across a pool of workers: local
// worker processes it spawns itself, plus any remote workers that
// register over TCP (advm-served -connect). Both join through the same
// hello and heartbeat, and run cells in the same loop. The daemon owns
// the matrix-level decisions — freezing the release label, running the
// vet preflight once, enumerating cells, dispatching
// longest-expected-first from its history store — and leaves each cell's
// build and run to a worker.
//
// Requests are concurrent: every request feeds the same dispatch queue
// and the pool interleaves cells from all active requests, with results
// routed back to their request by (request ID, cell ID). Each request's
// journal merge is unchanged — per-cell record groups laid out in that
// request's dispatch order — so the masked journal stays byte-identical
// to a serial run regardless of what else shared the pool.
//
// Crash isolation is the point of the process boundary: a worker that
// dies (OOM, a platform model segfaulting through cgo, a kill -9),
// wedges, or vanishes with its machine costs exactly its in-flight cell,
// reported broken once its connection closes or its heartbeats stop. A
// lost local worker is respawned; the local pool is the liveness floor
// that always drains the queue.
type Daemon struct {
	// NewSystem constructs the daemon's module environments (for
	// freezing, vet, and enumeration — the daemon never builds a cell).
	NewSystem func() *sysenv.System
	// Workers is the local worker-process pool size (minimum 1 — the
	// local pool guarantees the dispatch queue always drains even if
	// every remote machine vanishes).
	Workers int
	// WorkerCommand builds the command for local worker slot id. The
	// command must serve RunWorker on its stdin/stdout, which the daemon
	// connects to a socket pair — normally the daemon binary
	// re-executing itself with a -worker flag.
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

	mu         sync.Mutex // guards every field up to label
	started    bool
	closed     bool
	helloEpoch string
	members    map[int]*member // the pool, by member ID
	nextID     int
	label      *release.SystemLabel // the last request label frozen

	queue  chan *task
	quit   chan struct{}
	wg     sync.WaitGroup // member loops and local supervisors
	reqSeq atomic.Uint64
}

// task is one cell queued for dispatch: the job plus the owning
// request's reply channel (buffered for the whole request, so no
// consumer ever blocks delivering a result).
type task struct {
	job  *Job
	done chan *Result
}

// member is one registered worker: a local process on its socket pair
// or a remote slot on its TCP connection.
type member struct {
	id   int // pool-unique, stamped on every result the member returns
	name string
	nc   net.Conn
	conn *Conn
	ping time.Duration
	// frames carries non-ping frames from the reader goroutine (a member
	// owes one result at a time); dead closes when the connection fails
	// or misses its heartbeats, after err is set to why.
	frames chan Frame
	dead   chan struct{}
	err    error
}

func (d *Daemon) logf(format string, args ...any) {
	if d.Logf != nil {
		d.Logf(format, args...)
	}
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

// Start spawns the local worker pool and returns once every local worker
// has joined it, so a worker that cannot start fails Start.
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
	d.mu.Lock()
	d.started = true
	d.helloEpoch = label.Epoch()
	d.members = make(map[int]*member)
	d.queue = make(chan *task)
	d.quit = make(chan struct{})
	d.mu.Unlock()
	n := max(d.Workers, 1)
	joined := make(chan error, n)
	for slot := range n {
		d.wg.Add(1)
		go d.supervise(slot, joined)
	}
	for range n {
		err = cmp.Or(err, <-joined)
	}
	if err != nil {
		d.Close()
		return fmt.Errorf("shard: start %w", err)
	}
	return nil
}

// Close shuts the pool down: it signals every loop to stop, closes every
// member's connection (a worker's EOF), and waits for the loops and local
// supervisors, so it synchronises with any in-flight request (active
// requests observe the quit signal and fail their clients cleanly; no
// goroutine touches a worker after Close returns).
func (d *Daemon) Close() {
	d.mu.Lock()
	if !d.started || d.closed {
		d.mu.Unlock()
		return
	}
	d.closed = true
	close(d.quit)
	for _, m := range d.members {
		m.nc.Close()
	}
	d.mu.Unlock()
	d.wg.Wait()
}

// PoolSize reports the number of registered workers, local and remote.
// Plans stamp it as Plan.Workers.
func (d *Daemon) PoolSize() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.members)
}

// supervise owns local slot's worker process, the only local-only code:
// it reports the first join on joined, then kills, reaps and respawns the
// worker whenever its member is lost. While a respawn fails it breaks one
// queued cell per attempt, so every request still produces a full matrix.
func (d *Daemon) supervise(slot int, joined chan<- error) {
	defer d.wg.Done()
	cmd, m, err := d.spawn(slot)
	joined <- err
	for err == nil {
		d.serveMember(m)
		select {
		case <-d.quit:
			reap(cmd, closeGrace)
			return
		default:
			reap(cmd, 0) // lost: crashed, wedged or desynced
		}
		for cmd, m, err = d.spawn(slot); err != nil; cmd, m, err = d.spawn(slot) {
			d.logf("respawn %v", err)
			select {
			case <-d.quit:
				return
			case t := <-d.queue:
				t.done <- brokenResult(-1, t.job, "worker unavailable: respawn failed")
			}
		}
	}
}

// reap waits for a worker whose connection is closed, killing it if it
// is still running after grace.
func reap(cmd *exec.Cmd, grace time.Duration) {
	kill := time.AfterFunc(grace, func() { cmd.Process.Kill() })
	cmd.Wait()
	kill.Stop()
}

// spawn starts slot's worker process on a socket pair and admits it
// through the hello handshake a remote worker passes.
func (d *Daemon) spawn(slot int) (*exec.Cmd, *member, error) {
	fds, err := syscall.Socketpair(syscall.AF_UNIX, syscall.SOCK_STREAM|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		return nil, nil, fmt.Errorf("worker %d: socket pair: %w", slot, err)
	}
	ours, theirs := os.NewFile(uintptr(fds[0]), "worker"), os.NewFile(uintptr(fds[1]), "worker")
	nc, err := net.FileConn(ours)
	ours.Close()
	if err != nil {
		theirs.Close()
		return nil, nil, fmt.Errorf("worker %d: %w", slot, err)
	}
	cmd := d.WorkerCommand(slot)
	cmd.Stdin, cmd.Stdout = theirs, theirs
	err = cmd.Start()
	theirs.Close() // the worker holds its own copy; its exit must read as EOF
	if err != nil {
		nc.Close()
		return nil, nil, fmt.Errorf("worker %d: %w", slot, err)
	}
	conn := NewConn(nc, nc)
	f, err := d.firstFrame(nc, conn)
	if err == nil && (f.Type != FrameHello || f.Hello == nil) {
		err = fmt.Errorf("sent %q, want hello", f.Type)
	}
	var m *member
	if err == nil {
		m, err = d.join(nc, conn, f.Hello, fmt.Sprintf("local/%d", slot))
	}
	if err != nil {
		nc.Close()
		reap(cmd, 0)
		return nil, nil, fmt.Errorf("worker %d: %w", slot, err)
	}
	d.logf("worker %s: pid %d", m.name, cmd.Process.Pid)
	return cmd, m, nil
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

// firstFrame reads a connection's first frame under the request-read
// deadline.
func (d *Daemon) firstFrame(nc net.Conn, conn *Conn) (Frame, error) {
	timeout := d.RequestTimeout
	if timeout <= 0 {
		timeout = DefaultRequestTimeout
	}
	nc.SetReadDeadline(time.Now().Add(timeout))
	defer nc.SetReadDeadline(time.Time{})
	return conn.Read()
}

// handleConn dispatches on a connection's first frame.
func (d *Daemon) handleConn(nc net.Conn) {
	conn := NewConn(nc, nc)
	f, err := d.firstFrame(nc, conn)
	if err != nil {
		d.logf("read request: %v", err)
		nc.Close()
		return
	}
	switch {
	case f.Type == FrameRequest && f.Request != nil:
		defer nc.Close()
		d.handleRequest(conn, f.Request)
	case f.Type == FrameHello && f.Hello != nil && f.Hello.Role == RoleWorker:
		name := cmp.Or(f.Hello.Name, nc.RemoteAddr().String())
		m, err := d.join(nc, conn, f.Hello, name)
		if err != nil {
			d.logf("remote worker %s refused: %v", name, err)
			nc.Close()
			return
		}
		d.logf("remote worker %s joined (ping %s)", m.name, m.ping)
		d.serveMember(m)
	case f.Type == FrameHello && f.Hello != nil && f.Hello.Role == RoleStore:
		defer nc.Close()
		d.handleStoreConn(nc, conn)
	default:
		conn.Write(Frame{Type: FrameError,
			Error: fmt.Sprintf("shard: expected a request or hello frame, got %q", f.Type)})
		nc.Close()
	}
}

// join registers and answers a worker's hello; the caller must run
// serveMember on the member. A worker whose probe epoch disagrees with
// the daemon's is refused at the door: every job it could run would fail
// the per-job epoch check anyway; so is one whose records would not read
// back here (another journal version). The wg.Add shares a lock with
// Close's closed flag, so Close either waits for this member or refuses it.
func (d *Daemon) join(nc net.Conn, conn *Conn, h *Hello, name string) (*member, error) {
	m := &member{name: name, nc: nc, conn: conn, ping: time.Duration(h.PingNs),
		frames: make(chan Frame, 1), dead: make(chan struct{})}
	if m.ping <= 0 {
		m.ping = DefaultPing
	}
	d.mu.Lock()
	epoch := d.helloEpoch
	var err error
	switch {
	case !d.started || d.closed:
		err = fmt.Errorf("shard: daemon is not serving")
	case h.Epoch != epoch:
		err = fmt.Errorf("shard: epoch mismatch at registration: remote froze %s, daemon froze %s",
			h.Epoch, epoch)
	case h.Version != journal.Version:
		err = fmt.Errorf("shard: journal version mismatch at registration: remote speaks %d, daemon %d",
			h.Version, journal.Version)
	default:
		m.id = d.nextID
		d.nextID++
		d.members[m.id] = m
		d.wg.Add(1)
	}
	d.mu.Unlock()
	if err != nil {
		conn.Write(Frame{Type: FrameError, Error: err.Error()})
		return nil, err
	}
	if conn.Write(Frame{Type: FrameWelcome, Welcome: &Welcome{Epoch: epoch}}) != nil {
		nc.Close() // the member's loop finds the connection dead
	}
	return m, nil
}

// serveMember drains the shared dispatch queue onto one member until it
// is lost or the daemon closes. A member lost mid-cell costs exactly that
// cell, reported broken; the rest of the pool drains the queue.
func (d *Daemon) serveMember(m *member) {
	defer d.wg.Done()
	go m.readLoop()
	defer func() {
		d.mu.Lock()
		delete(d.members, m.id)
		d.mu.Unlock()
		m.nc.Close()
		<-m.dead
		d.logf("worker %s left: %v", m.name, m.err)
	}()
	for {
		select {
		case <-d.quit:
			return
		case <-m.dead:
			return
		case t := <-d.queue:
			res, err := m.run(t.job)
			if err != nil {
				d.logf("worker %s lost on %s: %v", m.name, t.job.Cell, err)
				t.done <- brokenResult(m.id, t.job, "worker lost: "+err.Error())
				return
			}
			t.done <- res
		}
	}
}

// readLoop pulls frames off the member's connection under a heartbeat
// deadline: each frame (pings included) refreshes the deadline, and a
// deadline expiry — pingMissFactor missed heartbeats — declares the
// worker lost. Pings are drained here so an idle worker's heartbeats
// never back up the socket.
func (m *member) readLoop() {
	defer close(m.dead)
	for {
		m.nc.SetReadDeadline(time.Now().Add(pingMissFactor * m.ping))
		f, err := m.conn.Read()
		if err != nil {
			m.err = fmt.Errorf("connection lost: %w", err)
			return
		}
		if f.Type == FramePing {
			continue
		}
		select {
		case m.frames <- f:
		case <-time.After(pingMissFactor * m.ping):
			m.err = fmt.Errorf("protocol desync: unconsumed frame")
			return
		}
	}
}

// run sends one job to the member and waits for its result, bounded by
// the heartbeat deadline the read loop enforces. A result for another
// (request, cell) pair is an error too: with concurrent requests sharing
// the pool, it must never be routed to the wrong request. So is one
// without exactly one outcome record naming the job's cell.
func (m *member) run(job *Job) (*Result, error) {
	if err := m.conn.Write(Frame{Type: FrameJob, Job: job}); err != nil {
		return nil, err
	}
	select {
	case <-m.dead:
		return nil, m.err
	case f := <-m.frames:
		if f.Type != FrameResult || f.Result == nil {
			return nil, fmt.Errorf("shard: worker sent %q, want result", f.Type)
		}
		if f.Result.Req != job.Req || f.Result.ID != job.ID {
			return nil, fmt.Errorf("shard: worker answered req %d cell %d, want req %d cell %d",
				f.Result.Req, f.Result.ID, job.Req, job.ID)
		}
		if _, err := f.Result.outcome(job.Cell); err != nil {
			return nil, err
		}
		f.Result.Worker = m.id
		return f.Result, nil
	}
}

// handleStoreConn serves Get/Put against the daemon's persistent store
// over one connection until EOF. Payload checksums are verified on
// receipt and stamped on replies, so a transport bit-flip degrades to a
// miss on the far side, never a wrong artifact.
func (d *Daemon) handleStoreConn(nc net.Conn, conn *Conn) {
	d.mu.Lock()
	epoch := d.helloEpoch
	d.mu.Unlock()
	if conn.Write(Frame{Type: FrameWelcome, Welcome: &Welcome{Epoch: epoch}}) != nil {
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
	plan, err := d.plan(req)
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
	var tally journal.Tally
	for received := 0; received < len(order); received++ {
		res := <-results
		// member.run vouches for a worker's result, and brokenResult
		// builds well-formed ones, so every result here reads back.
		o, _ := res.outcome(plan.Cells[res.ID])
		tally.Add(o.Status())
		o.Learn(d.History)
		if err := conn.Write(Frame{Type: FrameResult, Result: res}); err != nil {
			d.logf("write result: %v", err)
		}
	}
	if d.History != nil {
		if err := d.History.Save(); err != nil {
			d.logf("history save: %v", err)
		}
	}
	done := Done{Passed: tally.Passed, Failed: tally.Failed, Broken: tally.Broken, Flaky: tally.Flaky,
		WallNs: time.Since(start).Nanoseconds()}
	if err := conn.Write(Frame{Type: FrameDone, Done: &done}); err != nil {
		d.logf("write done: %v", err)
	}
	d.logf("request %d %s: %d passed, %d failed, %d broken in %s",
		reqID, req.Label, done.Passed, done.Failed, done.Broken, time.Duration(done.WallNs))
}

// plan is the matrix-level setup of one request: resolve names, freeze,
// preflight, enumerate, order.
func (d *Daemon) plan(req *Request) (*Plan, error) {
	var derivs []*derivative.Derivative
	for _, name := range req.Derivs {
		dv, err := derivative.ByName(name)
		if err != nil {
			return nil, err
		}
		derivs = append(derivs, dv)
	}
	var kinds []platform.Kind
	for _, name := range req.Platforms {
		k, err := platform.ParseKind(name)
		if err != nil {
			return nil, err
		}
		kinds = append(kinds, k)
	}
	if _, err := platform.ParseEngine(req.Engine); err != nil {
		return nil, err
	}
	sys := d.NewSystem()
	label, err := d.freeze(req.Label, sys)
	if err != nil {
		return nil, err
	}
	if !req.SkipVet {
		opts := vet.NewOptions()
		if len(derivs) > 0 {
			opts.Derivatives = derivs
		}
		if _, err := release.Preflight(sys, label, opts); err != nil {
			return nil, err
		}
	}
	cells, err := regress.EnumerateCells(sys, regress.Spec{
		Derivatives: derivs, Kinds: kinds,
		Modules: req.Modules, Tests: req.Tests,
	})
	if err != nil {
		return nil, err
	}
	plan := &Plan{
		Version: journal.Version, Label: req.Label, Epoch: label.Epoch(), Workers: d.PoolSize(),
		Cells:    make([]CellID, len(cells)),
		Dispatch: regress.HistoryOrder(d.History, cells),
	}
	for i, c := range cells {
		plan.Cells[i] = CellID{Module: c.Module, Test: c.Test,
			Deriv: c.Deriv.Name, Platform: c.Kind.String()}
	}
	return plan, nil
}

// brokenResult answers a job with a broken outcome record naming its
// cell, whether its worker died under it or refused it, so the merged
// flight record still closes every cell.
func brokenResult(worker int, job *Job, msg string) *Result {
	return &Result{ID: job.ID, Req: job.Req, Worker: worker,
		Records: []journal.Record{{
			Kind: journal.KindOutcome, Module: job.Cell.Module, Test: job.Cell.Test,
			Deriv: job.Cell.Deriv, Platform: job.Cell.Platform,
			Status: journal.StatusBroken, BuildErr: msg,
		}},
	}
}
