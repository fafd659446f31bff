package shard

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core/buildcache"
	"repro/internal/core/derivative"
	"repro/internal/core/journal"
	"repro/internal/core/memo"
	"repro/internal/core/regress"
	"repro/internal/core/release"
	"repro/internal/core/runcache"
	"repro/internal/core/sysenv"
	"repro/internal/platform"
)

// WorkerOptions configures one worker (a local pool subprocess or a
// remote TCP slot).
type WorkerOptions struct {
	// NewSystem constructs the worker's module environments from
	// content. Every worker (and the daemon) builds from the same
	// content source; the epoch check on each job proves it.
	NewSystem func() *sysenv.System
	// Store, when non-nil, is the persistent artifact backend: the
	// worker's build and run caches write through to it, so work done by
	// one worker (or an earlier process) is a hit for the others. Local
	// workers mount the daemon's castore directory; remote workers mount
	// a RemoteStore (optionally fetch-through a local castore tier).
	Store memo.Backend
}

// worker is the per-process state behind RunWorker: one system, one
// frozen label per requested release name, caches that live for the
// process and optionally spill to the shared store.
type worker struct {
	sys    *sysenv.System
	labels map[string]*release.SystemLabel
	bc     *buildcache.Cache
	rc     *runcache.Cache
	seq    uint64
}

// newWorker builds the per-process worker state.
func newWorker(opts WorkerOptions) (*worker, error) {
	if opts.NewSystem == nil {
		return nil, fmt.Errorf("shard: worker needs a NewSystem constructor")
	}
	wk := &worker{
		sys:    opts.NewSystem(),
		labels: make(map[string]*release.SystemLabel),
		bc:     buildcache.New(),
		rc:     runcache.New(),
	}
	if opts.Store != nil {
		wk.bc.SetBackend(opts.Store, sysenv.PersistEncode, sysenv.PersistDecode)
		wk.rc.SetBackend(opts.Store)
	}
	return wk, nil
}

// RunWorker serves the worker side of the protocol on r and w — a local
// worker process's stdin and stdout, its daemon's socket pair — exactly
// as ConnectWorker does over TCP. Returns nil on a clean EOF.
func RunWorker(r io.Reader, w io.Writer, opts WorkerOptions) error {
	return work(NewConn(r, w), opts, "", DefaultPing)
}

// work is the worker loop behind RunWorker and ConnectWorker. Its hello
// carries the journal version and the frozen probe epoch, so format or
// content drift fails at registration rather than per job; heartbeats
// flow from a side goroutine even while a cell runs, so the daemon can
// tell a long cell from a lost worker. Cell-level failures — epoch drift,
// unknown derivative, build errors — are reported in-band as broken
// outcomes; only protocol failures return an error.
func work(conn *Conn, opts WorkerOptions, name string, ping time.Duration) error {
	wk, err := newWorker(opts)
	if err != nil {
		return err
	}
	probe, err := release.Freeze(HelloLabel, wk.sys)
	if err != nil {
		return fmt.Errorf("shard: freeze probe label: %w", err)
	}
	if err := handshakeHello(conn, &Hello{
		Role: RoleWorker, Name: name, Version: journal.Version, Epoch: probe.Epoch(), PingNs: int64(ping),
	}); err != nil {
		return err
	}
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		t := time.NewTicker(ping)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				if conn.Write(Frame{Type: FramePing}) != nil {
					return
				}
			}
		}
	}()
	return wk.serve(conn)
}

// serve is the job loop. Ping frames (a daemon probing liveness) are
// tolerated and ignored.
func (wk *worker) serve(conn *Conn) error {
	for {
		f, err := conn.Read()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if f.Type == FramePing {
			continue
		}
		if f.Type != FrameJob || f.Job == nil {
			return fmt.Errorf("shard: worker expected a job frame, got %q", f.Type)
		}
		res := wk.run(f.Job)
		if err := conn.Write(Frame{Type: FrameResult, Result: res}); err != nil {
			return err
		}
	}
}

// freeze returns the worker's frozen system label for name, composing
// (and caching) it on first use.
func (wk *worker) freeze(name string) (*release.SystemLabel, error) {
	if l, ok := wk.labels[name]; ok {
		return l, nil
	}
	l, err := release.Freeze(name, wk.sys)
	if err != nil {
		return nil, err
	}
	wk.labels[name] = l
	return l, nil
}

// run executes one cell job. The cell goes through regress.Run itself —
// a one-cell matrix with the vet gate skipped (the daemon ran it once
// for the whole request) — so enumeration, caching, journal emission,
// and outcome semantics cannot drift from the in-process path. A refused
// job gets the daemon's answer for a lost worker's cell (brokenResult).
func (wk *worker) run(job *Job) *Result {
	broken := func(msg string) *Result { return brokenResult(-1, job, msg) }
	label, err := wk.freeze(job.Label)
	if err != nil {
		return broken("freeze: " + err.Error())
	}
	if label.Epoch() != job.Epoch {
		// The worker's content disagrees with what the daemon froze —
		// running would compare incomparable builds.
		return broken(fmt.Sprintf("epoch drift: worker froze %s, daemon planned %s",
			label.Epoch(), job.Epoch))
	}
	d, err := derivative.ByName(job.Cell.Deriv)
	if err != nil {
		return broken(err.Error())
	}
	k, err := platform.ParseKind(job.Cell.Platform)
	if err != nil {
		return broken(err.Error())
	}
	eng, err := platform.ParseEngine(job.Engine)
	if err != nil {
		return broken(err.Error())
	}
	res := &Result{ID: job.ID, Req: job.Req}
	spec := regress.Spec{
		Modules:     []string{job.Cell.Module},
		Tests:       []string{job.Cell.Test},
		Derivatives: []*derivative.Derivative{d},
		Kinds:       []platform.Kind{k},
		RunSpec: platform.RunSpec{
			MaxInstructions: job.MaxInstructions,
			MaxCycles:       job.MaxCycles,
			Engine:          eng,
		},
		Cache:    wk.bc,
		RunCache: wk.rc,
		SkipVet:  true,
		// Collect the cell's own flight records — start, cache-hit,
		// retries, the outcome — and stamp them with this worker's local
		// sequence. The one-cell run's header/schedule/runtime/end
		// framing is the daemon's to emit once for the whole matrix, so
		// it is dropped here.
		Journal: journal.SinkFunc(func(r journal.Record) {
			if r.Module == "" || r.Kind == journal.KindSchedule {
				return
			}
			wk.seq++
			r.Seq = wk.seq
			res.Records = append(res.Records, r)
		}),
	}
	rep, err := regress.Run(wk.sys, label, spec)
	if err != nil {
		return broken(err.Error())
	}
	if len(rep.Outcomes) != 1 {
		return broken(fmt.Sprintf("one-cell run produced %d outcomes", len(rep.Outcomes)))
	}
	return res
}
