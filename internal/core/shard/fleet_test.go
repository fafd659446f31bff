package shard_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core/castore"
	"repro/internal/core/content"
	"repro/internal/core/journal"
	"repro/internal/core/regress"
	"repro/internal/core/release"
	"repro/internal/core/shard"
	"repro/internal/platform"
)

// startFleetDaemon spins up a daemon with n local re-exec'd worker
// processes behind a loopback TCP listener, returning the dialable
// "tcp:" address and the daemon for fleet tests to join and close.
func startFleetDaemon(t *testing.T, n int, cfg func(*shard.Daemon)) (string, *shard.Daemon) {
	t.Helper()
	d := &shard.Daemon{
		NewSystem:     content.PortedSystem,
		Workers:       n,
		WorkerCommand: testWorkerCommand(),
	}
	if cfg != nil {
		cfg(d)
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go d.Serve(l)
	return "tcp:" + l.Addr().String(), d
}

// waitPool blocks until the daemon's pool reaches want workers (remote
// registrations are asynchronous).
func waitPool(t *testing.T, d *shard.Daemon, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for d.PoolSize() < want {
		if time.Now().After(deadline) {
			t.Fatalf("pool stuck at %d workers, want %d", d.PoolSize(), want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// serialReference runs the same frozen spec serially in-process and
// returns its report plus its masked journal — the byte-identity
// baseline every fleet run is held to.
func serialReference(t *testing.T, label string, modules, plats []string) (*regress.Report, []byte) {
	t.Helper()
	sys := content.PortedSystem()
	sl := freeze(t, label, sys)
	var kinds []platform.Kind
	for _, p := range plats {
		k, err := platform.ParseKind(p)
		if err != nil {
			t.Fatal(err)
		}
		kinds = append(kinds, k)
	}
	var buf bytes.Buffer
	jw := journal.NewWriter(&buf)
	rep, err := regress.Run(sys, sl, regress.Spec{
		Modules: modules, Kinds: kinds, SkipVet: true, Journal: jw,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	masked, err := journal.Mask(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return rep, masked
}

// maskedReplyJournal renders and masks a sharded reply's merged
// journal.
func maskedReplyJournal(t *testing.T, reply *shard.Reply) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := journal.NewWriter(&buf)
	for _, r := range reply.Journal {
		w.Emit(r)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	masked, err := journal.Mask(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return masked
}

// TestFleetMatchesSerial is the multi-machine determinism story: a
// daemon with one local worker process, joined over loopback TCP by two
// remote worker slots (a second "machine" running the -connect path,
// fetch-through store included), must produce an outcome table and a
// masked journal byte-identical to a serial in-process run.
func TestFleetMatchesSerial(t *testing.T) {
	store, err := castore.Open(t.TempDir(), castore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	addr, d := startFleetDaemon(t, 1, func(d *shard.Daemon) {
		d.Store = store
		d.Logf = t.Logf
	})
	for i := 1; i <= 2; i++ {
		rs, err := shard.DialStore(addr, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { rs.Close() })
		go func(i int, rs *shard.RemoteStore) {
			err := shard.ConnectWorker(addr, shard.ConnectOptions{
				WorkerOptions: shard.WorkerOptions{
					NewSystem: content.PortedSystem,
					Store:     &shard.FetchThrough{Remote: rs},
				},
				Name: fmt.Sprintf("machine2/%d", i),
				Ping: 50 * time.Millisecond,
			})
			if err != nil {
				t.Logf("remote slot %d: %v", i, err)
			}
		}(i, rs)
	}
	waitPool(t, d, 3)

	workersSeen := map[int]bool{}
	req := shard.Request{
		Label:     "fleet-vs-serial",
		Modules:   []string{"UART"},
		Platforms: []string{"golden", "emulator"},
		SkipVet:   true,
	}
	reply, err := shard.Regress(addr, req, func(r *shard.Result) {
		workersSeen[r.Worker] = true
	})
	if err != nil {
		t.Fatal(err)
	}
	if reply.Plan.Workers != 3 {
		t.Fatalf("plan saw %d workers, want 3", reply.Plan.Workers)
	}
	if reply.Done.Broken != 0 {
		t.Fatalf("fleet run broke %d cells", reply.Done.Broken)
	}
	if len(workersSeen) < 2 {
		t.Errorf("cells did not spread across the fleet: workers %v", workersSeen)
	}

	serialRep, serialMasked := serialReference(t, "fleet-vs-serial",
		[]string{"UART"}, []string{"golden", "emulator"})
	wantCells, _ := json.Marshal(serialRep.BundleCells())
	gotCells, _ := json.Marshal(reply.Report().BundleCells())
	if !bytes.Equal(wantCells, gotCells) {
		t.Fatalf("outcome tables diverge:\nserial: %s\nfleet:  %s", wantCells, gotCells)
	}
	if got := maskedReplyJournal(t, reply); !bytes.Equal(serialMasked, got) {
		t.Fatalf("masked journals diverge:\n--- serial ---\n%s\n--- fleet ---\n%s", serialMasked, got)
	}

	// The fetch-through path must have filled the daemon's store from
	// the remote slots' work (build artifacts and run outcomes written
	// back over the store channel).
	if st := store.Stats(); st.Puts == 0 {
		t.Errorf("remote workers never filled the daemon store: %+v", st)
	}
}

// TestWorkerIDsArePoolUnique: in the benchmark's fleet shape — one
// local slot plus one -connect slot configured as advm-served configures
// it, numbering its own slots from 0 — results from the two slots carry
// two distinct worker IDs, because the daemon assigns them.
func TestWorkerIDsArePoolUnique(t *testing.T) {
	addr, d := startFleetDaemon(t, 1, nil)
	rs, err := shard.DialStore(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rs.Close() })
	go shard.ConnectWorker(addr, shard.ConnectOptions{
		WorkerOptions: shard.WorkerOptions{
			NewSystem: content.PortedSystem, Store: &shard.FetchThrough{Remote: rs},
		},
		Name: "machine/0",
	})
	waitPool(t, d, 2)
	seen := map[int]bool{}
	// A request's cells need not reach both slots; a few requests will.
	for attempt := 0; attempt < 5 && len(seen) < 2; attempt++ {
		if _, err := shard.Regress(addr, shard.Request{
			Label: "worker-ids", Modules: []string{"UART"},
			Platforms: []string{"golden", "emulator"}, SkipVet: true,
		}, func(r *shard.Result) { seen[r.Worker] = true }); err != nil {
			t.Fatal(err)
		}
	}
	if len(seen) != 2 {
		t.Fatalf("two slots reported workers %v, want two distinct IDs", seen)
	}
}

// TestConcurrentRequestsShareOnePool: two clients interleave across one
// pool and each still gets a reply byte-identical to its own serial
// run — per-request result routing by request ID, per-request journal
// merge.
func TestConcurrentRequestsShareOnePool(t *testing.T) {
	addr, _ := startFleetDaemon(t, 2, nil)
	reqs := []shard.Request{
		{Label: "conc-uart", Modules: []string{"UART"}, Platforms: []string{"golden"}, SkipVet: true},
		{Label: "conc-security", Modules: []string{"SECURITY"}, Platforms: []string{"golden"}, SkipVet: true},
	}
	replies := make([]*shard.Reply, len(reqs))
	errs := make([]error, len(reqs))
	var wg sync.WaitGroup
	for i, r := range reqs {
		wg.Add(1)
		go func(i int, r shard.Request) {
			defer wg.Done()
			replies[i], errs[i] = shard.Regress(addr, r, nil)
		}(i, r)
	}
	wg.Wait()
	for i, r := range reqs {
		if errs[i] != nil {
			t.Fatalf("request %s: %v", r.Label, errs[i])
		}
		serialRep, serialMasked := serialReference(t, r.Label, r.Modules, r.Platforms)
		wantCells, _ := json.Marshal(serialRep.BundleCells())
		gotCells, _ := json.Marshal(replies[i].Report().BundleCells())
		if !bytes.Equal(wantCells, gotCells) {
			t.Fatalf("request %s outcome tables diverge:\nserial: %s\nshared: %s",
				r.Label, wantCells, gotCells)
		}
		if got := maskedReplyJournal(t, replies[i]); !bytes.Equal(serialMasked, got) {
			t.Fatalf("request %s masked journals diverge:\n--- serial ---\n%s\n--- shared ---\n%s",
				r.Label, serialMasked, got)
		}
	}
}

// TestIdleClientCostsOneConnection: a client that connects and never
// writes a request must be cut off at the request-read deadline, and
// the daemon must go on serving — one connection lost, not the service.
func TestIdleClientCostsOneConnection(t *testing.T) {
	addr, _ := startFleetDaemon(t, 1, func(d *shard.Daemon) {
		d.RequestTimeout = 200 * time.Millisecond
	})
	nc, err := net.Dial("tcp", strings.TrimPrefix(addr, "tcp:"))
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := nc.Read(make([]byte, 1)); err == nil {
		t.Fatal("daemon kept the idle connection open past the deadline")
	}

	// The service survived the wedged client.
	reply, err := shard.Regress(addr, shard.Request{
		Label:   "after-idle",
		Modules: []string{"SECURITY"}, Derivs: []string{"SC88-A"},
		Platforms: []string{"golden"}, SkipVet: true,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Done.Passed == 0 || reply.Done.Broken != 0 {
		t.Fatalf("post-idle request did not run cleanly: %+v", reply.Done)
	}
}

// TestCloseDuringRequestSynchronizes: closing the daemon while a
// request is in flight must neither hang nor race the pool loops (run
// under -race); afterwards new requests are refused cleanly.
func TestCloseDuringRequestSynchronizes(t *testing.T) {
	addr, d := startFleetDaemon(t, 2, nil)
	type res struct {
		reply *shard.Reply
		err   error
	}
	ch := make(chan res, 1)
	go func() {
		reply, err := shard.Regress(addr, shard.Request{
			Label: "close-race", Modules: []string{"UART"},
			Platforms: []string{"golden"}, SkipVet: true,
		}, nil)
		ch <- res{reply, err}
	}()
	time.Sleep(100 * time.Millisecond)
	d.Close()
	select {
	case r := <-ch:
		// Either outcome is legal — a completed matrix (cells the pool
		// no longer served are reported broken) or a clean client
		// error — as long as nothing hangs or races.
		if r.err == nil && len(r.reply.Outcomes) == 0 {
			t.Fatal("request completed with an empty matrix")
		}
	case <-time.After(60 * time.Second):
		t.Fatal("request hung across Close")
	}
	if _, err := shard.Regress(addr, shard.Request{
		Label: "post-close", Modules: []string{"UART"},
		Platforms: []string{"golden"}, SkipVet: true,
	}, nil); err == nil {
		t.Fatal("closed daemon accepted a new request")
	}
}

// fakeDaemon serves exactly one scripted client connection.
func fakeDaemon(t *testing.T, script func(conn *shard.Conn, req *shard.Request)) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		nc, err := l.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		conn := shard.NewConn(nc, nc)
		f, err := conn.Read()
		if err != nil || f.Type != shard.FrameRequest {
			return
		}
		script(conn, f.Request)
	}()
	return "tcp:" + l.Addr().String()
}

// twoCellPlan is the scripted plan the protocol-violation tests share.
func twoCellPlan(label string) *shard.Plan {
	return &shard.Plan{
		Version: journal.Version, Label: label, Epoch: "e", Workers: 1,
		Cells: []shard.CellID{
			{Module: "A", Test: "T1", Deriv: "d", Platform: "golden"},
			{Module: "A", Test: "T2", Deriv: "d", Platform: "golden"},
		},
	}
}

// outcomeRecord is the passing outcome record of a twoCellPlan cell.
func outcomeRecord(test string) journal.Record {
	return journal.Record{Kind: journal.KindOutcome, Module: "A", Test: test,
		Deriv: "d", Platform: "golden", Status: journal.StatusPassed}
}

func cellResult(id int, test string) *shard.Result {
	return &shard.Result{ID: id, Records: []journal.Record{outcomeRecord(test)}}
}

// TestMalformedResultRejected: a result is its records, and exactly one
// of them must be the outcome record of the result's cell. A result
// without one, with two, or with another cell's must fail the stream —
// there is no cell outcome to read back from it.
func TestMalformedResultRejected(t *testing.T) {
	for _, c := range []struct {
		name    string
		records []journal.Record
		want    string
	}{
		{"no outcome record", []journal.Record{{Kind: journal.KindStart, Module: "A", Test: "T1",
			Deriv: "d", Platform: "golden", Attempt: 1}}, "no outcome record"},
		{"two outcome records", []journal.Record{outcomeRecord("T1"), outcomeRecord("T1")}, "two outcome records"},
		{"another cell's outcome", []journal.Record{outcomeRecord("T2")}, "carries the outcome of"},
	} {
		t.Run(c.name, func(t *testing.T) {
			addr := fakeDaemon(t, func(conn *shard.Conn, req *shard.Request) {
				conn.Write(shard.Frame{Type: shard.FramePlan, Plan: twoCellPlan(req.Label)})
				conn.Write(shard.Frame{Type: shard.FrameResult, Result: &shard.Result{ID: 0, Records: c.records}})
				conn.Write(shard.Frame{Type: shard.FrameResult, Result: cellResult(1, "T2")})
				conn.Write(shard.Frame{Type: shard.FrameDone, Done: &shard.Done{Passed: 2}})
			})
			_, err := shard.Regress(addr, shard.Request{Label: "malformed"}, nil)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want a rejection containing %q", err, c.want)
			}
		})
	}
}

// TestVersionMismatchRefused: records-only results are journal version
// 2. A worker whose hello names another journal version must be refused
// at the door even when its content epoch matches — its outcome records
// would not read back as the daemon's do — and a client must refuse a
// plan from a daemon speaking another version.
func TestVersionMismatchRefused(t *testing.T) {
	addr, d := startFleetDaemon(t, 1, nil)
	probe, err := release.Freeze(shard.HelloLabel, content.PortedSystem())
	if err != nil {
		t.Fatal(err)
	}
	nc, err := shard.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	conn := shard.NewConn(nc, nc)
	if err := conn.Write(shard.Frame{Type: shard.FrameHello, Hello: &shard.Hello{
		Role: shard.RoleWorker, Name: "old", Version: journal.Version - 1, Epoch: probe.Epoch(),
	}}); err != nil {
		t.Fatal(err)
	}
	f, err := conn.Read()
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != shard.FrameError || !strings.Contains(f.Error, "journal version mismatch") {
		t.Fatalf("handshake answer = %+v, want a version refusal", f)
	}
	if d.PoolSize() != 1 {
		t.Fatalf("old worker joined the pool: size %d", d.PoolSize())
	}

	old := fakeDaemon(t, func(conn *shard.Conn, req *shard.Request) {
		plan := twoCellPlan(req.Label)
		plan.Version = journal.Version - 1
		conn.Write(shard.Frame{Type: shard.FramePlan, Plan: plan})
		conn.Write(shard.Frame{Type: shard.FrameResult, Result: cellResult(0, "T1")})
		conn.Write(shard.Frame{Type: shard.FrameResult, Result: cellResult(1, "T2")})
		conn.Write(shard.Frame{Type: shard.FrameDone, Done: &shard.Done{Passed: 2}})
	})
	if _, err := shard.Regress(old, shard.Request{Label: "old"}, nil); err == nil ||
		!strings.Contains(err.Error(), "journal version") {
		t.Fatalf("err = %v, want a version refusal", err)
	}
}

// TestDuplicateResultRejected: a second result frame for the same cell
// ID must fail the stream — counted twice it would satisfy the
// completeness check while another cell was never reported, and it
// would silently overwrite the first outcome.
func TestDuplicateResultRejected(t *testing.T) {
	addr := fakeDaemon(t, func(conn *shard.Conn, req *shard.Request) {
		conn.Write(shard.Frame{Type: shard.FramePlan, Plan: twoCellPlan(req.Label)})
		conn.Write(shard.Frame{Type: shard.FrameResult, Result: cellResult(0, "T1")})
		conn.Write(shard.Frame{Type: shard.FrameResult, Result: cellResult(0, "T1")})
		conn.Write(shard.Frame{Type: shard.FrameDone, Done: &shard.Done{Passed: 2}})
	})
	_, err := shard.Regress(addr, shard.Request{Label: "dup"}, nil)
	if err == nil || !strings.Contains(err.Error(), "duplicate result") {
		t.Fatalf("err = %v, want a duplicate-result rejection", err)
	}
}

// TestMissingResultRejected: a done frame before every cell reported
// must fail the completeness check.
func TestMissingResultRejected(t *testing.T) {
	addr := fakeDaemon(t, func(conn *shard.Conn, req *shard.Request) {
		conn.Write(shard.Frame{Type: shard.FramePlan, Plan: twoCellPlan(req.Label)})
		conn.Write(shard.Frame{Type: shard.FrameResult, Result: cellResult(0, "T1")})
		conn.Write(shard.Frame{Type: shard.FrameDone, Done: &shard.Done{Passed: 1}})
	})
	_, err := shard.Regress(addr, shard.Request{Label: "missing"}, nil)
	if err == nil || !strings.Contains(err.Error(), "done after 1 of 2") {
		t.Fatalf("err = %v, want an incomplete-stream rejection", err)
	}
}

// TestDoneWithoutCountsRejected: a done frame that lacks its payload
// must fail the stream, not crash the client.
func TestDoneWithoutCountsRejected(t *testing.T) {
	addr := fakeDaemon(t, func(conn *shard.Conn, req *shard.Request) {
		conn.Write(shard.Frame{Type: shard.FramePlan, Plan: twoCellPlan(req.Label)})
		conn.Write(shard.Frame{Type: shard.FrameResult, Result: cellResult(0, "T1")})
		conn.Write(shard.Frame{Type: shard.FrameResult, Result: cellResult(1, "T2")})
		conn.Write(shard.Frame{Type: shard.FrameDone})
	})
	_, err := shard.Regress(addr, shard.Request{Label: "nil-done"}, nil)
	if err == nil || !strings.Contains(err.Error(), "done frame") {
		t.Fatalf("err = %v, want a missing-counts rejection", err)
	}
}

// TestBadDispatchRejected: a plan whose dispatch order is not a
// permutation of its cell indices must fail the stream — an index out of
// range would crash the merge, and a repeated or missing one would merge
// a journal with a cell twice or not at all.
func TestBadDispatchRejected(t *testing.T) {
	for _, dispatch := range [][]int{{0, 2}, {-1, 0}, {1, 1}, {0}} {
		plan := twoCellPlan("bad-dispatch")
		plan.Dispatch = dispatch
		addr := fakeDaemon(t, func(conn *shard.Conn, req *shard.Request) {
			conn.Write(shard.Frame{Type: shard.FramePlan, Plan: plan})
			conn.Write(shard.Frame{Type: shard.FrameResult, Result: cellResult(0, "T1")})
			conn.Write(shard.Frame{Type: shard.FrameResult, Result: cellResult(1, "T2")})
			conn.Write(shard.Frame{Type: shard.FrameDone, Done: &shard.Done{Passed: 2}})
		})
		_, err := shard.Regress(addr, shard.Request{Label: "bad-dispatch"}, nil)
		if err == nil || !strings.Contains(err.Error(), "permutation") {
			t.Errorf("dispatch %v: err = %v, want a permutation rejection", dispatch, err)
		}
	}
}

// TestEpochMismatchRefusedAtRegistration: a worker whose content
// disagrees with the daemon's must be turned away by the hello
// handshake, not discovered job by job.
func TestEpochMismatchRefusedAtRegistration(t *testing.T) {
	addr, d := startFleetDaemon(t, 1, nil)
	nc, err := shard.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	conn := shard.NewConn(nc, nc)
	if err := conn.Write(shard.Frame{Type: shard.FrameHello, Hello: &shard.Hello{
		Role: shard.RoleWorker, Name: "drifted", Epoch: "not-the-daemons-epoch",
	}}); err != nil {
		t.Fatal(err)
	}
	f, err := conn.Read()
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != shard.FrameError || !strings.Contains(f.Error, "epoch mismatch") {
		t.Fatalf("handshake answer = %+v, want an epoch-mismatch refusal", f)
	}
	if d.PoolSize() != 1 {
		t.Fatalf("drifted worker joined the pool: size %d", d.PoolSize())
	}
}
