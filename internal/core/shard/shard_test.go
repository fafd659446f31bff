package shard_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/core/castore"
	"repro/internal/core/content"
	"repro/internal/core/journal"
	"repro/internal/core/regress"
	"repro/internal/core/release"
	"repro/internal/core/shard"
	"repro/internal/core/sysenv"
	"repro/internal/platform"

	_ "repro/internal/bondout"
	_ "repro/internal/emu"
	_ "repro/internal/gate"
	_ "repro/internal/golden"
	_ "repro/internal/rtl"
	_ "repro/internal/silicon"
)

// TestShardWorkerProcess is not a test: it is the worker process the
// daemon tests re-execute this binary into. The env guard keeps it
// silent in a normal test run.
func TestShardWorkerProcess(t *testing.T) {
	if os.Getenv("SHARD_WORKER_HELPER") != "1" {
		t.Skip("worker helper process")
	}
	// Crash injection: if the flag file exists, delete it and die hard
	// mid-protocol, on the first job — the daemon must break the
	// in-flight cell and respawn. The delete makes the replacement worker
	// healthy. A flag file that says "stop" wedges the worker instead: it
	// SIGSTOPs itself on the first job, leaving its pid in the file.
	var fault func()
	if flag := os.Getenv("SHARD_WORKER_CRASH_FLAG"); flag != "" {
		switch data, err := os.ReadFile(flag); {
		case err == nil && string(data) == "stop":
			os.WriteFile(flag, []byte(strconv.Itoa(os.Getpid())), 0o644)
			fault = func() { syscall.Kill(os.Getpid(), syscall.SIGSTOP) }
		case err == nil && len(data) == 0:
			os.Remove(flag)
			fault = func() { os.Exit(3) }
		}
	}
	in := io.Reader(os.Stdin)
	if fault != nil {
		in = readerFunc(func(p []byte) (int, error) {
			n, err := os.Stdin.Read(p)
			if bytes.Contains(p[:n], []byte(`"type":"job"`)) {
				fault()
			}
			return n, err
		})
	}
	opts := shard.WorkerOptions{NewSystem: content.PortedSystem}
	if dir := os.Getenv("SHARD_WORKER_STORE"); dir != "" {
		store, err := castore.Open(dir, castore.Options{})
		if err != nil {
			fmt.Fprintln(os.Stderr, "worker store:", err)
			os.Exit(1)
		}
		defer store.Close()
		opts.Store = store
	}
	if err := shard.RunWorker(in, os.Stdout, opts); err != nil {
		fmt.Fprintln(os.Stderr, "worker:", err)
		os.Exit(1)
	}
}

// readerFunc adapts a function to io.Reader.
type readerFunc func([]byte) (int, error)

func (f readerFunc) Read(p []byte) (int, error) { return f(p) }

// testWorkerCommand re-executes this test binary as a pool worker
// process (TestShardWorkerProcess), with extra env for fault injection.
func testWorkerCommand(env ...string) func(int) *exec.Cmd {
	return func(int) *exec.Cmd {
		cmd := exec.Command(os.Args[0], "-test.run=^TestShardWorkerProcess$")
		cmd.Env = append(os.Environ(), "SHARD_WORKER_HELPER=1")
		cmd.Env = append(cmd.Env, env...)
		cmd.Stderr = os.Stderr
		return cmd
	}
}

// startDaemon spins up a daemon with n re-exec'd worker processes and a
// unix-socket listener, returning the socket path.
func startDaemon(t *testing.T, n int, env ...string) string {
	t.Helper()
	d := &shard.Daemon{
		NewSystem:     content.PortedSystem,
		Workers:       n,
		WorkerCommand: testWorkerCommand(env...),
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	sock := filepath.Join(t.TempDir(), "advm.sock")
	l, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go d.Serve(l)
	return sock
}

func TestFrameRoundtrip(t *testing.T) {
	pr, pw := io.Pipe()
	conn := shard.NewConn(pr, pw)
	frames := []shard.Frame{
		{Type: shard.FrameRequest, Request: &shard.Request{Label: "r1", Platforms: []string{"golden"}}},
		{Type: shard.FramePlan, Plan: &shard.Plan{Label: "r1", Epoch: "e", Workers: 2,
			Cells: []shard.CellID{{Module: "NVM", Test: "T", Deriv: "SC88-A", Platform: "golden"}}}},
		{Type: shard.FrameResult, Result: &shard.Result{ID: 0, Worker: 1,
			Records: []journal.Record{{Kind: journal.KindStart, Module: "NVM", Seq: 7},
				{Kind: journal.KindOutcome, Module: "NVM", Test: "T", Deriv: "SC88-A", Platform: "golden",
					Status: journal.StatusPassed, Seq: 8}}}},
		{Type: shard.FrameDone, Done: &shard.Done{Passed: 1}},
		{Type: shard.FrameError, Error: "boom"},
	}
	go func() {
		for _, f := range frames {
			if err := conn.Write(f); err != nil {
				t.Error(err)
			}
		}
		pw.Close()
	}()
	for i, want := range frames {
		got, err := conn.Read()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Type != want.Type {
			t.Fatalf("frame %d: type %q, want %q", i, got.Type, want.Type)
		}
	}
	if _, err := conn.Read(); err != io.EOF {
		t.Fatalf("after close: %v, want EOF", err)
	}
}

// TestWorkerRefusalClosesCell: a job the worker refuses — content drift
// or a cell it cannot name — is answered as the daemon answers a lost
// worker's cell, with exactly one broken outcome record naming the cell,
// so the merged flight record closes it too.
func TestWorkerRefusalClosesCell(t *testing.T) {
	label, err := release.Freeze("refusals", content.PortedSystem())
	if err != nil {
		t.Fatal(err)
	}
	daemonSide, workerSide := net.Pipe()
	defer daemonSide.Close()
	served := make(chan error, 1)
	go func() {
		served <- shard.RunWorker(workerSide, workerSide, shard.WorkerOptions{NewSystem: content.PortedSystem})
	}()
	conn := shard.NewConn(daemonSide, daemonSide)
	if f, err := conn.Read(); err != nil || f.Type != shard.FrameHello {
		t.Fatalf("worker opened with %+v, %v; want its hello", f, err)
	}
	if err := conn.Write(shard.Frame{Type: shard.FrameWelcome, Welcome: &shard.Welcome{}}); err != nil {
		t.Fatal(err)
	}
	cell := shard.CellID{Module: "SECURITY", Test: "TEST_SEC_MPU_BLOCKS", Deriv: "SC88-A", Platform: "golden"}
	unknown := cell
	unknown.Deriv = "SC88-Z"
	for i, c := range []struct {
		name string
		job  shard.Job
		want string
	}{
		{"wrong epoch", shard.Job{Label: "refusals", Epoch: "not-the-epoch", Cell: cell}, "epoch drift"},
		{"unknown derivative", shard.Job{Label: "refusals", Epoch: label.Epoch(), Cell: unknown}, "SC88-Z"},
	} {
		c.job.ID, c.job.Req = i, 7
		if err := conn.Write(shard.Frame{Type: shard.FrameJob, Job: &c.job}); err != nil {
			t.Fatal(err)
		}
		f, err := conn.Read()
		for err == nil && f.Type == shard.FramePing {
			f, err = conn.Read()
		}
		if err != nil || f.Type != shard.FrameResult {
			t.Fatalf("%s: worker answered %+v, %v; want a result", c.name, f, err)
		}
		r := f.Result
		if r.ID != i || r.Req != 7 || len(r.Records) != 1 {
			t.Fatalf("%s: result id %d req %d with %d records, want id %d req 7 with one record",
				c.name, r.ID, r.Req, len(r.Records), i)
		}
		rec := r.Records[0]
		if rec.Kind != journal.KindOutcome || rec.Status != journal.StatusBroken ||
			rec.CellID() != c.job.Cell.String() || !strings.Contains(rec.BuildErr, c.want) {
			t.Fatalf("%s: record %+v, want a broken outcome of %s mentioning %q",
				c.name, rec, c.job.Cell, c.want)
		}
	}
	daemonSide.Close()
	if err := <-served; err != nil {
		t.Fatalf("worker after hang-up: %v", err)
	}
}

func TestMergeJournalCanonical(t *testing.T) {
	plan := &shard.Plan{
		Label: "m", Epoch: "e", Workers: 2,
		Cells: []shard.CellID{
			{Module: "A", Test: "T1", Deriv: "d", Platform: "golden"},
			{Module: "A", Test: "T2", Deriv: "d", Platform: "golden"},
		},
		Dispatch: []int{1, 0},
	}
	groups := [][]journal.Record{
		{{Kind: journal.KindStart, Module: "A", Test: "T1", Seq: 3},
			{Kind: journal.KindOutcome, Module: "A", Test: "T1", Seq: 4}},
		{{Kind: journal.KindStart, Module: "A", Test: "T2", Seq: 1},
			{Kind: journal.KindOutcome, Module: "A", Test: "T2", Seq: 2}},
	}
	recs := shard.MergeJournal(plan, groups, shard.Done{Passed: 2})
	// header + 2 schedules + 4 cell records + end, cells in dispatch
	// order (T2 first), Seq monotonic from 1.
	if len(recs) != 8 {
		t.Fatalf("merged %d records", len(recs))
	}
	wantKinds := []journal.Kind{journal.KindHeader, journal.KindSchedule, journal.KindSchedule,
		journal.KindStart, journal.KindOutcome, journal.KindStart, journal.KindOutcome, journal.KindEnd}
	for i, r := range recs {
		if r.Kind != wantKinds[i] {
			t.Fatalf("record %d kind %q, want %q", i, r.Kind, wantKinds[i])
		}
		if r.Seq != uint64(i+1) {
			t.Fatalf("record %d seq %d", i, r.Seq)
		}
	}
	if recs[1].Test != "T2" || recs[3].Test != "T2" || recs[5].Test != "T1" {
		t.Fatal("cells not in dispatch order")
	}
}

// TestShardedMatchesSerial is the heart of the sharded determinism
// story on a small matrix: the same frozen spec run serially in-process
// and sharded across two worker processes must produce identical
// outcome tables and byte-identical masked journals.
func TestShardedMatchesSerial(t *testing.T) {
	sock := startDaemon(t, 2)
	req := shard.Request{
		Label:     "shard-vs-serial",
		Modules:   []string{"UART"},
		Platforms: []string{"golden", "emulator"},
		SkipVet:   true,
	}
	reply, err := shard.Regress(sock, req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(reply.Outcomes); n != 4*4*2 {
		t.Fatalf("sharded ran %d cells", n)
	}

	// The serial reference: same frozen spec, in-process, one worker.
	sys := content.PortedSystem()
	label := freeze(t, "shard-vs-serial", sys)
	var serialBuf bytes.Buffer
	jw := journal.NewWriter(&serialBuf)
	serial, err := regress.Run(sys, label, regress.Spec{
		Modules: []string{"UART"},
		Kinds:   []platform.Kind{platform.KindGolden, platform.KindEmulator},
		SkipVet: true,
		Journal: jw,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}

	// Outcome tables must agree cell for cell (wall-clock excluded):
	// the certification-bundle form is exactly that comparison.
	wantCells, _ := json.Marshal(serial.BundleCells())
	gotCells, _ := json.Marshal(reply.Report().BundleCells())
	if !bytes.Equal(wantCells, gotCells) {
		t.Fatalf("outcome tables diverge:\nserial:  %s\nsharded: %s", wantCells, gotCells)
	}

	// Masked journals must be byte-identical.
	var shardBuf bytes.Buffer
	sw := journal.NewWriter(&shardBuf)
	for _, r := range reply.Journal {
		sw.Emit(r)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	wantJ, err := journal.Mask(serialBuf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	gotJ, err := journal.Mask(shardBuf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantJ, gotJ) {
		t.Fatalf("masked journals diverge:\n--- serial ---\n%s\n--- sharded ---\n%s", wantJ, gotJ)
	}
}

// freeze composes a system release label the way advm.FreezeSystem
// does.
func freeze(t *testing.T, name string, sys *sysenv.System) *release.SystemLabel {
	t.Helper()
	var subs []*release.Label
	for _, e := range sys.Envs() {
		subs = append(subs, release.Snapshot(name+"_"+e.Module, e))
	}
	label, err := release.ComposeSystem(name, sys, subs...)
	if err != nil {
		t.Fatal(err)
	}
	return label
}

func TestWorkerCrashIsolation(t *testing.T) {
	flag := filepath.Join(t.TempDir(), "crash")
	if err := os.WriteFile(flag, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	sock := startDaemon(t, 1, "SHARD_WORKER_CRASH_FLAG="+flag)
	req := shard.Request{
		Label:     "crash",
		Modules:   []string{"SECURITY"},
		Derivs:    []string{"SC88-A"},
		Platforms: []string{"golden"},
		SkipVet:   true,
	}
	reply, err := shard.Regress(sock, req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(reply.Outcomes) != 3 {
		t.Fatalf("ran %d cells", len(reply.Outcomes))
	}
	crashed, passed := 0, 0
	for _, o := range reply.Outcomes {
		switch {
		case o.BuildErr != "":
			crashed++
		case o.Passed:
			passed++
		}
	}
	if crashed != 1 || passed != 2 {
		t.Fatalf("crashed=%d passed=%d, want exactly one broken cell and the rest passed: %+v",
			crashed, passed, reply.Outcomes)
	}
	if reply.Done.Broken != 1 || reply.Done.Passed != 2 {
		t.Fatalf("done counts = %+v", reply.Done)
	}
}

// TestWedgedWorkerCostsOneCell: a local worker that stops mid-cell
// without dying (it SIGSTOPs itself on its first job) must cost that one
// cell once its heartbeats stop — not its slot, the request, or Close.
func TestWedgedWorkerCostsOneCell(t *testing.T) {
	flag := filepath.Join(t.TempDir(), "wedge")
	if err := os.WriteFile(flag, []byte("stop"), 0o644); err != nil {
		t.Fatal(err)
	}
	addr, d := startFleetDaemon(t, 1, func(d *shard.Daemon) {
		d.WorkerCommand = testWorkerCommand("SHARD_WORKER_CRASH_FLAG=" + flag)
	})
	t.Cleanup(func() {
		// Killing the stopped worker is the daemon's job; one it missed
		// is killed here, so no wait of the daemon's stays blocked on it.
		data, _ := os.ReadFile(flag)
		stat, err := os.ReadFile("/proc/" + string(data) + "/stat")
		if pid, _ := strconv.Atoi(string(data)); err == nil && pid > 0 && bytes.Contains(stat, []byte(") T ")) {
			syscall.Kill(pid, syscall.SIGKILL)
		}
	})
	type res struct {
		reply *shard.Reply
		err   error
	}
	ch := make(chan res, 1)
	go func() {
		reply, err := shard.Regress(addr, shard.Request{
			Label: "wedge", Modules: []string{"SECURITY"}, Derivs: []string{"SC88-A"},
			Platforms: []string{"golden"}, SkipVet: true,
		}, nil)
		ch <- res{reply, err}
	}()
	select {
	case r := <-ch:
		if r.err != nil {
			t.Fatal(r.err)
		}
		if r.reply.Done.Broken != 1 || r.reply.Done.Passed != 2 {
			t.Fatalf("done counts = %+v, want 1 broken and 2 passed", r.reply.Done)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("request hung on the wedged worker")
	}
	closed := make(chan struct{})
	go func() {
		d.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung on the wedged worker")
	}
}
