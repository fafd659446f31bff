package shard

import (
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core/journal"
)

// newTestMember wires a pool member around one end of a net.Pipe and
// returns the far end for the test to script.
func newTestMember(name string, ping time.Duration) (*member, net.Conn) {
	server, client := net.Pipe()
	m := &member{name: name, nc: server, conn: NewConn(server, server),
		ping: ping, frames: make(chan Frame, 1), dead: make(chan struct{})}
	return m, client
}

// outcomeRecord is the passing outcome record a worker sends for cell.
func outcomeRecord(cell CellID) journal.Record {
	return journal.Record{Kind: journal.KindOutcome, Module: cell.Module, Test: cell.Test,
		Deriv: cell.Deriv, Platform: cell.Platform, Status: journal.StatusPassed}
}

// buildErr reads a result's cell outcome back and returns its build
// error, failing the test when the result does not read back.
func buildErr(t *testing.T, res *Result, cell CellID) string {
	t.Helper()
	o, err := res.outcome(cell)
	if err != nil {
		t.Fatalf("result does not read back: %v", err)
	}
	return o.BuildErr
}

// TestRemoteDeadlineBreaksInFlightCell: a machine that takes a job and
// then vanishes (no result, no heartbeats) must cost exactly its
// in-flight cell — broken after the heartbeat deadline — and its loop
// must exit so the rest of the pool owns the queue.
func TestRemoteDeadlineBreaksInFlightCell(t *testing.T) {
	d := &Daemon{Logf: t.Logf}
	d.queue = make(chan *task)
	d.quit = make(chan struct{})
	m, far := newTestMember("silent", 20*time.Millisecond)
	defer far.Close()
	d.wg.Add(1)
	loopDone := make(chan struct{})
	go func() {
		d.serveMember(m)
		close(loopDone)
	}()
	// The far side reads its job and then goes silent forever.
	go NewConn(far, far).Read()
	results := make(chan *Result, 1)
	job := &Job{ID: 7, Req: 3, Cell: CellID{Module: "M", Test: "T", Deriv: "d", Platform: "golden"}}
	d.queue <- &task{job: job, done: results}
	select {
	case res := <-results:
		if res.ID != 7 || res.Req != 3 {
			t.Fatalf("broken result routed to wrong cell: %+v", res)
		}
		if msg := buildErr(t, res, job.Cell); !strings.Contains(msg, "worker lost") {
			t.Fatalf("outcome = %q, want a worker-lost breakage", msg)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cell never broke: heartbeat deadline did not fire")
	}
	select {
	case <-loopDone:
	case <-time.After(time.Second):
		t.Fatal("remote loop did not exit after the machine vanished")
	}
}

// TestRemoteHeartbeatKeepsLongCellAlive: pings interleaved with a slow
// result must keep refreshing the deadline — a long-running cell on a
// live machine is not a vanished machine.
func TestRemoteHeartbeatKeepsLongCellAlive(t *testing.T) {
	d := &Daemon{Logf: t.Logf}
	d.queue = make(chan *task)
	d.quit = make(chan struct{})
	m, far := newTestMember("slow", 20*time.Millisecond)
	defer far.Close()
	d.wg.Add(1)
	go d.serveMember(m)
	// Far side: consume the job, ping for several full deadline windows,
	// then answer.
	go func() {
		fc := NewConn(far, far)
		f, err := fc.Read()
		if err != nil || f.Type != FrameJob {
			return
		}
		for i := 0; i < 30; i++ {
			time.Sleep(10 * time.Millisecond)
			if fc.Write(Frame{Type: FramePing}) != nil {
				return
			}
		}
		fc.Write(Frame{Type: FrameResult, Result: &Result{
			ID: f.Job.ID, Req: f.Job.Req, Worker: 9,
			Records: []journal.Record{outcomeRecord(f.Job.Cell)},
		}})
	}()
	results := make(chan *Result, 1)
	cell := CellID{Module: "M", Test: "T", Deriv: "d", Platform: "golden"}
	d.queue <- &task{job: &Job{ID: 1, Req: 2, Cell: cell}, done: results}
	select {
	case res := <-results:
		if msg := buildErr(t, res, cell); msg != "" {
			t.Fatalf("long cell on a pinging machine broke: %s", msg)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("result never arrived")
	}
	close(d.quit)
	d.wg.Wait()
}

// TestRemoteMisroutedResultPoisonsWorker: a worker that echoes the
// wrong (request, cell) pair has desynced its stream, and one whose
// result does not carry exactly one outcome record naming its cell sent
// no cell result at all. The daemon must break the cell and drop the
// worker rather than route or count the stray result.
func TestRemoteMisroutedResultPoisonsWorker(t *testing.T) {
	cell := CellID{Module: "M", Test: "T", Deriv: "d", Platform: "golden"}
	other := CellID{Module: "M", Test: "T2", Deriv: "d", Platform: "golden"}
	for _, c := range []struct {
		name    string
		idShift int
		records []journal.Record
	}{
		{"misrouted", 1, []journal.Record{outcomeRecord(cell)}},
		{"no outcome record", 0, []journal.Record{{Kind: journal.KindStart, Module: "M", Test: "T",
			Deriv: "d", Platform: "golden", Attempt: 1}}},
		{"two outcome records", 0, []journal.Record{outcomeRecord(cell), outcomeRecord(cell)}},
		{"another cell's outcome", 0, []journal.Record{outcomeRecord(other)}},
	} {
		t.Run(c.name, func(t *testing.T) {
			d := &Daemon{Logf: t.Logf}
			d.queue = make(chan *task)
			d.quit = make(chan struct{})
			m, far := newTestMember("desynced", 50*time.Millisecond)
			defer far.Close()
			d.wg.Add(1)
			go d.serveMember(m)
			go func() {
				fc := NewConn(far, far)
				if f, err := fc.Read(); err == nil && f.Type == FrameJob {
					fc.Write(Frame{Type: FrameResult, Result: &Result{
						ID: f.Job.ID + c.idShift, Req: f.Job.Req, Worker: 9, Records: c.records,
					}})
				}
			}()
			results := make(chan *Result, 1)
			d.queue <- &task{job: &Job{ID: 4, Req: 8, Cell: cell}, done: results}
			select {
			case res := <-results:
				if msg := buildErr(t, res, cell); !strings.Contains(msg, "worker lost") {
					t.Fatalf("stray result was not treated as a lost worker: %q", msg)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("cell never broke on the desynced stream")
			}
			d.wg.Wait()
		})
	}
}

// memBackend is an in-memory Backend for store-channel tests.
type memBackend struct {
	mu    sync.Mutex
	store map[string][]byte
}

func (b *memBackend) Get(key string) ([]byte, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	data, ok := b.store[key]
	return data, ok
}

func (b *memBackend) Put(key string, data []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.store[key] = append([]byte(nil), data...)
	return nil
}

func (b *memBackend) Lock(key string) func() { return func() {} }

// TestRemoteStoreFetchThrough drives the store channel end to end over
// loopback TCP: puts fill the daemon's store, gets are checksummed on
// receipt, and the FetchThrough composite fills its local tier from
// remote hits.
func TestRemoteStoreFetchThrough(t *testing.T) {
	mem := &memBackend{store: map[string][]byte{}}
	d := &Daemon{Store: mem, Logf: t.Logf, RequestTimeout: 2 * time.Second}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			nc, err := l.Accept()
			if err != nil {
				return
			}
			go d.handleConn(nc)
		}
	}()
	rs, err := DialStore("tcp:"+l.Addr().String(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()

	if _, ok := rs.Get("absentkey1"); ok {
		t.Fatal("absent key hit")
	}
	payload := []byte("fleet artifact payload")
	if err := rs.Put("artifact-key-1", payload); err != nil {
		t.Fatal(err)
	}
	got, ok := rs.Get("artifact-key-1")
	if !ok || string(got) != string(payload) {
		t.Fatalf("round-trip = %q, %v", got, ok)
	}

	// Fetch-through: a remote hit fills the local tier, and the next
	// get never leaves the machine.
	local := &memBackend{store: map[string][]byte{}}
	ft := &FetchThrough{Local: local, Remote: rs}
	if data, ok := ft.Get("artifact-key-1"); !ok || string(data) != string(payload) {
		t.Fatalf("fetch-through get = %q, %v", data, ok)
	}
	if data, ok := local.Get("artifact-key-1"); !ok || string(data) != string(payload) {
		t.Fatalf("local tier not filled from remote hit: %q, %v", data, ok)
	}
	// Write-through: a put lands in both tiers.
	if err := ft.Put("artifact-key-2", []byte("second")); err != nil {
		t.Fatal(err)
	}
	if _, ok := mem.Get("artifact-key-2"); !ok {
		t.Fatal("put did not reach the daemon store")
	}
	if _, ok := local.Get("artifact-key-2"); !ok {
		t.Fatal("put did not reach the local tier")
	}
}

// TestStoreChecksumRejectedInTransit: a daemon reply whose payload does
// not match its checksum must read as a miss, never as a wrong
// artifact.
func TestStoreChecksumRejectedInTransit(t *testing.T) {
	server, client := net.Pipe()
	defer server.Close()
	rs := &RemoteStore{nc: client, conn: NewConn(client, client)}
	defer rs.Close()
	go func() {
		sc := NewConn(server, server)
		if f, err := sc.Read(); err == nil && f.Type == FrameStoreGet {
			sc.Write(Frame{Type: FrameStoreData, Store: &StoreFrame{
				Key: f.Store.Key, Data: []byte("bitflipped"), Sum: "deadbeef", OK: true,
			}})
		}
	}()
	if _, ok := rs.Get("corrupted-key"); ok {
		t.Fatal("checksum-mismatched payload accepted")
	}
}

// TestSplitAddr pins the scheme-prefix routing and the legacy
// heuristic, including the IPv6 zone-scoped and URL-style TCP addrs the
// bare '/' heuristic used to misroute.
func TestSplitAddr(t *testing.T) {
	cases := []struct{ in, network, addr string }{
		{"unix:/tmp/advm.sock", "unix", "/tmp/advm.sock"},
		{"unix:rel.socket", "unix", "rel.socket"},
		{"tcp:host:7777", "tcp", "host:7777"},
		{"tcp:[fe80::1%eth0/64]:7777", "tcp", "[fe80::1%eth0/64]:7777"},
		{"tcp:example.com/advm:7777", "tcp", "example.com/advm:7777"},
		{"/tmp/advm.sock", "unix", "/tmp/advm.sock"},
		{"advm-served.sock", "unix", "advm-served.sock"},
		{"host:7777", "tcp", "host:7777"},
		{"127.0.0.1:7777", "tcp", "127.0.0.1:7777"},
	}
	for _, c := range cases {
		network, addr := SplitAddr(c.in)
		if network != c.network || addr != c.addr {
			t.Errorf("SplitAddr(%q) = (%q, %q), want (%q, %q)",
				c.in, network, addr, c.network, c.addr)
		}
	}
}
