// E19 — the persistent content-addressed artifact store and the sharded
// multi-process matrix: (a) a restarted process pointed at a warm store
// re-runs the full matrix without rebuilding or re-simulating any
// deterministic work (100% ≥ the 95% acceptance floor), with an
// identical outcome table; (b) the same frozen spec sharded across four
// worker processes by the advm-served daemon produces a byte-identical
// masked journal and outcome table to the serial in-process pool,
// deterministically; (c) benchmarks separate the cold matrix from a
// warm-restart matrix over the store. See EXPERIMENTS.md (E19).
package repro

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"testing"

	"repro/advm"
)

// e19Run executes the full family × all-platforms matrix with fresh
// caches attached to store (which may be nil) and returns the report
// plus the caches for stats inspection.
func e19Run(t testing.TB, store *advm.ArtifactStore, workers int) (*advm.RegressionReport, *advm.BuildCache, *advm.RunCache) {
	t.Helper()
	sys := advm.StandardSystem()
	sl, err := advm.FreezeSystem("E19", sys)
	if err != nil {
		t.Fatal(err)
	}
	bc, rc := advm.NewBuildCache(), advm.NewRunCache()
	if store != nil {
		advm.AttachArtifactStore(store, bc, rc)
	}
	rep, err := advm.Regress(sys, sl, advm.RegressionSpec{
		Workers: workers, Cache: bc, RunCache: rc, SkipVet: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rep, bc, rc
}

// TestE19_WarmRestartReusesStore is acceptance (a): a fresh process —
// modelled as fresh in-memory caches over the same store directory —
// re-running the full matrix must serve every deterministic build and
// run from the store, with the identical outcome table.
func TestE19_WarmRestartReusesStore(t *testing.T) {
	dir := t.TempDir()
	store, err := advm.OpenArtifactStore(dir, advm.ArtifactStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cold, _, _ := e19Run(t, store, 4)
	if !cold.AllPassed() {
		t.Fatal("cold matrix failed")
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	// The restart: a brand-new store handle over the same directory,
	// brand-new caches.
	store2, err := advm.OpenArtifactStore(dir, advm.ArtifactStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	warm, bc2, rc2 := e19Run(t, store2, 4)
	if !warm.AllPassed() {
		t.Fatal("warm matrix failed")
	}

	// 100% of build work and 100% of deterministic run work from disk:
	// zero misses, and the 252 cacheable cells (21 tests × 4 derivs ×
	// {golden, rtl, gate}) all disk hits.
	bs, rs := bc2.Stats(), rc2.Stats()
	if bs.Misses != 0 || bs.DiskHits == 0 {
		t.Fatalf("restarted build cache rebuilt artifacts: %+v", bs)
	}
	if rs.Misses != 0 || rs.DiskHits != 252 {
		t.Fatalf("restarted run cache re-simulated outcomes: %+v", rs)
	}

	// And the outcome table is the same matrix verdict, cell for cell.
	coldCells, _ := json.Marshal(cold.BundleCells())
	warmCells, _ := json.Marshal(warm.BundleCells())
	if !bytes.Equal(coldCells, warmCells) {
		t.Fatal("warm-restart outcome table diverges from the cold run")
	}
}

// TestE19WorkerProcess is the worker the sharded test re-executes this
// binary into; guarded by env so it is skipped in a normal run.
func TestE19WorkerProcess(t *testing.T) {
	if os.Getenv("ADVM_E19_WORKER") != "1" {
		t.Skip("worker helper process")
	}
	opts := advm.ShardWorkerOptions{NewSystem: advm.StandardSystem}
	if dir := os.Getenv("ADVM_E19_STORE"); dir != "" {
		store, err := advm.OpenArtifactStore(dir, advm.ArtifactStoreOptions{})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer store.Close()
		opts.Store = store
	}
	if err := advm.RunShardWorker(os.Stdin, os.Stdout, opts); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// TestE19_ShardedMatchesSerial is acceptance (b): the full matrix
// sharded across four worker processes — sharing one persistent store —
// produces a byte-identical masked journal and outcome table to the
// serial in-process pool.
func TestE19_ShardedMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns four worker processes")
	}
	storeDir := t.TempDir()
	d := &advm.ShardDaemon{
		NewSystem: advm.StandardSystem,
		Workers:   4,
		WorkerCommand: func(id int) *exec.Cmd {
			cmd := exec.Command(os.Args[0], "-test.run=^TestE19WorkerProcess$")
			cmd.Env = append(os.Environ(),
				"ADVM_E19_WORKER=1",
				"ADVM_E19_WORKER_ID="+strconv.Itoa(id),
				"ADVM_E19_STORE="+storeDir)
			cmd.Stderr = os.Stderr
			return cmd
		},
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	sock := filepath.Join(t.TempDir(), "advm.sock")
	l, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go d.Serve(l)

	reply, err := advm.ShardRegress(sock, advm.ShardRequest{Label: "E19", SkipVet: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(reply.Outcomes); n != 504 {
		t.Fatalf("sharded matrix ran %d cells, want 504", n)
	}

	// The serial reference: same label, fresh caches, one process.
	sys := advm.StandardSystem()
	sl, err := advm.FreezeSystem("E19", sys)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Plan.Epoch != sl.Epoch() {
		t.Fatalf("daemon epoch %s != local %s", reply.Plan.Epoch, sl.Epoch())
	}
	var serialBuf bytes.Buffer
	jw := advm.NewJournalWriter(&serialBuf)
	serial, err := advm.Regress(sys, sl, advm.RegressionSpec{
		Cache: advm.NewBuildCache(), RunCache: advm.NewRunCache(),
		SkipVet: true, Journal: jw,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}

	serialCells, _ := json.Marshal(serial.BundleCells())
	shardCells, _ := json.Marshal(reply.Report().BundleCells())
	if !bytes.Equal(serialCells, shardCells) {
		t.Fatal("sharded outcome table diverges from the serial pool")
	}

	var shardBuf bytes.Buffer
	sw := advm.NewJournalWriter(&shardBuf)
	for _, r := range reply.Journal {
		sw.Emit(r)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	serialMasked, err := advm.MaskJournal(serialBuf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	shardMasked, err := advm.MaskJournal(shardBuf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serialMasked, shardMasked) {
		t.Fatalf("masked journals diverge (serial %d bytes, sharded %d bytes)",
			len(serialMasked), len(shardMasked))
	}
}

// e19Bench runs the golden-family matrix with fresh caches over store.
func e19Bench(b *testing.B, store *advm.ArtifactStore) {
	b.Helper()
	sys := advm.StandardSystem()
	sl, err := advm.FreezeSystem("E19", sys)
	if err != nil {
		b.Fatal(err)
	}
	bc, rc := advm.NewBuildCache(), advm.NewRunCache()
	if store != nil {
		advm.AttachArtifactStore(store, bc, rc)
	}
	rep, err := advm.Regress(sys, sl, advm.RegressionSpec{
		Kinds: []advm.Kind{advm.KindGolden},
		Cache: bc, RunCache: rc, SkipVet: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	if !rep.AllPassed() {
		b.Fatal("matrix failed")
	}
}

// BenchmarkE19_ColdMatrix is the baseline: golden-family matrix, fresh
// caches, no persistent store — every cell builds and simulates.
func BenchmarkE19_ColdMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e19Bench(b, nil)
	}
}

// BenchmarkE19_WarmRestart is the restart story: each iteration is a
// fresh process-worth of caches over a store warmed once — the cost of
// the matrix when every artifact and outcome is a disk hit.
func BenchmarkE19_WarmRestart(b *testing.B) {
	store, err := advm.OpenArtifactStore(b.TempDir(), advm.ArtifactStoreOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	e19Bench(b, store) // warm it
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e19Bench(b, store)
	}
}
