package memo

import (
	"fmt"
	"os"
	"os/exec"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core/castore"
)

// memBackend is a Backend over a plain map, with fault hooks.
type memBackend struct {
	mu      sync.Mutex
	store   map[string][]byte
	gets    int
	puts    int
	failPut bool
}

func newMemBackend() *memBackend { return &memBackend{store: map[string][]byte{}} }

func (b *memBackend) Get(key string) ([]byte, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.gets++
	data, ok := b.store[key]
	return data, ok
}

func (b *memBackend) Put(key string, data []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.failPut {
		return fmt.Errorf("backend full")
	}
	b.puts++
	b.store[key] = append([]byte(nil), data...)
	return nil
}

func (b *memBackend) Lock(key string) func() { return func() {} }

// stringEnc and stringDec are the test codec: values are strings, bytes
// are their UTF-8.
func stringEnc(v string) ([]byte, bool) { return []byte(v), true }

func stringDec(data []byte) (string, int64, bool) {
	return string(data), int64(len(data)), true
}

func TestBackendWriteThroughAndDiskHit(t *testing.T) {
	be := newMemBackend()
	c1 := New[string](nil)
	c1.SetBackend(be, stringEnc, stringDec)
	fills := 0
	fill := func() (string, int64, error) { fills++; return "artifact", int64(8), nil }

	if v, err := c1.Do("key1", fill); err != nil || v != "artifact" {
		t.Fatalf("Do = %v, %v", v, err)
	}
	if fills != 1 || be.puts != 1 {
		t.Fatalf("fills=%d puts=%d after cold Do", fills, be.puts)
	}

	// A second cache over the same backend is the "restarted process":
	// its miss must be answered from the store without filling.
	c2 := New[string](nil)
	c2.SetBackend(be, stringEnc, stringDec)
	if v, err := c2.Do("key1", fill); err != nil || v != "artifact" {
		t.Fatalf("restarted Do = %v, %v", v, err)
	}
	if fills != 1 {
		t.Fatal("restart re-ran the fill despite a stored entry")
	}
	st := c2.Stats()
	if st.DiskHits != 1 || st.Misses != 0 {
		t.Fatalf("restarted stats = %+v, want 1 disk hit, 0 misses", st)
	}
	if st.Reuse() != 100 {
		t.Fatalf("restarted reuse = %.1f, want 100", st.Reuse())
	}

	// And the in-memory tier now answers without touching the backend.
	gets := be.gets
	if _, err := c2.Do("key1", fill); err != nil {
		t.Fatal(err)
	}
	if be.gets != gets {
		t.Fatal("memory hit consulted the backend")
	}
}

func TestBackendErrorsNotPersisted(t *testing.T) {
	be := newMemBackend()
	c := New[string](nil)
	c.SetBackend(be, stringEnc, stringDec)
	if _, err := c.Do("bad", func() (string, int64, error) { return "", 0, fmt.Errorf("boom") }); err == nil {
		t.Fatal("fill error swallowed")
	}
	if be.puts != 0 {
		t.Fatal("failed fill was written to the backend")
	}
}

func TestBackendPutFailureDegradesGracefully(t *testing.T) {
	be := newMemBackend()
	be.failPut = true
	c := New[string](nil)
	c.SetBackend(be, stringEnc, stringDec)
	v, err := c.Do("key", func() (string, int64, error) { return "v", 1, nil })
	if err != nil || v != "v" {
		t.Fatalf("Do with failing backend = %v, %v", v, err)
	}
	// The in-memory tier still has it.
	v, err = c.Do("key", func() (string, int64, error) { t.Fatal("refilled"); return "", 0, nil })
	if err != nil || v != "v" {
		t.Fatalf("second Do = %v, %v", v, err)
	}
}

func TestBackendUndecodablePayloadFallsThrough(t *testing.T) {
	be := newMemBackend()
	be.store["key"] = []byte("stored")
	c := New[string](nil)
	rejectDec := func(data []byte) (string, int64, bool) { return "", 0, false }
	c.SetBackend(be, stringEnc, rejectDec)
	v, err := c.Do("key", func() (string, int64, error) { return "fresh", 5, nil })
	if err != nil || v != "fresh" {
		t.Fatalf("Do = %v, %v; want the fill to run when decode rejects", v, err)
	}
	if st := c.Stats(); st.DiskHits != 0 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestDoTwoProcesses runs two whole processes, each with its own cache
// over one shared artifact store, racing Do on the same key: the store's
// per-key lock must let exactly one fill run.
func TestDoTwoProcesses(t *testing.T) {
	dir := t.TempDir()
	run := func(out *[]byte, wg *sync.WaitGroup) {
		defer wg.Done()
		cmd := exec.Command(os.Args[0], "-test.run=^TestMemoHelperProcess$", "-test.v")
		cmd.Env = append(os.Environ(), "MEMO_HELPER_DIR="+dir)
		b, err := cmd.CombinedOutput()
		if err != nil {
			t.Errorf("helper process: %v\n%s", err, b)
		}
		*out = b
	}
	var wg sync.WaitGroup
	wg.Add(2)
	var out1, out2 []byte
	go run(&out1, &wg)
	go run(&out2, &wg)
	wg.Wait()
	combined := string(out1) + string(out2)
	if n := strings.Count(combined, "memo-helper: filled"); n != 1 {
		t.Fatalf("%d processes ran the fill, want exactly 1:\n%s", n, combined)
	}
	if n := strings.Count(combined, "memo-helper: got the one payload"); n != 2 {
		t.Fatalf("%d processes saw the payload, want 2:\n%s", n, combined)
	}
}

// TestMemoHelperProcess is not a test: it is the subprocess body of
// TestDoTwoProcesses, guarded by the environment variable.
func TestMemoHelperProcess(t *testing.T) {
	dir := os.Getenv("MEMO_HELPER_DIR")
	if dir == "" {
		t.Skip("helper process for TestDoTwoProcesses")
	}
	store, err := castore.Open(dir, castore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := New[string](nil)
	c.SetBackend(store, stringEnc, stringDec)
	v, err := c.Do("kxproc0000000000000000", func() (string, int64, error) {
		fmt.Println("memo-helper: filled")
		// Hold the key long enough that the sibling process arrives
		// while the fill is in flight and must wait on the lock.
		time.Sleep(300 * time.Millisecond)
		return "the one payload", 15, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	fmt.Printf("memo-helper: got %s\n", v)
}
