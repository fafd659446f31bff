package predecode

import (
	"encoding/binary"
	"sync"
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/obj"
)

// words encodes a program into a little-endian byte image.
func words(ws ...uint32) []byte {
	b := make([]byte, 4*len(ws))
	for i, w := range ws {
		binary.LittleEndian.PutUint32(b[4*i:], w)
	}
	return b
}

func testImage(base uint32, ws ...uint32) *obj.Image {
	return &obj.Image{
		Entry:    base,
		Segments: []obj.Segment{{Addr: base, Data: words(ws...)}},
	}
}

func TestForImageDecodesAndShares(t *testing.T) {
	const base, size = 0x1000, 0x2000
	prog := []uint32{
		isa.Inst{Op: isa.OpMovI, Imm: 5}.Encode(nil)[0], // MOVI d0, 5
	}
	// Build a real two-word instruction too: MOVX has an extension word.
	movx := isa.Inst{Op: isa.OpMovX, Imm: 0x12345678}.Encode(nil)
	img := testImage(base, append(prog, movx...)...)

	tbl := ForImage(img, base, size, 3)
	if tbl == nil {
		t.Fatal("nil table")
	}
	e := tbl.Lookup(base)
	if e == nil || !e.Valid || e.Size != 1 || e.Wait != 3 {
		t.Fatalf("entry 0: %+v", e)
	}
	if e.Inst.Op != isa.OpMovI || e.Inst.Imm != 5 {
		t.Fatalf("decoded %v", e.Inst)
	}
	e2 := tbl.Lookup(base + 4)
	if e2 == nil || e2.Size != 2 || e2.W1 != movx[1] {
		t.Fatalf("ext entry: %+v", e2)
	}
	if e2.Inst.Op != isa.OpMovX || e2.Inst.Imm != 0x12345678 {
		t.Fatalf("ext decoded %v", e2.Inst)
	}
	// Zero filler decodes as NOP (opcode 0) — valid, like a real fetch.
	if e3 := tbl.Lookup(base + 12); e3 == nil || e3.Inst.Op != isa.OpNop {
		t.Fatalf("filler entry: %+v", e3)
	}
	// Same (image, placement) yields the identical shared table.
	if again := ForImage(img, base, size, 3); again != tbl {
		t.Error("table not shared for identical image+placement")
	}
	// A different wait (another derivative's timing) is a different table.
	if other := ForImage(img, base, size, 5); other == tbl {
		t.Error("tables with different waits must not be shared")
	}
}

func TestLookupMisses(t *testing.T) {
	img := testImage(0x1000, 0xffffffff) // invalid opcode
	tbl := ForImage(img, 0x1000, 0x100, 1)
	cases := []struct {
		name string
		pc   uint32
	}{
		{"invalid encoding", 0x1000},
		{"misaligned", 0x1002},
		{"below base", 0xffc},
		{"past end", 0x1100},
	}
	for _, c := range cases {
		if e := tbl.Lookup(c.pc); e != nil {
			t.Errorf("%s: got entry %+v", c.name, e)
		}
	}
	var nilTbl *Table
	if nilTbl.Lookup(0x1000) != nil {
		t.Error("nil table must miss")
	}
	nilTbl.Invalidate(0x1000) // must not panic
}

func TestTruncatedExtAtRegionEdge(t *testing.T) {
	// A two-word instruction whose extension word falls outside the
	// region must not predecode: the slow path owns the fault.
	movx := isa.Inst{Op: isa.OpMovX, Imm: 1}.Encode(nil)
	img := testImage(0x1000, movx[0])
	tbl := ForImage(img, 0x1000, 4, 1)
	if e := tbl.Lookup(0x1000); e != nil {
		t.Fatalf("truncated ext predecoded: %+v", e)
	}
}

func TestOverlayInvalidation(t *testing.T) {
	var m mem.Memory
	const base, size = 0x2000, 0x1000
	m.AddRegion("ram", base, size, mem.PermRead|mem.PermWrite|mem.PermExec)
	movi := isa.Inst{Op: isa.OpMovI, Imm: 7}.Encode(nil)[0]
	if err := m.LoadBlob(base, words(movi, movi, movi)); err != nil {
		t.Fatal(err)
	}
	tbl := NewOverlay(&m, base, size, 2)

	// A store into a page never fetched from must NOT poison it: the
	// first fetch afterwards decodes the stored bytes.
	tbl.Invalidate(base + 8)
	e := tbl.Lookup(base)
	if e == nil || e.Inst.Imm != 7 {
		t.Fatalf("first fetch after cold store: %+v", e)
	}

	// A store into the now-decoded page poisons it permanently.
	tbl.Invalidate(base + 8)
	if tbl.Lookup(base) != nil {
		t.Fatal("decoded page not poisoned by store")
	}
	if tbl.Lookup(base+8) != nil {
		t.Fatal("poisoned page served an entry")
	}

	// Other pages are unaffected.
	if err := m.LoadBlob(base+0x400, words(movi)); err != nil {
		t.Fatal(err)
	}
	if e := tbl.Lookup(base + 0x400); e == nil {
		t.Fatal("unrelated page poisoned")
	}

	// A store just past a page boundary also poisons the previous page
	// (a two-word instruction can straddle it).
	if e := tbl.Lookup(base + 0x7fc); e == nil {
		t.Fatal("expected tail of page 1 to decode")
	}
	tbl.Invalidate(base + 0x800)
	if tbl.Lookup(base+0x7fc) != nil {
		t.Fatal("straddling store did not poison the preceding page")
	}
}

func TestStatsAccumulate(t *testing.T) {
	ResetStats()
	AddRunStats(10, 2)
	AddRunStats(5, 0)
	s := GlobalStats()
	if s.Hits != 15 || s.Slow != 2 {
		t.Fatalf("stats = %+v", s)
	}
	if s.String() == "" {
		t.Fatal("empty stats string")
	}
}

// TestAddRunStatsConcurrent drives AddRunStats from many goroutines —
// the regression-matrix worker pattern — and requires the package totals
// to come out exact. Run with -race this also proves the flush path is
// data-race free.
func TestAddRunStatsConcurrent(t *testing.T) {
	ResetStats()
	const workers, rounds = 16, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				AddRunStats(3, 1)
				AddRunStats(0, 0) // zero flush: must be a no-op everywhere
			}
		}()
	}
	wg.Wait()
	s := GlobalStats()
	if want := uint64(workers * rounds * 3); s.Hits != want {
		t.Errorf("hits = %d, want %d", s.Hits, want)
	}
	if want := uint64(workers * rounds); s.Slow != want {
		t.Errorf("slow = %d, want %d", s.Slow, want)
	}
}
