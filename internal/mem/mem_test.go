package mem

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func newTestMem() *Memory {
	m := &Memory{}
	m.AddRegion("rom", 0x0000, 0x1000, PermRead|PermExec)
	m.AddRegion("ram", 0x2000, 0x1000, PermRead|PermWrite)
	return m
}

func TestReadWriteWidths(t *testing.T) {
	m := newTestMem()
	if err := m.Write32(0x2000, 0xdeadbeef); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.Read32(0x2000, AccessRead); v != 0xdeadbeef {
		t.Errorf("Read32 = %#x", v)
	}
	// Little-endian byte order.
	if v, _ := m.Read8(0x2000, AccessRead); v != 0xef {
		t.Errorf("byte 0 = %#x", v)
	}
	if v, _ := m.Read8(0x2003, AccessRead); v != 0xde {
		t.Errorf("byte 3 = %#x", v)
	}
	if v, _ := m.Read16(0x2002, AccessRead); v != 0xdead {
		t.Errorf("half 1 = %#x", v)
	}
	if err := m.Write16(0x2000, 0x1234); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.Read32(0x2000, AccessRead); v != 0xdead1234 {
		t.Errorf("after half write = %#x", v)
	}
	if err := m.Write8(0x2001, 0xff); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.Read32(0x2000, AccessRead); v != 0xdeadff34 {
		t.Errorf("after byte write = %#x", v)
	}
}

func TestPermissions(t *testing.T) {
	m := newTestMem()
	if err := m.Write32(0x0000, 1); err == nil {
		t.Error("write to ROM should fault")
	}
	if _, err := m.Read32(0x2000, AccessFetch); err == nil {
		t.Error("fetch from non-exec RAM should fault")
	}
	if _, err := m.Read32(0x0000, AccessFetch); err != nil {
		t.Errorf("fetch from ROM: %v", err)
	}
	var f *Fault
	err := m.Write32(0x0000, 1)
	if !errors.As(err, &f) {
		t.Fatalf("expected *Fault, got %T", err)
	}
	if f.Kind != AccessWrite || f.Addr != 0 {
		t.Errorf("fault fields: %+v", f)
	}
	if f.Error() == "" {
		t.Error("fault message empty")
	}
}

func TestRelaxedMode(t *testing.T) {
	m := newTestMem()
	m.SetRelaxed(true)
	if err := m.Write32(0x0000, 0x42); err != nil {
		t.Fatalf("relaxed ROM write: %v", err)
	}
	m.SetRelaxed(false)
	if v, _ := m.Read32(0x0000, AccessRead); v != 0x42 {
		t.Errorf("ROM content = %#x", v)
	}
}

func TestUnmappedAndStraddle(t *testing.T) {
	m := newTestMem()
	if _, err := m.Read32(0x5000, AccessRead); err == nil {
		t.Error("unmapped read should fault")
	}
	// Word access straddling the end of a region.
	if _, err := m.Read32(0x0ffe, AccessRead); err == nil {
		t.Error("straddling read should fault")
	}
	if _, err := m.Read32(0x2ffe, AccessRead); err == nil {
		t.Error("read past region end should fault")
	}
}

func TestMisaligned(t *testing.T) {
	m := newTestMem()
	if _, err := m.Read32(0x2001, AccessRead); err == nil {
		t.Error("misaligned word read should fault")
	}
	if _, err := m.Read16(0x2001, AccessRead); err == nil {
		t.Error("misaligned half read should fault")
	}
	if err := m.Write32(0x2002, 0); err == nil {
		t.Error("misaligned word write should fault")
	}
}

func TestFindRegion(t *testing.T) {
	m := newTestMem()
	if r := m.FindRegion(0x2000); r == nil || r.Name != "ram" {
		t.Errorf("FindRegion(0x2000) = %v", r)
	}
	if r := m.FindRegion(0x2fff); r == nil || r.Name != "ram" {
		t.Errorf("FindRegion(0x2fff) = %v", r)
	}
	if r := m.FindRegion(0x3000); r != nil {
		t.Errorf("FindRegion(0x3000) = %v, want nil", r)
	}
	if r := m.FindRegion(0x1800); r != nil {
		t.Errorf("FindRegion in hole = %v, want nil", r)
	}
}

func TestOverlapPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on overlapping region")
		}
	}()
	m := newTestMem()
	m.AddRegion("bad", 0x0800, 0x1000, PermRead)
}

func TestZeroSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on zero-size region")
		}
	}()
	(&Memory{}).AddRegion("empty", 0, 0, PermRead)
}

func TestWatchpoints(t *testing.T) {
	m := newTestMem()
	var hits []uint32
	m.AddWatchpoint(Watchpoint{
		Lo: 0x2010, Hi: 0x201f, Kind: AccessWrite,
		Hit: func(addr uint32, _ Access, v uint32) { hits = append(hits, addr, v) },
	})
	_ = m.Write32(0x2000, 1) // outside
	_ = m.Write32(0x2010, 7) // inside
	_, _ = m.Read32(0x2010, AccessRead)
	if len(hits) != 2 || hits[0] != 0x2010 || hits[1] != 7 {
		t.Errorf("watchpoint hits = %v", hits)
	}
	m.ClearWatchpoints()
	_ = m.Write32(0x2010, 9)
	if len(hits) != 2 {
		t.Error("watchpoint fired after clear")
	}
}

func TestLoadBlobAndDump(t *testing.T) {
	m := newTestMem()
	blob := []byte{1, 2, 3, 4, 5}
	if err := m.LoadBlob(0x0ffd, blob); err == nil {
		t.Error("LoadBlob straddling into a hole should fail")
	}
	if err := m.LoadBlob(0x0100, blob); err != nil {
		t.Fatal(err)
	}
	got, err := m.Dump(0x0100, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range blob {
		if got[i] != blob[i] {
			t.Fatalf("dump mismatch at %d: %v", i, got)
		}
	}
	if _, err := m.Dump(0x4000, 1); err == nil {
		t.Error("dump of unmapped should fail")
	}
}

// TestReadWriteProperty: a 32-bit write followed by a read returns the
// value, at any aligned RAM address.
func TestReadWriteProperty(t *testing.T) {
	m := newTestMem()
	f := func(off uint16, v uint32) bool {
		addr := 0x2000 + uint32(off)%0xffc
		addr &^= 3
		if err := m.Write32(addr, v); err != nil {
			return false
		}
		got, err := m.Read32(addr, AccessRead)
		return err == nil && got == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// TestEndianProperty: word write equals four byte writes little-endian.
func TestEndianProperty(t *testing.T) {
	m := newTestMem()
	f := func(v uint32) bool {
		_ = m.Write32(0x2000, v)
		for i := 0; i < 4; i++ {
			b, _ := m.Read8(0x2000+uint32(i), AccessRead)
			if b != byte(v>>(8*i)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// newPagedMem maps two adjacent multi-page regions, so accesses and
// copies can cross page boundaries inside a region and the boundary
// between regions, with a hole after them.
func newPagedMem() *Memory {
	m := &Memory{}
	m.AddRegion("ram", 0x10000, 3*pageSize, PermRead|PermWrite)
	m.AddRegion("nvm", 0x13000, 2*pageSize, PermRead)
	return m
}

// allocated counts the pages a region has materialised.
func allocated(r *Region) int {
	n := 0
	for _, p := range r.pages {
		if p != nil {
			n++
		}
	}
	return n
}

func TestMultiPageRegions(t *testing.T) {
	m := newPagedMem()
	ram := m.FindRegion(0x10000)
	if len(ram.pages) != 3 || allocated(ram) != 0 {
		t.Fatalf("fresh 3-page region: %d pages, %d allocated", len(ram.pages), allocated(ram))
	}
	// One word at the start of every page, read back in reverse order.
	for i := uint32(0); i < 3; i++ {
		if err := m.Write32(0x10000+i*pageSize, 0x1000+i); err != nil {
			t.Fatal(err)
		}
	}
	for i := int32(2); i >= 0; i-- {
		if v, _ := m.Read32(0x10000+uint32(i)*pageSize, AccessRead); v != 0x1000+uint32(i) {
			t.Errorf("page %d word = %#x", i, v)
		}
	}
	if allocated(ram) != 3 {
		t.Errorf("allocated pages = %d, want 3", allocated(ram))
	}
	// The last word of the last page.
	if err := m.Write32(0x12ffc, 0xcafef00d); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.Read32(0x12ffc, AccessRead); v != 0xcafef00d {
		t.Errorf("last word = %#x", v)
	}
}

func TestUnwrittenPagesReadZero(t *testing.T) {
	m := newPagedMem()
	for _, addr := range []uint32{0x10000, 0x11ffc, 0x12800, 0x14ffc} {
		if v, err := m.Read32(addr, AccessRead); err != nil || v != 0 {
			t.Errorf("Read32(%#x) = %#x, %v; want 0", addr, v, err)
		}
		if v, err := m.Read16(addr+2, AccessRead); err != nil || v != 0 {
			t.Errorf("Read16(%#x) = %#x, %v; want 0", addr+2, v, err)
		}
		if v, err := m.Read8(addr+3, AccessRead); err != nil || v != 0 {
			t.Errorf("Read8(%#x) = %#x, %v; want 0", addr+3, v, err)
		}
	}
	// Zeros written anywhere, by any width or by LoadBlob, are already
	// there: no page is allocated for them.
	_ = m.Write32(0x10000, 0)
	_ = m.Write16(0x11000, 0)
	_ = m.Write8(0x12000, 0)
	if err := m.LoadBlob(0x10000, make([]byte, 5*pageSize)); err != nil {
		t.Fatal(err)
	}
	for _, r := range m.Regions() {
		if n := allocated(r); n != 0 {
			t.Errorf("region %s allocated %d pages for zeros", r.Name, n)
		}
	}
	// A non-zero write allocates exactly its page; zeros then overwrite.
	_ = m.Write8(0x11001, 0x5a)
	if n := allocated(m.FindRegion(0x10000)); n != 1 {
		t.Errorf("allocated pages after one byte = %d, want 1", n)
	}
	_ = m.LoadBlob(0x11000, make([]byte, 4))
	if v, _ := m.Read8(0x11001, AccessRead); v != 0 {
		t.Errorf("zero load over a written page left %#x", v)
	}
}

func TestRelaxedStraddlesPages(t *testing.T) {
	m := newPagedMem()
	m.SetRelaxed(true)
	// A word and a halfword across the page boundary at 0x11000, and a
	// word across the one at 0x14000 inside the read-only NVM.
	if err := m.Write32(0x10ffe, 0x44332211); err != nil {
		t.Fatalf("straddling Write32: %v", err)
	}
	if err := m.Write16(0x11fff, 0xbbaa); err != nil {
		t.Fatalf("straddling Write16: %v", err)
	}
	if err := m.Write32(0x13ffd, 0x88776655); err != nil {
		t.Fatalf("straddling NVM Write32: %v", err)
	}
	for _, c := range []struct {
		addr uint32
		want uint32
	}{{0x10ffe, 0x44332211}, {0x13ffd, 0x88776655}, {0x10fff, 0x00443322}} {
		if v, err := m.Read32(c.addr, AccessRead); err != nil || v != c.want {
			t.Errorf("Read32(%#x) = %#x, %v; want %#x", c.addr, v, err, c.want)
		}
	}
	if v, _ := m.Read16(0x11fff, AccessRead); v != 0xbbaa {
		t.Errorf("straddling Read16 = %#x", v)
	}
	m.SetRelaxed(false)
	want := []byte{0x11, 0x22, 0x33, 0x44}
	for i, b := range want {
		if v, _ := m.Read8(0x10ffe+uint32(i), AccessRead); v != b {
			t.Errorf("byte %#x = %#x, want %#x", 0x10ffe+i, v, b)
		}
	}
	// Strict mode still refuses the same accesses as misaligned.
	if _, err := m.Read32(0x10ffe, AccessRead); err == nil {
		t.Error("strict misaligned read across pages should fault")
	}
	// A relaxed word straddling the region end still faults.
	m.SetRelaxed(true)
	if _, err := m.Read32(0x14ffe, AccessRead); err == nil {
		t.Error("relaxed read past the last region should fault")
	}
}

func TestLoadBlobAcrossPagesAndRegions(t *testing.T) {
	m := newPagedMem()
	blob := make([]byte, 2*pageSize+16)
	for i := range blob {
		blob[i] = byte(i*7 + 1)
	}
	// From inside the RAM's second page, across its third and into NVM.
	const at = 0x11ff8
	if err := m.LoadBlob(at, blob); err != nil {
		t.Fatal(err)
	}
	got, err := m.Dump(at, len(blob))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, blob) {
		t.Fatal("dump across pages and regions differs from the loaded blob")
	}
	// Running off the end of NVM writes every mapped byte, then faults at
	// the first unmapped one.
	err = m.LoadBlob(0x14ffe, []byte{0xa1, 0xa2, 0xa3, 0xa4})
	var f *Fault
	if !errors.As(err, &f) || f.Addr != 0x15000 || f.Kind != AccessWrite {
		t.Fatalf("load off the end: %v", err)
	}
	if v, _ := m.Read16(0x14ffe, AccessRead); v != 0xa2a1 {
		t.Errorf("mapped prefix = %#x, want 0xa2a1", v)
	}
	// A load that starts in a hole writes nothing.
	if err := m.LoadBlob(0xfffc, []byte{9, 9, 9, 9, 9, 9}); err == nil {
		t.Error("load starting in a hole should fail")
	}
	if v, _ := m.Read16(0x10000, AccessRead); v != 0 {
		t.Errorf("load from a hole wrote %#x", v)
	}
}

func TestDumpAcrossPages(t *testing.T) {
	m := newPagedMem()
	_ = m.Write32(0x10ffc, 0x04030201)
	_ = m.Write32(0x12000, 0x08070605)
	got, err := m.Dump(0x10ffc, 0x1008)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0x1008 {
		t.Fatalf("dump length %d", len(got))
	}
	if !bytes.Equal(got[:4], []byte{1, 2, 3, 4}) || !bytes.Equal(got[0x1004:], []byte{5, 6, 7, 8}) {
		t.Errorf("dump ends = %v ... %v", got[:4], got[0x1004:])
	}
	for i, b := range got[4:0x1004] {
		if b != 0 {
			t.Fatalf("unwritten page byte %d = %#x", i+4, b)
		}
	}
	var f *Fault
	if _, err := m.Dump(0x14ff0, 0x20); !errors.As(err, &f) || f.Addr != 0x15000 || f.Kind != AccessRead {
		t.Errorf("dump off the end: %v", err)
	}
}

func TestWatchpointOnFreshPage(t *testing.T) {
	m := newPagedMem()
	var hits []uint32
	m.AddWatchpoint(Watchpoint{
		Lo: 0x11ffc, Hi: 0x12003, Kind: AccessWrite,
		Hit: func(addr uint32, _ Access, v uint32) { hits = append(hits, addr, v) },
	})
	// A zero written to a page never written allocates nothing but is
	// still a write the watchpoint sees; a non-zero one allocates.
	if err := m.Write8(0x11ffc, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Write32(0x12000, 0x77); err != nil {
		t.Fatal(err)
	}
	if len(hits) != 4 || hits[0] != 0x11ffc || hits[1] != 0 || hits[2] != 0x12000 || hits[3] != 0x77 {
		t.Errorf("watchpoint hits = %v", hits)
	}
	if n := allocated(m.FindRegion(0x10000)); n != 1 {
		t.Errorf("allocated pages = %d, want 1", n)
	}
}
