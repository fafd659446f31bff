// Package mem provides the byte-addressable memory model used by every
// SC88 execution platform: fixed-size RAM/ROM/NVM regions with access
// permissions, watchpoints, and fault reporting. All multi-byte accesses
// are little-endian.
//
// Regions are paged: a region holds one pointer per 4 KiB span and
// allocates that page on the first write of a non-zero byte into it.
// A page never written reads as zero, so building a chip costs its
// memory map, not its memory, and a test pays only for the pages it
// touches.
package mem

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
)

// pageSize is the allocation granularity of region storage.
const (
	pageShift = 12
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

// page is one span of region storage.
type page = [pageSize]byte

// zeroPage is never written: a chunk equal to its prefix needs no page.
var zeroPage page

// Perm is a bitmask of permitted access kinds for a region.
type Perm uint8

// Permission bits.
const (
	PermRead Perm = 1 << iota
	PermWrite
	PermExec
)

// Access identifies the kind of a memory access, for fault reporting and
// watchpoints.
type Access uint8

// Access kinds.
const (
	AccessRead Access = iota
	AccessWrite
	AccessFetch
)

func (a Access) String() string {
	switch a {
	case AccessRead:
		return "read"
	case AccessWrite:
		return "write"
	case AccessFetch:
		return "fetch"
	}
	return "access?"
}

// Fault describes a failed memory access.
type Fault struct {
	Addr   uint32
	Size   int
	Kind   Access
	Reason string
}

func (f *Fault) Error() string {
	return fmt.Sprintf("memory fault: %s of %d byte(s) at 0x%08x: %s", f.Kind, f.Size, f.Addr, f.Reason)
}

// Region is a contiguous span of memory with uniform permissions.
type Region struct {
	Name string
	Base uint32
	Size uint32
	Perm Perm
	// pages[i] backs region offsets [i*pageSize, (i+1)*pageSize); nil
	// until a non-zero byte is written there.
	pages []*page
}

// Contains reports whether addr lies inside the region.
func (r *Region) Contains(addr uint32) bool {
	return addr >= r.Base && addr-r.Base < r.Size
}

// pageAt returns the page holding region offset off, allocating it when
// it is absent and alloc is set. A nil result is an all-zero page.
func (r *Region) pageAt(off uint32, alloc bool) *page {
	p := r.pages[off>>pageShift]
	if p == nil && alloc {
		p = new(page)
		r.pages[off>>pageShift] = p
	}
	return p
}

// copyOut fills out from region offset off, a page at a time.
func (r *Region) copyOut(off uint32, out []byte) {
	for len(out) > 0 {
		o := off & pageMask
		n := min(len(out), pageSize-int(o))
		if p := r.pages[off>>pageShift]; p != nil {
			copy(out[:n], p[o:])
		} else {
			clear(out[:n])
		}
		out, off = out[n:], off+uint32(n)
	}
}

// copyIn stores data at region offset off, a page at a time. Zeros bound
// for a page never written are already there and allocate nothing.
func (r *Region) copyIn(off uint32, data []byte) {
	for len(data) > 0 {
		o := off & pageMask
		n := min(len(data), pageSize-int(o))
		if p := r.pageAt(off, !bytes.Equal(data[:n], zeroPage[:n])); p != nil {
			copy(p[o:], data[:n])
		}
		data, off = data[n:], off+uint32(n)
	}
}

// Watchpoint triggers a callback when an address range is accessed. Used by
// the bondout platform's debug hardware.
type Watchpoint struct {
	Lo, Hi uint32 // inclusive range
	Kind   Access
	Hit    func(addr uint32, kind Access, value uint32)
}

// Memory is an ordered set of regions. The zero value is an empty memory
// in which every access faults.
type Memory struct {
	regions []*Region
	watches []Watchpoint
	// Relaxed disables permission checks (write-to-ROM etc). The loader
	// uses it to initialise ROM contents.
	relaxed bool
}

// AddRegion creates a region and returns it. Overlapping regions are an
// error: the SoC memory map is constructed once at platform build time, so
// AddRegion panics on overlap to fail fast during bring-up.
func (m *Memory) AddRegion(name string, base, size uint32, perm Perm) *Region {
	if size == 0 {
		panic(fmt.Sprintf("mem: region %q has zero size", name))
	}
	for _, r := range m.regions {
		if base < r.Base+r.Size && r.Base < base+size {
			panic(fmt.Sprintf("mem: region %q [0x%x,0x%x) overlaps %q [0x%x,0x%x)",
				name, base, base+size, r.Name, r.Base, r.Base+r.Size))
		}
	}
	reg := &Region{Name: name, Base: base, Size: size, Perm: perm,
		pages: make([]*page, (uint64(size)+pageMask)>>pageShift)}
	m.regions = append(m.regions, reg)
	slices.SortFunc(m.regions, func(a, b *Region) int { return cmp.Compare(a.Base, b.Base) })
	return reg
}

// Regions returns the regions in ascending base order.
func (m *Memory) Regions() []*Region { return m.regions }

// FindRegion returns the region containing addr, or nil.
func (m *Memory) FindRegion(addr uint32) *Region {
	// Binary search over sorted regions.
	lo, hi := 0, len(m.regions)
	for lo < hi {
		mid := (lo + hi) / 2
		r := m.regions[mid]
		switch {
		case addr < r.Base:
			hi = mid
		case addr-r.Base >= r.Size:
			lo = mid + 1
		default:
			return r
		}
	}
	return nil
}

// AddWatchpoint registers a watchpoint. Watchpoints fire after a
// successful access.
func (m *Memory) AddWatchpoint(w Watchpoint) { m.watches = append(m.watches, w) }

// ClearWatchpoints removes all watchpoints.
func (m *Memory) ClearWatchpoints() { m.watches = nil }

// SetRelaxed toggles permission checking. With relaxed=true all regions
// are readable and writable; used by image loaders and debug pokes.
func (m *Memory) SetRelaxed(relaxed bool) { m.relaxed = relaxed }

func (m *Memory) check(addr uint32, size int, kind Access) (*Region, error) {
	r := m.FindRegion(addr)
	if r == nil || !r.Contains(addr+uint32(size)-1) {
		return nil, &Fault{Addr: addr, Size: size, Kind: kind, Reason: "unmapped"}
	}
	if m.relaxed {
		return r, nil
	}
	var need Perm
	switch kind {
	case AccessRead:
		need = PermRead
	case AccessWrite:
		need = PermWrite
	case AccessFetch:
		need = PermExec
	}
	if r.Perm&need == 0 {
		return nil, &Fault{Addr: addr, Size: size, Kind: kind,
			Reason: fmt.Sprintf("%s not permitted in region %q", kind, r.Name)}
	}
	if size > 1 && addr%uint32(size) != 0 {
		return nil, &Fault{Addr: addr, Size: size, Kind: kind, Reason: "misaligned"}
	}
	return r, nil
}

func (m *Memory) fire(addr uint32, kind Access, value uint32) {
	for i := range m.watches {
		w := &m.watches[i]
		if w.Kind == kind && addr >= w.Lo && addr <= w.Hi && w.Hit != nil {
			w.Hit(addr, kind, value)
		}
	}
}

// Read8 reads one byte.
func (m *Memory) Read8(addr uint32, kind Access) (byte, error) {
	r, err := m.check(addr, 1, kind)
	if err != nil {
		return 0, err
	}
	var v byte
	off := addr - r.Base
	if p := r.pages[off>>pageShift]; p != nil {
		v = p[off&pageMask]
	}
	m.fire(addr, kind, uint32(v))
	return v, nil
}

// Write8 writes one byte.
func (m *Memory) Write8(addr uint32, v byte) error {
	r, err := m.check(addr, 1, AccessWrite)
	if err != nil {
		return err
	}
	off := addr - r.Base
	if p := r.pageAt(off, v != 0); p != nil {
		p[off&pageMask] = v
	}
	m.fire(addr, AccessWrite, uint32(v))
	return nil
}

// Read16 reads a little-endian halfword.
func (m *Memory) Read16(addr uint32, kind Access) (uint16, error) {
	r, err := m.check(addr, 2, kind)
	if err != nil {
		return 0, err
	}
	var b [2]byte
	r.copyOut(addr-r.Base, b[:])
	v := binary.LittleEndian.Uint16(b[:])
	m.fire(addr, kind, uint32(v))
	return v, nil
}

// Write16 writes a little-endian halfword.
func (m *Memory) Write16(addr uint32, v uint16) error {
	r, err := m.check(addr, 2, AccessWrite)
	if err != nil {
		return err
	}
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], v)
	r.copyIn(addr-r.Base, b[:])
	m.fire(addr, AccessWrite, uint32(v))
	return nil
}

// Read32 reads a little-endian word.
func (m *Memory) Read32(addr uint32, kind Access) (uint32, error) {
	r, err := m.check(addr, 4, kind)
	if err != nil {
		return 0, err
	}
	// Words carry every interpreted fetch, so one inside a page is read
	// in place; only a relaxed misaligned word can straddle two.
	var v uint32
	off := addr - r.Base
	if o := off & pageMask; o <= pageSize-4 {
		if p := r.pages[off>>pageShift]; p != nil {
			v = binary.LittleEndian.Uint32(p[o:])
		}
	} else {
		var b [4]byte
		r.copyOut(off, b[:])
		v = binary.LittleEndian.Uint32(b[:])
	}
	m.fire(addr, kind, v)
	return v, nil
}

// Write32 writes a little-endian word.
func (m *Memory) Write32(addr uint32, v uint32) error {
	r, err := m.check(addr, 4, AccessWrite)
	if err != nil {
		return err
	}
	off := addr - r.Base
	if o := off & pageMask; o <= pageSize-4 {
		if p := r.pageAt(off, v != 0); p != nil {
			binary.LittleEndian.PutUint32(p[o:], v)
		}
	} else {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], v)
		r.copyIn(off, b[:])
	}
	m.fire(addr, AccessWrite, v)
	return nil
}

// LoadBlob copies data into memory starting at addr, bypassing permission
// checks. Used by image loaders. Bytes up to the first unmapped address
// are written; that address is reported as the fault.
func (m *Memory) LoadBlob(addr uint32, data []byte) error {
	for len(data) > 0 {
		r := m.FindRegion(addr)
		if r == nil {
			return &Fault{Addr: addr, Size: 1, Kind: AccessWrite, Reason: "unmapped (load)"}
		}
		n := min(uint64(len(data)), uint64(r.Size-(addr-r.Base)))
		r.copyIn(addr-r.Base, data[:n])
		data, addr = data[n:], addr+uint32(n)
	}
	return nil
}

// Dump copies size bytes starting at addr, bypassing permission checks.
func (m *Memory) Dump(addr uint32, size int) ([]byte, error) {
	out := make([]byte, size)
	for rest := out; len(rest) > 0; {
		r := m.FindRegion(addr)
		if r == nil {
			return nil, &Fault{Addr: addr, Size: 1, Kind: AccessRead, Reason: "unmapped (dump)"}
		}
		n := min(uint64(len(rest)), uint64(r.Size-(addr-r.Base)))
		r.copyOut(addr-r.Base, rest[:n])
		rest, addr = rest[n:], addr+uint32(n)
	}
	return out, nil
}
