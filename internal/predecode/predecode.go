// Package predecode implements trace-style instruction predecoding for
// the behavioural simulators: each code image is decoded once into a page
// table of ready-to-execute entries, replacing the per-step fetch+decode
// work on the golden and RTL hot paths. Tables for ROM-resident code are
// shared across every core executing the same image (regression cells
// re-run the same linked image on many derivative/platform cells), while
// RAM-resident code gets a private per-core overlay decoded lazily from
// live memory.
//
// Self-modifying code is handled by invalidation, not coherence: a store
// that lands in a decoded page poisons it permanently and every fetch
// from that page falls back to decode-per-step on the live bus, which
// preserves exact fault and trap behaviour. Stores into pages never
// fetched from cost nothing — runtime-copied code decodes on its first
// fetch, after the copy loop has finished writing it.
//
// Cycle fidelity: each entry carries the per-word fetch wait cost the
// bus would charge (Bus.CostOf), so a predecoded step burns exactly the
// cycles a live fetch would. Entries that fail to decode (illegal
// opcodes, truncated extension words at a region edge) stay invalid and
// route to the slow path, which raises the architectural trap.
package predecode

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/obj"
)

// pageWords is the decode granularity: 256 words = 1 KiB pages, small
// enough that poisoning one self-modified page leaves the rest of the
// region fast.
const pageWords = 256

// PageBytes is the address span one decoded page covers.
const PageBytes = pageWords * 4

// Entry is one predecoded instruction slot.
type Entry struct {
	// Inst is the decoded instruction.
	Inst isa.Inst
	// W0 and W1 are the raw instruction words, for paths (the RTL IR
	// signal trace) that must observe the fetched encoding.
	W0, W1 uint32
	// Size is the instruction length in words (1 or 2).
	Size uint32
	// Wait is the per-word fetch wait cost at this address.
	Wait uint64
	// Valid marks a successfully decoded entry; invalid slots force the
	// slow path (which raises the proper trap for illegal encodings).
	Valid bool
}

// Page is one decoded span of pageWords entries. Pages handed out by
// PageFor are immutable, which is what lets cores cache the pointer
// across fetches.
type Page struct {
	entries [pageWords]Entry
}

// EntryAt returns the slot covering a word-aligned fetch off bytes into
// the page, or nil for a slot that failed to decode. Sized to inline
// into simulator fetch loops.
func (p *Page) EntryAt(off uint32) *Entry {
	e := &p.entries[off/4%pageWords]
	if !e.Valid {
		return nil
	}
	return e
}

// poisonPage marks a page that received a store after being decoded:
// decode-per-step territory from then on.
var poisonPage = &Page{}

// Table is a predecoded view of one memory region. The zero-size table
// and the nil table are both inert (every lookup misses).
type Table struct {
	base uint32
	size uint32
	wait uint64
	// read returns the word at an address, or false if the address is
	// outside the backing store (region edge, unmapped image byte).
	read  func(addr uint32) (uint32, bool)
	pages []atomic.Pointer[Page]
}

func newTable(base, size uint32, wait uint64, read func(uint32) (uint32, bool)) *Table {
	t := &Table{base: base, size: size, wait: wait, read: read}
	t.pages = make([]atomic.Pointer[Page], (int(size)/4+pageWords-1)/pageWords)
	return t
}

// Lookup returns the predecoded entry for a fetch at pc, or nil when the
// caller must take the slow path: pc outside the table, misaligned,
// poisoned page, or an entry that failed to decode. The body is sized to
// inline into the simulator fetch loops; first-touch page decode lives
// in lookupCold. (pc < t.base folds into the one unsigned compare:
// pc-t.base wraps past size.)
func (t *Table) Lookup(pc uint32) *Entry {
	if t == nil || pc&3 != 0 || pc-t.base >= t.size {
		return nil
	}
	w := (pc - t.base) / 4
	p := t.pages[w/pageWords].Load()
	if p == nil || p == poisonPage {
		return t.lookupCold(w, p)
	}
	e := &p.entries[w%pageWords]
	if !e.Valid {
		return nil
	}
	return e
}

// PageFor returns the decoded page containing pc and the page's base
// address, decoding it on first touch; nil for addresses outside the
// table or poisoned pages. It exists for cores that keep a one-page
// fetch cache: returned pages are immutable, but only ROM tables
// guarantee a page is never later poisoned, so overlay (RAM) pages must
// not be cached across stores.
func (t *Table) PageFor(pc uint32) (*Page, uint32) {
	if t == nil || pc-t.base >= t.size {
		return nil, 0
	}
	w := (pc - t.base) / 4
	p := t.pages[w/pageWords].Load()
	if p == nil {
		p = t.decodePage(int(w / pageWords))
	}
	if p == nil || p == poisonPage {
		return nil, 0
	}
	return p, t.base + w/pageWords*PageBytes
}

func (t *Table) lookupCold(w uint32, p *Page) *Entry {
	if p == nil {
		p = t.decodePage(int(w / pageWords))
	}
	if p == nil || p == poisonPage {
		return nil
	}
	e := &p.entries[w%pageWords]
	if !e.Valid {
		return nil
	}
	return e
}

func (t *Table) decodePage(pi int) *Page {
	p := &Page{}
	start := t.base + uint32(pi)*pageWords*4
	for i := 0; i < pageWords; i++ {
		a := start + uint32(i)*4
		if a-t.base >= t.size {
			break
		}
		w0, ok := t.read(a)
		if !ok {
			continue
		}
		e := &p.entries[i]
		if isa.Opcode(w0 >> 24).HasExt() {
			w1, ok := t.read(a + 4)
			if !ok {
				continue // extension word past the region edge: slow path
			}
			in, size, dok := isa.Decode([]uint32{w0, w1})
			if !dok || size != 2 {
				continue
			}
			*e = Entry{Inst: in, W0: w0, W1: w1, Size: 2, Wait: t.wait, Valid: true}
		} else {
			in, size, dok := isa.Decode([]uint32{w0})
			if !dok || size != 1 {
				continue
			}
			*e = Entry{Inst: in, W0: w0, Size: 1, Wait: t.wait, Valid: true}
		}
	}
	if t.pages[pi].CompareAndSwap(nil, p) {
		stats.pagesDecoded.Add(1)
		return p
	}
	// Another core decoded (or a store poisoned) the page first.
	cur := t.pages[pi].Load()
	if cur == poisonPage {
		return nil
	}
	return cur
}

// Invalidate poisons any decoded page whose entries a store at addr could
// have covered (an entry starting up to 4 bytes before the store can span
// the stored bytes). Pages never decoded stay undecoded — runtime-copied
// code is not penalised by its own copy loop.
func (t *Table) Invalidate(addr uint32) {
	if t == nil {
		return
	}
	lo := int64(addr) - 4
	hi := int64(addr) + 3
	base, size := int64(t.base), int64(t.size)
	if hi < base || lo >= base+size {
		return
	}
	loPage := (max64(lo, base) - base) / 4 / pageWords
	hiPage := (min64(hi, base+size-1) - base) / 4 / pageWords
	for pi := loPage; pi <= hiPage; pi++ {
		if p := t.pages[pi].Load(); p != nil && p != poisonPage {
			if t.pages[pi].CompareAndSwap(p, poisonPage) {
				stats.pagesPoisoned.Add(1)
			}
		}
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// romKey identifies one ROM decode of an image: same placement, same
// wait states. Image bytes are immutable after linking, so every SoC
// loading the image sees identical ROM content and the table is safely
// shared across cores and goroutines.
type romKey struct {
	base, size uint32
	wait       uint64
}

// ForImage returns the shared predecode table for an image's ROM
// placement, building it (lazily, page by page) on first use. The table
// is stored on the image itself: regression cells running the same
// linked image decode it once, not once per cell, and the table and its
// decoded pages are freed with the image.
func ForImage(img *obj.Image, base, size uint32, wait uint64) *Table {
	if img == nil || size == 0 {
		return nil
	}
	return img.Derived(romKey{base: base, size: size, wait: wait}, func() any {
		return newTable(base, size, wait, imageReader(img, base, size))
	}).(*Table)
}

// imageReader reads words from the image's segments as they would appear
// in a freshly loaded region: segment bytes where covered, zero filler
// elsewhere inside the region.
func imageReader(img *obj.Image, base, size uint32) func(uint32) (uint32, bool) {
	return func(addr uint32) (uint32, bool) {
		if addr < base || uint64(addr)-uint64(base)+4 > uint64(size) {
			return 0, false
		}
		var b [4]byte
		for i := uint32(0); i < 4; i++ {
			b[i] = imageByte(img, addr+i)
		}
		return binary.LittleEndian.Uint32(b[:]), true
	}
}

func imageByte(img *obj.Image, addr uint32) byte {
	for i := range img.Segments {
		s := &img.Segments[i]
		if addr >= s.Addr && uint64(addr) < uint64(s.Addr)+uint64(len(s.Data)) {
			return s.Data[addr-s.Addr]
		}
	}
	return 0
}

// NewOverlay returns a private table over a writable region (RAM),
// decoding pages lazily from live memory. Unlike ROM tables it is per
// core: RAM contents are runtime state. The core must call Invalidate on
// every store.
func NewOverlay(m *mem.Memory, base, size uint32, wait uint64) *Table {
	if m == nil || size == 0 {
		return nil
	}
	return newTable(base, size, wait, func(addr uint32) (uint32, bool) {
		if addr < base || uint64(addr)-uint64(base)+4 > uint64(size) {
			return 0, false
		}
		b, err := m.Dump(addr, 4)
		if err != nil {
			return 0, false
		}
		return binary.LittleEndian.Uint32(b), true
	})
}

// Package-wide counters. Page events are rare and counted at the source;
// per-step hit/miss counts are accumulated in plain core-local fields and
// flushed here once per run (AddRunStats) to keep atomics off the
// simulator hot path. The counters are atomics, so concurrent matrix
// workers can flush at the same time without racing; idempotence is the
// caller's half of the contract — cores must zero their local counts in
// the same motion as the flush (copy-then-zero), so a duplicate flush
// adds zero instead of double-counting a run.
var stats struct {
	hits, slow, pagesDecoded, pagesPoisoned atomic.Uint64
}

// AddRunStats folds one run's fetch counters into the global totals.
// Safe to call from concurrent workers.
func AddRunStats(hits, slow uint64) {
	if hits != 0 {
		stats.hits.Add(hits)
	}
	if slow != 0 {
		stats.slow.Add(slow)
	}
}

// Stats is a snapshot of the package counters.
type Stats struct {
	// Hits counts instruction fetches served from a predecode table;
	// Slow counts fetches that went down the decode-per-step path
	// (predecode disabled, invalid entries, poisoned pages).
	Hits, Slow uint64
	// PagesDecoded and PagesPoisoned count page-granularity events.
	PagesDecoded, PagesPoisoned uint64
}

// GlobalStats snapshots the process-wide counters.
func GlobalStats() Stats {
	return Stats{
		Hits:          stats.hits.Load(),
		Slow:          stats.slow.Load(),
		PagesDecoded:  stats.pagesDecoded.Load(),
		PagesPoisoned: stats.pagesPoisoned.Load(),
	}
}

// ResetStats zeroes the global counters (benchmarks and tests).
func ResetStats() {
	stats.hits.Store(0)
	stats.slow.Store(0)
	stats.pagesDecoded.Store(0)
	stats.pagesPoisoned.Store(0)
}

func (s Stats) String() string {
	total := s.Hits + s.Slow
	pct := 0.0
	if total > 0 {
		pct = 100 * float64(s.Hits) / float64(total)
	}
	return fmt.Sprintf("%d fetches predecoded (%.1f%%), %d slow, %d pages decoded, %d poisoned",
		s.Hits, pct, s.Slow, s.PagesDecoded, s.PagesPoisoned)
}
