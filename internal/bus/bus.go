// Package bus implements the SC88 SoC interconnect: it routes CPU accesses
// either to plain memory regions (ROM/RAM/NVM array) or to memory-mapped
// peripheral devices, and accounts per-access wait states for the
// cycle-approximate platforms.
package bus

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/mem"
)

// Device is a memory-mapped peripheral. Peripheral registers are 32-bit
// and word-aligned; offsets are relative to the device window base.
type Device interface {
	// Name identifies the device instance for diagnostics.
	Name() string
	// Size is the size of the device's register window in bytes.
	Size() uint32
	// Read32 reads the register at the given word-aligned offset.
	Read32(off uint32) (uint32, error)
	// Write32 writes the register at the given word-aligned offset.
	Write32(off uint32, v uint32) error
}

// Ticker is implemented by devices with time-dependent internal state
// (transmit shifters, countdowns). Ticking is opt-in: devices whose
// registers are purely combinational stay off the per-instruction hot
// path entirely.
type Ticker interface {
	// Tick advances device-internal time by n bus clock cycles.
	Tick(n uint64)
	// NextEvent returns how many cycles from now the device next changes
	// observable state (raises an IRQ, flips a status bit, delivers a
	// byte), or NoEvent while it is quiescent. The bus defers Tick
	// delivery until the soonest event across all tickers, so the
	// estimate must never be later than the true event; earlier just
	// costs an extra flush.
	NextEvent() uint64
}

// NoEvent is returned by NextEvent while a device is quiescent.
const NoEvent = ^uint64(0)

// window binds a device to a base address.
type window struct {
	base uint32
	dev  Device
}

// Bus routes accesses and tracks wait states.
type Bus struct {
	Mem     *mem.Memory
	windows []window
	// tickers is the subset of attached devices implementing Ticker,
	// collected at Attach time so Tick never dispatches to inert devices.
	tickers []Ticker
	// pending accumulates cycles not yet delivered to the tickers;
	// horizon is the soonest NextEvent across them, measured from the
	// last flush. Tick only dispatches once pending reaches the horizon
	// (or a peripheral register access forces the devices current).
	pending, horizon uint64
	// waits maps region names to per-access extra cycles. Missing names
	// cost DefaultWait.
	waits map[string]uint64
	// PeriphWait is the wait-state cost of a peripheral access.
	PeriphWait uint64
	// DefaultWait is the base cost of a memory access.
	DefaultWait uint64
	// LastCost is the wait-state cost of the most recent access.
	LastCost uint64
	// LastPeriph reports whether the most recent access targeted a
	// peripheral window. The superblock translation engine uses it to
	// exit a block after a register access: device state (and hence
	// pending interrupts) may have changed, so the between-instructions
	// event poll must run before straight-line execution resumes.
	LastPeriph bool
	// writeGuard, when set, can veto memory writes (the MPU hooks in
	// here). Peripheral-window writes are not guarded.
	writeGuard func(addr uint32, size int) error
}

// New creates a bus over the given memory.
func New(m *mem.Memory) *Bus {
	return &Bus{Mem: m, waits: make(map[string]uint64), PeriphWait: 2, DefaultWait: 1, horizon: NoEvent}
}

// SetWait assigns a per-access cycle cost to the named memory region.
func (b *Bus) SetWait(region string, cycles uint64) { b.waits[region] = cycles }

// SetWriteGuard installs a veto hook for memory writes; pass nil to
// remove it.
func (b *Bus) SetWriteGuard(g func(addr uint32, size int) error) { b.writeGuard = g }

func (b *Bus) guardWrite(addr uint32, size int) error {
	if b.writeGuard == nil {
		return nil
	}
	return b.writeGuard(addr, size)
}

// Attach maps a device at base. Windows must not overlap each other or any
// memory region; Attach panics on overlap because the memory map is fixed
// at platform construction time.
func (b *Bus) Attach(base uint32, dev Device) {
	size := dev.Size()
	if size == 0 || base%4 != 0 {
		panic(fmt.Sprintf("bus: device %q bad window base=0x%x size=%d", dev.Name(), base, size))
	}
	for _, w := range b.windows {
		if base < w.base+w.dev.Size() && w.base < base+size {
			panic(fmt.Sprintf("bus: device %q window overlaps %q", dev.Name(), w.dev.Name()))
		}
	}
	if r := b.Mem.FindRegion(base); r != nil {
		panic(fmt.Sprintf("bus: device %q window overlaps memory region %q", dev.Name(), r.Name))
	}
	b.windows = append(b.windows, window{base: base, dev: dev})
	slices.SortFunc(b.windows, func(x, y window) int { return cmp.Compare(x.base, y.base) })
	if t, ok := dev.(Ticker); ok {
		b.tickers = append(b.tickers, t)
		b.recomputeHorizon()
	}
}

// Devices returns the attached devices in ascending base order.
func (b *Bus) Devices() []Device {
	out := make([]Device, len(b.windows))
	for i, w := range b.windows {
		out[i] = w.dev
	}
	return out
}

// FindDevice returns the device window containing addr.
func (b *Bus) findWindow(addr uint32) *window {
	lo, hi := 0, len(b.windows)
	for lo < hi {
		mid := (lo + hi) / 2
		w := &b.windows[mid]
		switch {
		case addr < w.base:
			hi = mid
		case addr-w.base >= w.dev.Size():
			lo = mid + 1
		default:
			return w
		}
	}
	return nil
}

// Tick advances device time by n cycles. Delivery to the tickers is
// deferred until the accumulated cycles reach the event horizon, so an
// all-quiescent SoC pays two integer ops per instruction instead of a
// dispatch per device. Timing stays exact: the horizon is never later
// than the soonest device event, so every IRQ and status change is
// delivered at the same instruction boundary as eager ticking.
func (b *Bus) Tick(n uint64) {
	b.pending += n
	if b.pending >= b.horizon {
		b.flushTicks()
	}
}

// flushTicks delivers the accumulated cycles and recomputes the horizon.
func (b *Bus) flushTicks() {
	n := b.pending
	b.pending = 0
	if n > 0 {
		for _, t := range b.tickers {
			t.Tick(n)
		}
	}
	b.recomputeHorizon()
}

func (b *Bus) recomputeHorizon() {
	h := uint64(NoEvent)
	for _, t := range b.tickers {
		if e := t.NextEvent(); e < h {
			h = e
		}
	}
	b.horizon = h
}

// TickBudget returns how many cycles Tick can absorb before the next
// device event would fire: the distance from the accumulated pending
// cycles to the event horizon. While every ticker is quiescent it is
// effectively unbounded (NoEvent). The translation engine runs a
// superblock without per-instruction event polls only when the block's
// worst-case cost fits strictly inside this budget, which makes the
// single check per block entry provably equivalent to the interpreter's
// per-instruction polling.
func (b *Bus) TickBudget() uint64 {
	if b.pending >= b.horizon {
		return 0
	}
	return b.horizon - b.pending
}

// MaxAccessCost returns an upper bound on LastCost for any single
// access: the largest configured region wait, the default wait, or the
// peripheral wait, whichever is greater. Superblock cost bounds use it
// for data accesses whose target region is unknown at translation time.
func (b *Bus) MaxAccessCost() uint64 {
	m := b.DefaultWait
	if b.PeriphWait > m {
		m = b.PeriphWait
	}
	for _, c := range b.waits {
		if c > m {
			m = c
		}
	}
	return m
}

// CostOf returns the per-access wait-state cost of a plain memory access
// at addr — exactly the LastCost a Read32/Write32 there would report.
// Predecoded instruction tables bake this into their entries so the fast
// path charges the same fetch cycles as a live bus access.
func (b *Bus) CostOf(addr uint32) uint64 { return b.memCost(addr) }

func (b *Bus) memCost(addr uint32) uint64 {
	if r := b.Mem.FindRegion(addr); r != nil {
		if c, ok := b.waits[r.Name]; ok {
			return c
		}
	}
	return b.DefaultWait
}

// Read32 reads a word from memory or a peripheral register.
func (b *Bus) Read32(addr uint32, kind mem.Access) (uint32, error) {
	if w := b.findWindow(addr); w != nil {
		b.LastCost, b.LastPeriph = b.PeriphWait, true
		if addr%4 != 0 {
			return 0, &mem.Fault{Addr: addr, Size: 4, Kind: kind, Reason: "misaligned peripheral access"}
		}
		if kind == mem.AccessFetch {
			return 0, &mem.Fault{Addr: addr, Size: 4, Kind: kind, Reason: "fetch from peripheral window"}
		}
		// Bring device time current before the access, and re-derive the
		// horizon after: a register read can itself change device state.
		b.flushTicks()
		v, err := w.dev.Read32(addr - w.base)
		b.recomputeHorizon()
		return v, err
	}
	b.LastCost, b.LastPeriph = b.memCost(addr), false
	return b.Mem.Read32(addr, kind)
}

// Write32 writes a word to memory or a peripheral register.
func (b *Bus) Write32(addr uint32, v uint32) error {
	if w := b.findWindow(addr); w != nil {
		b.LastCost, b.LastPeriph = b.PeriphWait, true
		if addr%4 != 0 {
			return &mem.Fault{Addr: addr, Size: 4, Kind: mem.AccessWrite, Reason: "misaligned peripheral access"}
		}
		// As in Read32 — and a write can arm a countdown, pulling the
		// horizon in.
		b.flushTicks()
		err := w.dev.Write32(addr-w.base, v)
		b.recomputeHorizon()
		return err
	}
	b.LastCost, b.LastPeriph = b.memCost(addr), false
	if err := b.guardWrite(addr, 4); err != nil {
		return err
	}
	return b.Mem.Write32(addr, v)
}

// Read16 reads a halfword. Peripheral windows only support word access.
func (b *Bus) Read16(addr uint32, kind mem.Access) (uint16, error) {
	if w := b.findWindow(addr); w != nil {
		b.LastPeriph = true
		return 0, &mem.Fault{Addr: addr, Size: 2, Kind: kind, Reason: "sub-word peripheral access"}
	}
	b.LastCost, b.LastPeriph = b.memCost(addr), false
	return b.Mem.Read16(addr, kind)
}

// Write16 writes a halfword. Peripheral windows only support word access.
func (b *Bus) Write16(addr uint32, v uint16) error {
	if w := b.findWindow(addr); w != nil {
		b.LastPeriph = true
		return &mem.Fault{Addr: addr, Size: 2, Kind: mem.AccessWrite, Reason: "sub-word peripheral access"}
	}
	b.LastCost, b.LastPeriph = b.memCost(addr), false
	if err := b.guardWrite(addr, 2); err != nil {
		return err
	}
	return b.Mem.Write16(addr, v)
}

// Read8 reads a byte. Peripheral windows only support word access.
func (b *Bus) Read8(addr uint32, kind mem.Access) (byte, error) {
	if w := b.findWindow(addr); w != nil {
		b.LastPeriph = true
		return 0, &mem.Fault{Addr: addr, Size: 1, Kind: kind, Reason: "sub-word peripheral access"}
	}
	b.LastCost, b.LastPeriph = b.memCost(addr), false
	return b.Mem.Read8(addr, kind)
}

// Write8 writes a byte. Peripheral windows only support word access.
func (b *Bus) Write8(addr uint32, v byte) error {
	if w := b.findWindow(addr); w != nil {
		b.LastPeriph = true
		return &mem.Fault{Addr: addr, Size: 1, Kind: mem.AccessWrite, Reason: "sub-word peripheral access"}
	}
	b.LastCost, b.LastPeriph = b.memCost(addr), false
	if err := b.guardWrite(addr, 1); err != nil {
		return err
	}
	return b.Mem.Write8(addr, v)
}
