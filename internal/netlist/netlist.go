// Package netlist implements a gate-level netlist: AND/OR/XOR/NOT/MUX
// primitives over single-bit nets, a builder that constructs word-level
// structures (ripple-carry adders, barrel shifters, mux trees), and a
// levelised evaluator. The gate-level platform (internal/gate) executes
// every ALU operation through a synthesised netlist built here, making it
// structurally distinct from — and much slower than — the behavioural
// models, as post-synthesis gate simulation is in the paper's platform
// list.
package netlist

import (
	"fmt"
	"sort"
)

// Net identifies a single-bit wire. Nets 0 and 1 are the constants false
// and true.
type Net uint32

// Constant nets.
const (
	Const0 Net = 0
	Const1 Net = 1
)

// GateKind enumerates primitive gate types.
type GateKind uint8

// Gate kinds.
const (
	KAnd GateKind = iota
	KOr
	KXor
	KNot
	KMux // Out = C ? B : A
)

func (k GateKind) String() string {
	switch k {
	case KAnd:
		return "AND"
	case KOr:
		return "OR"
	case KXor:
		return "XOR"
	case KNot:
		return "NOT"
	case KMux:
		return "MUX"
	}
	return "GATE?"
}

// Gate is one primitive instance. For KNot only A is used; for KMux, C is
// the select input.
type Gate struct {
	Kind    GateKind
	A, B, C Net
	Out     Net
}

// Netlist is a combinational gate network. Gates are stored in
// construction order, which the Builder guarantees is topological.
type Netlist struct {
	numNets int
	gates   []Gate
	inputs  map[string][]Net
	outputs map[string][]Net
	level   []int // per-net logic depth
}

// NumGates returns the gate count.
func (n *Netlist) NumGates() int { return len(n.gates) }

// NumNets returns the net count (including the two constants).
func (n *Netlist) NumNets() int { return n.numNets }

// Depth returns the maximum logic depth (critical path in gate levels).
func (n *Netlist) Depth() int {
	max := 0
	for _, l := range n.level {
		if l > max {
			max = l
		}
	}
	return max
}

// InputNames lists declared input buses in sorted order.
func (n *Netlist) InputNames() []string {
	var out []string
	for k := range n.inputs {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Builder constructs a Netlist.
type Builder struct {
	n *Netlist
}

// NewBuilder starts a netlist containing only the constant nets.
func NewBuilder() *Builder {
	return &Builder{n: &Netlist{
		numNets: 2,
		inputs:  map[string][]Net{},
		outputs: map[string][]Net{},
		level:   []int{0, 0},
	}}
}

func (b *Builder) newNet(level int) Net {
	id := Net(b.n.numNets)
	b.n.numNets++
	b.n.level = append(b.n.level, level)
	return id
}

// Input declares an input bus of the given width (bit 0 first).
func (b *Builder) Input(name string, width int) []Net {
	if _, dup := b.n.inputs[name]; dup {
		panic("netlist: duplicate input " + name)
	}
	nets := make([]Net, width)
	for i := range nets {
		nets[i] = b.newNet(0)
	}
	b.n.inputs[name] = nets
	return nets
}

// Output declares an output bus.
func (b *Builder) Output(name string, nets []Net) {
	if _, dup := b.n.outputs[name]; dup {
		panic("netlist: duplicate output " + name)
	}
	b.n.outputs[name] = append([]Net(nil), nets...)
}

func (b *Builder) lvl(ins ...Net) int {
	max := 0
	for _, in := range ins {
		if int(in) >= len(b.n.level) {
			panic(fmt.Sprintf("netlist: use of undefined net %d", in))
		}
		if l := b.n.level[in]; l > max {
			max = l
		}
	}
	return max + 1
}

func (b *Builder) gate(kind GateKind, a, bb, c Net) Net {
	out := b.newNet(b.lvl(a, bb, c))
	b.n.gates = append(b.n.gates, Gate{Kind: kind, A: a, B: bb, C: c, Out: out})
	return out
}

// And adds an AND gate.
func (b *Builder) And(x, y Net) Net { return b.gate(KAnd, x, y, Const0) }

// Or adds an OR gate.
func (b *Builder) Or(x, y Net) Net { return b.gate(KOr, x, y, Const0) }

// Xor adds an XOR gate.
func (b *Builder) Xor(x, y Net) Net { return b.gate(KXor, x, y, Const0) }

// Not adds an inverter.
func (b *Builder) Not(x Net) Net { return b.gate(KNot, x, Const0, Const0) }

// Mux adds a 2:1 mux: sel ? hi : lo.
func (b *Builder) Mux(sel, lo, hi Net) Net { return b.gate(KMux, lo, hi, sel) }

// MuxBus muxes two equal-width buses bit-wise.
func (b *Builder) MuxBus(sel Net, lo, hi []Net) []Net {
	if len(lo) != len(hi) {
		panic("netlist: MuxBus width mismatch")
	}
	out := make([]Net, len(lo))
	for i := range lo {
		out[i] = b.Mux(sel, lo[i], hi[i])
	}
	return out
}

// ConstBus returns a bus of constant nets for the low `width` bits of v.
func (b *Builder) ConstBus(v uint64, width int) []Net {
	out := make([]Net, width)
	for i := range out {
		if v&(1<<uint(i)) != 0 {
			out[i] = Const1
		} else {
			out[i] = Const0
		}
	}
	return out
}

// FullAdder returns (sum, carry) for three input bits.
func (b *Builder) FullAdder(x, y, cin Net) (Net, Net) {
	s1 := b.Xor(x, y)
	sum := b.Xor(s1, cin)
	c1 := b.And(x, y)
	c2 := b.And(s1, cin)
	return sum, b.Or(c1, c2)
}

// Adder builds a ripple-carry adder over equal-width buses. It returns the
// sum bus and the carry-out.
func (b *Builder) Adder(x, y []Net, cin Net) ([]Net, Net) {
	if len(x) != len(y) {
		panic("netlist: Adder width mismatch")
	}
	sum := make([]Net, len(x))
	c := cin
	for i := range x {
		sum[i], c = b.FullAdder(x[i], y[i], c)
	}
	return sum, c
}

// NotBus inverts each bit of a bus.
func (b *Builder) NotBus(x []Net) []Net {
	out := make([]Net, len(x))
	for i := range x {
		out[i] = b.Not(x[i])
	}
	return out
}

// BitwiseAnd/Or/Xor combine buses bit-wise.
func (b *Builder) BitwiseAnd(x, y []Net) []Net { return b.bitwise(KAnd, x, y) }

// BitwiseOr combines buses with OR.
func (b *Builder) BitwiseOr(x, y []Net) []Net { return b.bitwise(KOr, x, y) }

// BitwiseXor combines buses with XOR.
func (b *Builder) BitwiseXor(x, y []Net) []Net { return b.bitwise(KXor, x, y) }

func (b *Builder) bitwise(kind GateKind, x, y []Net) []Net {
	if len(x) != len(y) {
		panic("netlist: bitwise width mismatch")
	}
	out := make([]Net, len(x))
	for i := range x {
		out[i] = b.gate(kind, x[i], y[i], Const0)
	}
	return out
}

// BarrelShifter shifts x by the 5-bit amount sh. dir: false = left,
// true = right. arith selects sign-fill on right shifts.
func (b *Builder) BarrelShifter(x []Net, sh []Net, right bool, arith bool) []Net {
	cur := append([]Net(nil), x...)
	n := len(x)
	fill := Const0
	if right && arith {
		fill = x[n-1]
	}
	for stage := 0; stage < len(sh); stage++ {
		amt := 1 << uint(stage)
		shifted := make([]Net, n)
		for i := 0; i < n; i++ {
			var src Net
			if right {
				if i+amt < n {
					src = cur[i+amt]
				} else {
					src = fill
				}
			} else {
				if i-amt >= 0 {
					src = cur[i-amt]
				} else {
					src = Const0
				}
			}
			shifted[i] = b.Mux(sh[stage], cur[i], src)
		}
		cur = shifted
	}
	return cur
}

// Build finalises the netlist.
func (b *Builder) Build() *Netlist { return b.n }

// Evaluator evaluates a netlist with reusable buffers. It is not safe for
// concurrent use.
type Evaluator struct {
	nl   *Netlist
	vals []bool
	// GateEvals counts primitive evaluations, the gate-level platform's
	// work metric.
	GateEvals uint64
}

// NewEvaluator creates an evaluator for the netlist.
func NewEvaluator(nl *Netlist) *Evaluator {
	ev := &Evaluator{nl: nl, vals: make([]bool, nl.numNets)}
	ev.vals[Const1] = true
	return ev
}

// SetInput drives an input bus from the low bits of v.
func (ev *Evaluator) SetInput(name string, v uint64) {
	nets, ok := ev.nl.inputs[name]
	if !ok {
		panic("netlist: unknown input " + name)
	}
	for i, n := range nets {
		ev.vals[n] = v&(1<<uint(i)) != 0
	}
}

// Eval evaluates all gates in topological order.
func (ev *Evaluator) Eval() {
	vals := ev.vals
	for i := range ev.nl.gates {
		g := &ev.nl.gates[i]
		switch g.Kind {
		case KAnd:
			vals[g.Out] = vals[g.A] && vals[g.B]
		case KOr:
			vals[g.Out] = vals[g.A] || vals[g.B]
		case KXor:
			vals[g.Out] = vals[g.A] != vals[g.B]
		case KNot:
			vals[g.Out] = !vals[g.A]
		case KMux:
			if vals[g.C] {
				vals[g.Out] = vals[g.B]
			} else {
				vals[g.Out] = vals[g.A]
			}
		}
	}
	ev.GateEvals += uint64(len(ev.nl.gates))
}

// Output reads an output bus as an integer.
func (ev *Evaluator) Output(name string) uint64 {
	nets, ok := ev.nl.outputs[name]
	if !ok {
		panic("netlist: unknown output " + name)
	}
	var v uint64
	for i, n := range nets {
		if ev.vals[n] {
			v |= 1 << uint(i)
		}
	}
	return v
}

// Clone returns a netlist with its own copy of the gate list. The input,
// output and level tables are read-only once built and stay shared, so a
// clone costs one slice copy; MutateGate on the clone leaves the original
// untouched.
func (n *Netlist) Clone() *Netlist {
	c := *n
	c.gates = append([]Gate(nil), n.gates...)
	return &c
}

// MutateGate replaces gate i's kind, for mutation testing of equivalence
// checkers: a checker worth trusting must catch a single-gate defect.
// It returns the original kind.
func (n *Netlist) MutateGate(i int, kind GateKind) GateKind {
	old := n.gates[i].Kind
	n.gates[i].Kind = kind
	return old
}
