// Package gate implements the HDL gate-level simulation platform: the RTL
// control FSM with the execution-unit ALU replaced by a synthesised gate
// netlist (internal/netlist) evaluated gate-by-gate for every ALU
// operation. It is the slowest platform in the ladder, with a gate-eval
// work counter standing in for post-synthesis simulation cost, and it is
// the platform on which RTL-vs-gate equivalence is checked.
package gate

import (
	"fmt"
	"sync"

	"repro/internal/isa"
	"repro/internal/netlist"
	"repro/internal/platform"
	"repro/internal/rtl"
	"repro/internal/soc"
)

// aluNetlist synthesises the ALU once per process. Every backend runs a
// Clone of it: fault-injection tests mutate their instance's gates.
var aluNetlist = sync.OnceValue(netlist.BuildALU)

// NetALU is an rtl.ALUBackend that evaluates the synthesised ALU netlist.
type NetALU struct {
	ev *netlist.Evaluator
	nl *netlist.Netlist
}

// NewNetALU returns a backend over its own copy of the ALU netlist.
func NewNetALU() *NetALU {
	nl := aluNetlist().Clone()
	return &NetALU{nl: nl, ev: netlist.NewEvaluator(nl)}
}

// GateEvals reports the total primitive evaluations performed.
func (g *NetALU) GateEvals() uint64 { return g.ev.GateEvals }

// Netlist exposes the synthesised network (for stats and equivalence
// checks).
func (g *NetALU) Netlist() *netlist.Netlist { return g.nl }

func opSelect(op isa.Opcode) uint64 {
	switch op {
	case isa.OpAdd:
		return netlist.ALUAdd
	case isa.OpSub, isa.OpCmp:
		return netlist.ALUSub
	case isa.OpAnd:
		return netlist.ALUAnd
	case isa.OpOr:
		return netlist.ALUOr
	case isa.OpXor:
		return netlist.ALUXor
	case isa.OpShl:
		return netlist.ALUShl
	case isa.OpShr:
		return netlist.ALUShr
	case isa.OpSar:
		return netlist.ALUSar
	}
	panic(fmt.Sprintf("gate: ALU netlist does not implement %v", op))
}

// Execute implements rtl.ALUBackend through the gate netlist.
func (g *NetALU) Execute(op isa.Opcode, a, b uint32) (uint32, rtl.ALUFlags) {
	sel := opSelect(op)
	g.ev.SetInput("a", uint64(a))
	g.ev.SetInput("b", uint64(b))
	g.ev.SetInput("op", sel)
	g.ev.Eval()
	res := uint32(g.ev.Output("y"))
	fl := rtl.ALUFlags{}
	if sel == netlist.ALUAdd || sel == netlist.ALUSub {
		fl.CVValid = true
		fl.C = g.ev.Output("c") != 0
		fl.V = g.ev.Output("v") != 0
	}
	return res, fl
}

func init() {
	platform.Register(platform.KindGate, func(cfg soc.HWConfig) platform.Platform {
		return New(cfg)
	})
}

// Sim is the gate-level platform. It runs the deferred-verification
// NetALU64 backend: behavioural results drive the FSM, and the netlist
// verifies retired operations in 64-lane batches (see alu64.go).
type Sim struct {
	*rtl.Sim
	alu *NetALU64
}

// New creates a gate-level platform instance.
func New(cfg soc.HWConfig) *Sim {
	alu := NewNetALU64()
	return &Sim{
		Sim: rtl.NewSimWithALU("gate/"+cfg.Name, platform.KindGate, cfg, alu),
		alu: alu,
	}
}

// ALU exposes the netlist backend for work metrics.
func (s *Sim) ALU() *NetALU64 { return s.alu }

// Caps narrows the RTL capabilities: gate-level sims are cycle-accurate
// but typically run without full register visibility tooling; we keep
// visibility (the simulator can always dump) and mark it cycle-accurate.
func (s *Sim) Caps() platform.Caps {
	return platform.Caps{
		Trace:         true,
		Breakpoints:   false,
		RegVisibility: true,
		MemVisibility: true,
		CycleAccurate: true,
	}
}
