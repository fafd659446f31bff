package gate

import (
	"context"
	"fmt"

	"repro/internal/isa"
	"repro/internal/netlist"
	"repro/internal/rtl"
)

// NetALU64 is the deferred-verification gate backend the platform runs
// by default. Execute returns the behavioural (DirectALU) result
// immediately so the control FSM keeps moving at RTL speed, queues the
// operation, and checks a whole batch against the synthesised netlist
// with one 64-lane bit-parallel sweep (netlist.Evaluator64) when the
// queue fills or the core reaches a flag-observable boundary
// (rtl.ALUChecker). A mismatch latches a divergence that the run loop
// turns into platform.StopDivergence; verification never lags the
// retire stream by more than one batch.
type NetALU64 struct {
	ev     *netlist.Evaluator64
	nl     *netlist.Netlist
	direct rtl.DirectALU

	qOp  [netlist.Lanes]isa.Opcode
	qA   [netlist.Lanes]uint32
	qB   [netlist.Lanes]uint32
	qRes [netlist.Lanes]uint32
	qFl  [netlist.Lanes]rtl.ALUFlags
	qn   int

	diverged   bool
	divergence string

	// ctx is the current run's cancellation context (see SetRunContext);
	// a cancelled context makes FlushALU drop its queue unverified, so
	// the gate evaluator — the dominant cost on this rung — stops doing
	// netlist sweeps for a run that is already condemned.
	ctx context.Context
}

// SetRunContext installs the run's cancellation context; rtl.Sim.Run
// calls it at the top of every run (including with nil to clear it).
func (g *NetALU64) SetRunContext(ctx context.Context) { g.ctx = ctx }

// NewNetALU64 returns a backend over its own copy of the ALU netlist and
// a 64-lane evaluator.
func NewNetALU64() *NetALU64 {
	nl := aluNetlist().Clone()
	return &NetALU64{nl: nl, ev: netlist.NewEvaluator64(nl)}
}

// GateEvals reports total primitive evaluations in scalar-equivalents
// (gates swept x lanes occupied), comparable to NetALU's count.
func (g *NetALU64) GateEvals() uint64 { return g.ev.GateEvals }

// Sweeps reports how many levelised sweeps produced those evaluations;
// GateEvals/Sweeps/NumGates is the achieved batch occupancy.
func (g *NetALU64) Sweeps() uint64 { return g.ev.Sweeps }

// Netlist exposes the synthesised network (for stats, equivalence
// checks, and fault injection).
func (g *NetALU64) Netlist() *netlist.Netlist { return g.nl }

// Execute implements rtl.ALUBackend: behavioural result now, netlist
// verification at the next flush boundary.
func (g *NetALU64) Execute(op isa.Opcode, a, b uint32) (uint32, rtl.ALUFlags) {
	opSelect(op) // panic early on ops the netlist does not implement
	res, fl := g.direct.Execute(op, a, b)
	if g.diverged {
		// Past the first divergence the run is already condemned;
		// further checking would only re-report downstream corruption.
		return res, fl
	}
	g.qOp[g.qn] = op
	g.qA[g.qn] = a
	g.qB[g.qn] = b
	g.qRes[g.qn] = res
	g.qFl[g.qn] = fl
	g.qn++
	if g.qn == netlist.Lanes {
		g.FlushALU()
	}
	return res, fl
}

// FlushALU implements rtl.ALUChecker: verify every queued operation with
// one bit-parallel sweep and latch the first mismatch.
func (g *NetALU64) FlushALU() {
	qn := g.qn
	if qn == 0 || g.diverged {
		g.qn = 0
		return
	}
	if g.ctx != nil && g.ctx.Err() != nil {
		g.qn = 0
		return
	}
	g.qn = 0
	for l := 0; l < qn; l++ {
		g.ev.SetInput("a", l, uint64(g.qA[l]))
		g.ev.SetInput("b", l, uint64(g.qB[l]))
		g.ev.SetInput("op", l, opSelect(g.qOp[l]))
	}
	g.ev.EvalLanes(qn)
	for l := 0; l < qn; l++ {
		sel := opSelect(g.qOp[l])
		y := uint32(g.ev.Output("y", l))
		fl := rtl.ALUFlags{}
		if sel == netlist.ALUAdd || sel == netlist.ALUSub {
			fl.CVValid = true
			fl.C = g.ev.Output("c", l) != 0
			fl.V = g.ev.Output("v", l) != 0
		}
		if y != g.qRes[l] || fl != g.qFl[l] {
			g.diverged = true
			g.divergence = fmt.Sprintf(
				"netlist %s(%#x, %#x) = (%#x, %+v), behavioural model says (%#x, %+v)",
				g.qOp[l], g.qA[l], g.qB[l], y, fl, g.qRes[l], g.qFl[l])
			return
		}
	}
}

// ALUDivergence implements rtl.ALUChecker.
func (g *NetALU64) ALUDivergence() (string, bool) { return g.divergence, g.diverged }

// ResetALU clears queued and diverged state; rtl.Sim.Load calls it so a
// reloaded platform starts a fresh run.
func (g *NetALU64) ResetALU() {
	g.qn = 0
	g.diverged = false
	g.divergence = ""
}
