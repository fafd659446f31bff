package golden

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/platform"
)

// refTrips is the oracle: execute the counted loop pass-by-pass.
func refTrips(l *countedLoop, s, bv uint32, reps uint64) (t uint64, exited bool) {
	v := s
	for i := uint64(1); i <= reps; i++ {
		v += l.k
		if !l.cmp(v, bv) {
			return i, true
		}
	}
	return reps, false
}

// TestCountedLoopTrips cross-checks the closed-form trip solver against
// pass-by-pass execution over every branch comparison and a grid of
// steps and start/bound values straddling the signed and unsigned wrap
// boundaries. ok=false (the solver punting) is always legal; a wrong
// (t, exited) is not.
func TestCountedLoopTrips(t *testing.T) {
	ops := []isa.Opcode{isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge, isa.OpBltU, isa.OpBgeU}
	vals := []uint32{0, 1, 5, 1000, 0x7fff_fff0, 0x7fff_ffff, 0x8000_0000, 0x8000_0010, 0xffff_fff0, 0xffff_ffff}
	steps := []uint32{0, 1, 3, 4, 64, 0x10000, 0xffff_ffff /* -1 */, 0xffff_fffd /* -3 */, 0x8000_0000}
	reps := []uint64{1, 2, 7, 1 << 14}
	for _, op := range ops {
		l := &countedLoop{op: op, cmp: branchFn(op)}
		for _, k := range steps {
			l.k = k
			for _, s := range vals {
				for _, bv := range vals {
					for _, r := range reps {
						got, gotExit, ok := l.trips(s, bv, r)
						if !ok {
							continue
						}
						want, wantExit := refTrips(l, s, bv, r)
						// The solver may legally settle fewer taken
						// passes than reps (wrap-window cap); what it
						// settles must agree with the oracle prefix.
						if !gotExit && got < r {
							want, wantExit = refTrips(l, s, bv, got)
						}
						if got != want || gotExit != wantExit {
							t.Fatalf("op=%v k=%#x s=%#x b=%#x reps=%d: got (%d,%v), want (%d,%v)",
								op, k, s, bv, r, got, gotExit, want, wantExit)
						}
					}
				}
			}
		}
	}
}

// TestFlushStatsIdempotent pins the copy-then-zero contract: a second
// flush with no intervening execution must add nothing to the global
// counters or to the run's counts, so concurrent matrix workers (or a
// flush at run end plus a defensive flush in a caller) never double-count
// a run.
func TestFlushStatsIdempotent(t *testing.T) {
	c := &Core{}
	c.pdHits, c.pdSlow = 7, 3
	c.tBuilt, c.tExec, c.tInval, c.tFallback = 4, 100, 2, 1
	var got platform.EngineCounts
	c.FlushStats(&got)
	if c.pdHits != 0 || c.pdSlow != 0 || c.tBuilt != 0 || c.tExec != 0 || c.tInval != 0 || c.tFallback != 0 {
		t.Fatal("flush did not zero the core-local counters")
	}
	c.FlushStats(&got)
	want := platform.EngineCounts{Fetches: 7, SlowFetches: 3,
		BlocksBuilt: 4, BlocksExecuted: 100, BlocksInvalidated: 2, FallbackExits: 1}
	if got != want {
		t.Fatalf("run counts after two flushes = %+v, want %+v", got, want)
	}
}
