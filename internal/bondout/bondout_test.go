package bondout

import (
	"testing"

	"repro/internal/platform"
	"repro/internal/soc"
	"repro/internal/testprog"
)

func load(t *testing.T, src string) *Chip {
	t.Helper()
	cfg := soc.DefaultConfig()
	img, err := testprog.Build(cfg, nil, map[string]string{"t.asm": src})
	if err != nil {
		t.Fatal(err)
	}
	c := New(cfg)
	if err := c.Load(img); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestDebugInstructionStops(t *testing.T) {
	c := load(t, `
_main:
    LOAD d0, 1
    DEBUG
    JMP pass
`+testprog.PassTail)
	res, err := c.Run(platform.RunSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reason != platform.StopBreakpoint {
		t.Fatalf("reason = %s, want breakpoint", res.Reason)
	}
	if res.State == nil || res.State.D[0] != 1 {
		t.Error("debug window must expose registers at the stop")
	}
}

func TestHardwareBreakpointAndResume(t *testing.T) {
	cfg := soc.DefaultConfig()
	img, err := testprog.Build(cfg, nil, map[string]string{"t.asm": testprog.LoopProgram(10)})
	if err != nil {
		t.Fatal(err)
	}
	c := New(cfg)
	if err := c.Load(img); err != nil {
		t.Fatal(err)
	}
	loopAddr, ok := img.SymbolAddr("loop")
	if !ok {
		t.Fatal("loop symbol missing")
	}
	c.AddBreakpoint(loopAddr)
	res, err := c.Run(platform.RunSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reason != platform.StopBreakpoint {
		t.Fatalf("reason = %s", res.Reason)
	}
	if res.State.PC != loopAddr {
		t.Errorf("stopped at %#x, want %#x", res.State.PC, loopAddr)
	}
	// Resume hits the breakpoint again on the next iteration.
	res2, err := c.Resume(platform.RunSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Reason != platform.StopBreakpoint {
		t.Fatalf("resume reason = %s", res2.Reason)
	}
	if res2.State.D[0] != res.State.D[0]+1 {
		t.Errorf("one loop iteration expected: d0 %d -> %d", res.State.D[0], res2.State.D[0])
	}
}

func TestBreakpointComparatorLimit(t *testing.T) {
	c := load(t, "_main:\n JMP pass\n"+testprog.PassTail)
	for i := 0; i < maxHWBreakpoints+2; i++ {
		c.AddBreakpoint(uint32(0x1000 + i*4))
	}
	if len(c.breaks) != maxHWBreakpoints {
		t.Errorf("comparators = %d, want %d", len(c.breaks), maxHWBreakpoints)
	}
	// The oldest two were displaced.
	if c.breaks[0] != 0x1008 {
		t.Errorf("oldest remaining = %#x", c.breaks[0])
	}
}

// watchProg stores 0x42 once into a BSS word, buf.
const watchProg = `
_main:
    LOAD a0, buf
    LOAD d0, 0x42
    STORE [a0], d0
    JMP pass
` + testprog.PassTail + `
.SECTION bss
buf:
    .SPACE 4
`

func TestWatchpointUnit(t *testing.T) {
	cfg := soc.DefaultConfig()
	img, err := testprog.Build(cfg, nil, map[string]string{"t.asm": watchProg})
	if err != nil {
		t.Fatal(err)
	}
	c := New(cfg)
	if err := c.Load(img); err != nil {
		t.Fatal(err)
	}
	bufAddr, _ := img.SymbolAddr("buf")
	c.AddWatchpoint(bufAddr, bufAddr+3)
	res, err := c.Run(platform.RunSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed() {
		t.Fatalf("program failed: %+v", res)
	}
	if len(c.WatchHits) != 2 || c.WatchHits[0] != bufAddr || c.WatchHits[1] != 0x42 {
		t.Errorf("watch hits = %v", c.WatchHits)
	}
}

// TestWatchpointSurvivesLoad: the watchpoint unit belongs to the chip, as
// the breakpoint comparators do, so a range armed before Load watches the
// loaded program, and a second Load keeps it armed while clearing the
// hits of the previous run.
func TestWatchpointSurvivesLoad(t *testing.T) {
	cfg := soc.DefaultConfig()
	img, err := testprog.Build(cfg, nil, map[string]string{"t.asm": watchProg})
	if err != nil {
		t.Fatal(err)
	}
	bufAddr, _ := img.SymbolAddr("buf")
	c := New(cfg)
	c.AddWatchpoint(bufAddr, bufAddr+3)
	for load := 1; load <= 2; load++ {
		if err := c.Load(img); err != nil {
			t.Fatal(err)
		}
		res, err := c.Run(platform.RunSpec{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Passed() {
			t.Fatalf("load %d: program failed: %+v", load, res)
		}
		if len(c.WatchHits) != 2 || c.WatchHits[0] != bufAddr || c.WatchHits[1] != 0x42 {
			t.Errorf("load %d: watch hits = %v, want [%#x 0x42]", load, c.WatchHits, bufAddr)
		}
	}
}

func TestTracePort(t *testing.T) {
	c := load(t, testprog.LoopProgram(5))
	var pcs []uint32
	res, err := c.Run(platform.RunSpec{Trace: func(r platform.TraceRecord) { pcs = append(pcs, r.PC) }})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed() {
		t.Fatal("program failed")
	}
	if uint64(len(pcs)) != res.Instructions {
		t.Errorf("trace records = %d, instructions = %d", len(pcs), res.Instructions)
	}
}

func TestNormalRunPasses(t *testing.T) {
	c := load(t, testprog.ArithProgram)
	res, err := c.Run(platform.RunSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed() {
		t.Fatalf("arith failed on bondout: %+v", res)
	}
	if !c.Caps().Breakpoints || !c.Caps().Trace {
		t.Error("bondout caps must include debug features")
	}
}
