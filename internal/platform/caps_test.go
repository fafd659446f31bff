package platform_test

import (
	"errors"
	"runtime"
	"strings"
	"testing"

	"repro/internal/bondout"
	"repro/internal/core/content"
	"repro/internal/core/derivative"
	"repro/internal/core/telemetry"
	"repro/internal/obj"
	"repro/internal/platform"

	_ "repro/internal/emu"
	_ "repro/internal/gate"
	_ "repro/internal/golden"
	_ "repro/internal/rtl"
	_ "repro/internal/silicon"
)

// wantCaps pins the observability matrix from the paper's Section 1
// platform list. A platform changing its advertised capabilities must
// update this table deliberately.
var wantCaps = map[platform.Kind]platform.Caps{
	platform.KindGolden:   {Trace: true, RegVisibility: true, MemVisibility: true},
	platform.KindRTL:      {Trace: true, RegVisibility: true, MemVisibility: true, CycleAccurate: true},
	platform.KindGate:     {Trace: true, RegVisibility: true, MemVisibility: true, CycleAccurate: true},
	platform.KindEmulator: {MemVisibility: true},
	platform.KindBondout:  {Trace: true, Breakpoints: true, RegVisibility: true, MemVisibility: true},
	platform.KindSilicon:  {},
}

// buildAndLoad assembles the UART loopback cell for the given platform
// kind (the abstraction layer conditionally assembles per platform) and
// loads it onto a fresh instance.
func buildAndLoad(t *testing.T, k platform.Kind) (platform.Platform, *obj.Image) {
	t.Helper()
	s := content.PortedSystem()
	d := derivative.A()
	img, err := s.BuildTest(content.ModuleUART, "TEST_UART_LOOPBACK_SINGLE", d, k)
	if err != nil {
		t.Fatalf("%s: build: %v", k, err)
	}
	p, err := platform.New(k, d.HW)
	if err != nil {
		t.Fatalf("%s: new: %v", k, err)
	}
	if err := p.Load(img); err != nil {
		t.Fatalf("%s: load: %v", k, err)
	}
	return p, img
}

// TestCapsMatchBehaviour runs one test cell on every registered platform
// and checks that each advertised capability is backed by observable
// behaviour — Trace actually yields an event stream (or ErrNoTrace),
// RegVisibility actually yields final register state.
func TestCapsMatchBehaviour(t *testing.T) {
	for _, k := range platform.AllKinds() {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			want, ok := wantCaps[k]
			if !ok {
				t.Fatalf("no expected caps for %s — extend wantCaps", k)
			}
			p, _ := buildAndLoad(t, k)
			if got := p.Caps(); got != want {
				t.Fatalf("advertised caps = %+v, want %+v", got, want)
			}

			// Trace behaviour: a platform with a trace port must deliver
			// instruction-retired events; one without must refuse the run.
			var events int
			res, err := p.Run(platform.RunSpec{
				Events: telemetry.SinkFunc(func(ev telemetry.Event) bool {
					if ev.Kind == telemetry.EvInstRetired {
						events++
					}
					return true
				}),
			})
			if want.Trace {
				if err != nil {
					t.Fatalf("traced run: %v", err)
				}
				if !res.Passed() {
					t.Fatalf("traced run did not pass: %s %s", res.Reason, res.Detail)
				}
				if events == 0 {
					t.Error("Caps.Trace is true but no instruction events arrived")
				}
			} else {
				if !errors.Is(err, platform.ErrNoTrace) {
					t.Fatalf("untraceable platform returned %v, want ErrNoTrace", err)
				}
				// The legacy callback is ignored, not an error, and the
				// plain run must still work.
				res, err = p.Run(platform.RunSpec{Trace: func(platform.TraceRecord) {}})
				if err != nil {
					t.Fatalf("plain run: %v", err)
				}
				if !res.Passed() {
					t.Fatalf("plain run did not pass: %s %s", res.Reason, res.Detail)
				}
			}

			// Register visibility: final architectural state is reported
			// exactly when advertised.
			if want.RegVisibility && res.State == nil {
				t.Error("Caps.RegVisibility is true but Result.State is nil")
			}
			if !want.RegVisibility && res.State != nil {
				t.Error("Caps.RegVisibility is false but Result.State leaked")
			}
		})
	}
}

// TestBondoutBreakpointStopsRun backs Caps.Breakpoints with behaviour: a
// hardware breakpoint on the image entry point must stop the run before
// any instruction retires.
func TestBondoutBreakpointStopsRun(t *testing.T) {
	p, img := buildAndLoad(t, platform.KindBondout)
	chip, ok := p.(*bondout.Chip)
	if !ok {
		t.Fatalf("bondout platform is %T", p)
	}
	chip.AddBreakpoint(img.Entry)
	res, err := p.Run(platform.RunSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reason != platform.StopBreakpoint {
		t.Fatalf("reason = %s, want %s", res.Reason, platform.StopBreakpoint)
	}
	if res.Instructions != 0 {
		t.Errorf("breakpoint at entry should stop before retiring instructions, ran %d", res.Instructions)
	}
	// Resuming past the comparator must complete the test.
	res, err = chip.Resume(platform.RunSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reason == platform.StopBreakpoint {
		// Entry is only hit once; any further stop means Resume failed to
		// step over the comparator.
		t.Fatalf("resume re-trapped at entry")
	}
	if !res.Passed() {
		t.Fatalf("resumed run did not pass: %s %s", res.Reason, res.Detail)
	}
}

// TestCycleAccuratePlatformsAgree: the two cycle-true implementations of
// the same design (HDL-RTL and its synthesised gate-level netlist) must
// report identical cycle counts for the same image — that agreement is
// what CycleAccurate promises.
func TestCycleAccuratePlatformsAgree(t *testing.T) {
	run := func(k platform.Kind) *platform.Result {
		p, _ := buildAndLoad(t, k)
		res, err := p.Run(platform.RunSpec{})
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		if !res.Passed() {
			t.Fatalf("%s: %s %s", k, res.Reason, res.Detail)
		}
		return res
	}
	rtl, gate := run(platform.KindRTL), run(platform.KindGate)
	if rtl.Cycles != gate.Cycles {
		t.Errorf("cycle-accurate platforms disagree: rtl=%d gate=%d", rtl.Cycles, gate.Cycles)
	}
	if rtl.Instructions != gate.Instructions {
		t.Errorf("instruction counts disagree: rtl=%d gate=%d", rtl.Instructions, gate.Instructions)
	}
}

// TestNewLoadAllocation pins the set-up a regression cell pays before its
// first instruction: platform.New plus Load must allocate at most 64 KiB
// on average, for every kind. Memory is paged and allocated on first
// write, each golden-core platform builds its SoC once, at Load, and the
// gate platform copies one process-wide ALU netlist instead of
// synthesising its own.
func TestNewLoadAllocation(t *testing.T) {
	const budget, rounds = 64 << 10, 20
	d := derivative.A()
	for _, k := range platform.AllKinds() {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			// The first load pays once-per-process work: the shared ALU
			// netlist and the image's predecode table.
			_, img := buildAndLoad(t, k)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < rounds; i++ {
				p, err := platform.New(k, d.HW)
				if err != nil {
					t.Fatal(err)
				}
				if err := p.Load(img); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			if per := (after.TotalAlloc - before.TotalAlloc) / rounds; per > budget {
				t.Errorf("new+Load allocates %d B per cell, budget %d B", per, budget)
			}
		})
	}
}

func TestParseKind(t *testing.T) {
	for _, name := range []string{"golden", "rtl", "gate", "emulator", "bondout", "silicon", "Golden", "RTL"} {
		k, err := platform.ParseKind(name)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.EqualFold(k.String(), name) {
			t.Fatalf("ParseKind(%q).String() = %q", name, k)
		}
	}
	if _, err := platform.ParseKind("abacus"); err == nil {
		t.Fatal("unknown kind parsed")
	}
}
