package vet

import (
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/core/content"
	"repro/internal/core/derivative"
	"repro/internal/platform"
)

func TestFanOutRunsEveryTaskOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	counts := make([]atomic.Int32, 37)
	fanOut(len(counts), func(i int) { counts[i].Add(1) })
	for i := range counts {
		if n := counts[i].Load(); n != 1 {
			t.Errorf("task %d ran %d times", i, n)
		}
	}
}

func TestFanOutReraisesTaskPanic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	defer func() {
		if p := recover(); p != "task 5" {
			t.Errorf("recovered %v, want the task's panic", p)
		}
	}()
	fanOut(8, func(i int) {
		if i == 5 {
			panic("task 5")
		}
	})
}

// TestUnitTableAssemblesOnce: every pass asking for one unit gets the
// same decoded copy.
func TestUnitTableAssemblesOnce(t *testing.T) {
	s := content.PortedSystem()
	tab := newUnitTable(s, derivative.A(), platform.KindGolden)
	e, _ := s.Env(content.ModuleNVM)
	path := e.TestSourcePath(e.Tests()[0].ID)
	first := tab.unit(e.Module, path)
	if first == nil || first.u == nil {
		t.Fatalf("shipped test %s did not assemble and decode: %+v", path, first)
	}
	if tab.unit(e.Module, path) != first {
		t.Error("second lookup assembled the unit again")
	}
	if tab.unit(e.Module, "NO/SUCH/test.asm") != nil {
		t.Error("a path outside the tree produced a unit")
	}
}
