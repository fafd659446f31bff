// E22 — chips that cost what the test costs: (a) a long-lived process
// running fresh-cache matrix after matrix holds no simulator state from
// finished runs, because a predecoded ROM table lives on its image;
// (b) the per-cell set-up cost, one new platform plus Load, per kind.
// The allocation budget itself is pinned in internal/platform
// (TestNewLoadAllocation). See EXPERIMENTS.md (E22).
package repro

import (
	"runtime"
	"testing"

	"repro/advm"
)

// e22Matrix runs the golden-family matrix (21 tests x 4 derivatives on
// the golden model, 84 cells) serially with fresh caches, as a restarted
// request or a served worker's next job would.
func e22Matrix(t *testing.T) {
	t.Helper()
	sys := advm.StandardSystem()
	sl, err := advm.FreezeSystem("E22", sys)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := advm.Regress(sys, sl, advm.RegressionSpec{
		Kinds:    []advm.Kind{advm.KindGolden},
		Cache:    advm.NewBuildCache(),
		RunCache: advm.NewRunCache(),
		SkipVet:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.AllPassed() || len(rep.Outcomes) != 84 {
		t.Fatalf("matrix: %d cells, all passed = %v", len(rep.Outcomes), rep.AllPassed())
	}
}

// liveHeap is the heap still reachable after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestE22_FreshMatricesHoldNoHeap is acceptance (a): eight fresh-cache
// matrices in one process. Once a run's caches are dropped, its images,
// their predecode tables and every decoded page must go with them, so
// the live heap after the last run stays within 1 MB of the heap after
// the second (the first run also builds once-per-process state).
func TestE22_FreshMatricesHoldNoHeap(t *testing.T) {
	const runs = 8
	var heap [runs]uint64
	for i := range heap {
		e22Matrix(t)
		heap[i] = liveHeap()
	}
	if grew := int64(heap[runs-1]) - int64(heap[1]); grew > 1<<20 {
		t.Errorf("live heap grew %.2f MB over %d fresh matrices (after each run, MB: %.2f)",
			float64(grew)/(1<<20), runs-2, mb(heap[:]))
	}
}

func mb(v []uint64) []float64 {
	out := make([]float64, len(v))
	for i, b := range v {
		out[i] = float64(b) / (1 << 20)
	}
	return out
}

// BenchmarkE22_NewLoad is (b): the set-up a regression cell pays before
// its first instruction, one platform.New plus Load of a linked image,
// per kind. Report ns/op and B/op (go test -bench E22 -benchmem).
func BenchmarkE22_NewLoad(b *testing.B) {
	sys := advm.StandardSystem()
	d := advm.DerivativeA()
	for _, k := range advm.AllPlatformKinds() {
		img, err := sys.BuildTest("UART", "TEST_UART_LOOPBACK_SINGLE", d, k)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(k.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p, err := advm.NewPlatform(k, d)
				if err != nil {
					b.Fatal(err)
				}
				if err := p.Load(img); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
