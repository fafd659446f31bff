package vet

// units.go holds one derivative's translation units for one Check call.
// The CFG pass, the noreturn analysis and the whole-program call graph
// all read the same units — a test unit, its module's Base_Functions,
// the three global-layer units — so the table assembles and decodes
// each unit once and hands every pass the same decoded copy. Decoded
// units are read-only after construction.

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core/derivative"
	"repro/internal/core/sysenv"
	"repro/internal/platform"
)

// unitTable is the per-derivative unit table of one Check call. It is
// owned by one goroutine.
type unitTable struct {
	d    *derivative.Derivative
	k    platform.Kind
	tree map[string]string
	// units maps (module, path) to the unit built from tree[path] under
	// the module's include resolver.
	units map[[2]string]*tableUnit
}

// tableUnit is one assembled unit: err is the assembly error, and
// decodeErr the decode error of an object that did assemble. u is set
// only when both are nil.
type tableUnit struct {
	u         *cfgUnit
	err       error
	decodeErr error
}

func newUnitTable(s *sysenv.System, d *derivative.Derivative, k platform.Kind) *unitTable {
	return &unitTable{d: d, k: k, tree: s.Materialise(d), units: make(map[[2]string]*tableUnit)}
}

// unit returns the unit at path, assembled for module, or nil when the
// tree has no such file.
func (tab *unitTable) unit(module, path string) *tableUnit {
	key := [2]string{module, path}
	if tu, ok := tab.units[key]; ok {
		return tu
	}
	src, ok := tab.tree[path]
	if !ok {
		return nil
	}
	tu := &tableUnit{}
	if o, err := assembleUnit(tab.tree, module, path, src, tab.d, tab.k); err != nil {
		tu.err = err
	} else {
		tu.u, tu.decodeErr = decodeUnit(o)
	}
	tab.units[key] = tu
	return tu
}

// decoded returns the decoded unit at path, or nil when it is missing or
// does not assemble or decode.
func (tab *unitTable) decoded(module, path string) *cfgUnit {
	if tu := tab.unit(module, path); tu != nil {
		return tu.u
	}
	return nil
}

// fanOut runs task(0) .. task(n-1) on at most GOMAXPROCS goroutines and
// returns when all have finished. Each task writes only its own result
// slot, so the caller merges the slots in index order and the merged
// output does not depend on scheduling. A task's panic is re-raised in
// the caller, as it would be if the tasks ran serially.
func fanOut(n int, task func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			task(i)
		}
		return
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		once     sync.Once
		panicked any
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					once.Do(func() { panicked = p })
				}
			}()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				task(i)
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}
