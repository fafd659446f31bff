package main

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"time"

	"repro/advm"
	"repro/internal/core/regress"
	"repro/internal/core/shard"
	"repro/internal/core/sysenv"
)

// outcomeLayers derives the regress and per-platform metrics from the
// matrix outcomes; workers is the slot count the matrix ran on.
func (p *probe) outcomeLayers(outs []advm.RegressionOutcome, workers int) {
	var build, run, hit float64
	for _, o := range outs {
		build += float64(o.BuildNanos) / 1e6
		run += float64(o.RunNanos) / 1e6
		if o.RunCached {
			hit += float64(o.RunNanos) / 1e6
			continue
		}
		k := "platform." + o.Platform.String()
		p.m[k+".cells_simulated"]++
		p.m[k+".run_ms"] += float64(o.RunNanos) / 1e6
		p.m[k+".insts"] += float64(o.Insts)
	}
	for _, k := range platformKinds {
		k = "platform." + k
		if t := p.m[k+".run_ms"]; t > 0 {
			p.m[k+".minst_per_s"] = p.m[k+".insts"] / t / 1e3
		}
	}
	p.m["regress.build_ms"] = build
	p.m["regress.run_ms"] = run
	p.m["regress.sched_residual_ms"] = p.m["regress.wall_ms"]*float64(workers) - build - run
	p.m["runcache.hit_ms"] = hit
}

// processLayers reads the layers that ran in the bench process: the
// assembler through the metrics registry, both caches, and the artifact
// store and codec through the timing wrappers.
func (p *probe) processLayers(bc *advm.BuildCache, rc *advm.RunCache) {
	snap := p.reg.Snapshot()
	p.m["asm.units"] = float64(snap.Counters["asm.units"])
	p.m["asm.lines"] = float64(snap.Counters["asm.lines"])
	p.m["asm.busy_ms"] = float64(snap.Histograms["asm.assemble_ns"].SumNanos) / 1e6

	bs := bc.Stats()
	p.m["buildcache.hits"] = float64(bs.Hits)
	p.m["buildcache.misses"] = float64(bs.Misses)
	p.m["buildcache.merged"] = float64(bs.Merged)
	p.m["buildcache.disk_hits"] = float64(bs.DiskHits)
	p.m["buildcache.reuse"] = bs.Reuse()
	rs := rc.Stats()
	p.m["runcache.hits"] = float64(rs.Hits)
	p.m["runcache.misses"] = float64(rs.Misses)
	p.m["runcache.bypassed"] = float64(rs.Bypassed)
	p.m["runcache.disk_hits"] = float64(rs.DiskHits)

	for _, io := range []*storeIO{&p.buildIO, &p.runIO} {
		p.m["castore.get_calls"] += float64(io.getCalls.Load())
		p.m["castore.get_hits"] += float64(io.getHits.Load())
		p.m["castore.get_ms"] += float64(io.getNs.Load()) / 1e6
		p.m["castore.bytes_read"] += float64(io.bytesRead.Load())
		p.m["castore.put_calls"] += float64(io.putCalls.Load())
		p.m["castore.put_ms"] += float64(io.putNs.Load()) / 1e6
		p.m["castore.bytes_written"] += float64(io.bytesWritten.Load())
		p.m["castore.lock_calls"] += float64(io.lockCalls.Load())
		p.m["castore.lock_ms"] += float64(io.lockNs.Load()) / 1e6
	}
	p.m["persist.encode_ms"] = float64(p.encNs.Load()) / 1e6
	p.m["persist.decode_ms"] = float64(p.decNs.Load()) / 1e6
	// Build time the wrappers cannot attribute: materialise, key hashing,
	// link, cache bookkeeping and singleflight waits.
	storeNs := p.buildIO.getNs.Load() + p.buildIO.putNs.Load() + p.buildIO.lockNs.Load()
	p.m["build.residual_ms"] = p.m["regress.build_ms"] - p.m["asm.busy_ms"] -
		float64(storeNs+p.encNs.Load()+p.decNs.Load())/1e6
}

// engineLayers turns the process-wide simulator counters into
// per-request deltas. Every instruction the RTL and gate models run, and
// every one the golden core interprets instead of executing in a
// translated block, is one predecode fetch; so the golden core's
// translated share is what the fetches leave of its instructions.
func (p *probe) engineLayers(outs []advm.RegressionOutcome, pd0 advm.PredecodeStats, tr0 advm.TranslateStats) {
	pd, tr := advm.PredecodeTotals(), advm.TranslateTotals()
	p.m["predecode.fetches"] = float64(pd.Hits - pd0.Hits)
	p.m["predecode.pages_decoded"] = float64(pd.PagesDecoded - pd0.PagesDecoded)
	p.m["translate.blocks_executed"] = float64(tr.Executed - tr0.Executed)
	p.m["translate.fallback_exits"] = float64(tr.Fallbacks - tr0.Fallbacks)
	var core, rtl float64
	for _, o := range outs {
		if o.RunCached {
			continue
		}
		switch o.Platform {
		case advm.KindRTL, advm.KindGate:
			rtl += float64(o.Insts)
		default:
			core += float64(o.Insts)
		}
	}
	if core > 0 {
		interpreted := float64(pd.Hits+pd.Slow-pd0.Hits-pd0.Slow) - rtl
		p.m["translate.block_share"] = 1 - interpreted/core
	}
}

// storeIO counts one cache's artifact-store traffic.
type storeIO struct {
	getCalls, getHits, getNs, bytesRead atomic.Int64
	putCalls, putNs, bytesWritten       atomic.Int64
	lockCalls, lockNs                   atomic.Int64
}

// timedStore is the artifact store as a cache backend, timed.
type timedStore struct {
	st *advm.ArtifactStore
	io *storeIO
}

func (t timedStore) Get(key string) ([]byte, bool) {
	t0 := time.Now()
	data, ok := t.st.Get(key)
	t.io.getNs.Add(time.Since(t0).Nanoseconds())
	t.io.getCalls.Add(1)
	if ok {
		t.io.getHits.Add(1)
		t.io.bytesRead.Add(int64(len(data)))
	}
	return data, ok
}

func (t timedStore) Put(key string, data []byte) error {
	t0 := time.Now()
	err := t.st.Put(key, data)
	t.io.putNs.Add(time.Since(t0).Nanoseconds())
	t.io.putCalls.Add(1)
	t.io.bytesWritten.Add(int64(len(data)))
	return err
}

func (t timedStore) Lock(key string) func() {
	t0 := time.Now()
	unlock := t.st.Lock(key)
	t.io.lockNs.Add(time.Since(t0).Nanoseconds())
	t.io.lockCalls.Add(1)
	return unlock
}

// encode and decode are the build cache's persistence codec, timed.
func (p *probe) encode(v any) ([]byte, bool) {
	t0 := time.Now()
	data, ok := sysenv.PersistEncode(v)
	p.encNs.Add(time.Since(t0).Nanoseconds())
	return data, ok
}

func (p *probe) decode(data []byte) (any, int64, bool) {
	t0 := time.Now()
	v, n, ok := sysenv.PersistDecode(data)
	p.decNs.Add(time.Since(t0).Nanoseconds())
	return v, n, ok
}

// frameCodec round-trips each served cell's frames through shard.Conn as
// the protocol moves them: the job to a worker, its result back to the
// daemon, and the result on to the client. It returns the time per cell.
func frameCodec(plan *advm.ShardPlan, results []*advm.ShardResult) (time.Duration, error) {
	if len(results) == 0 {
		return 0, nil
	}
	var buf bytes.Buffer
	t0 := time.Now()
	w := shard.NewConn(nil, &buf)
	for _, r := range results {
		job := &shard.Job{ID: r.ID, Req: r.Req, Label: plan.Label, Epoch: plan.Epoch,
			Cell: plan.Cells[r.ID], Engine: "translate"}
		for _, f := range []shard.Frame{
			{Type: shard.FrameJob, Job: job},
			{Type: shard.FrameResult, Result: r},
			{Type: shard.FrameResult, Result: r},
		} {
			if err := w.Write(f); err != nil {
				return 0, err
			}
		}
	}
	rd := shard.NewConn(&buf, nil)
	for i := 0; i < 3*len(results); i++ {
		if _, err := rd.Read(); err != nil {
			return 0, err
		}
	}
	return time.Since(t0) / time.Duration(len(results)), nil
}

// workerReplay repeats in-process what a shard worker does per job: a
// one-cell regress.Run, vet skipped, over caches that live as long as
// the worker process.
type workerReplay struct {
	sys   *advm.System
	sl    *advm.SystemLabel
	cells []regress.CellCoord
	bc    *advm.BuildCache
	rc    *advm.RunCache
}

// newWorkerReplay freezes the system and warms the caches with one pass,
// as the fleet's set-up request warmed its workers.
func newWorkerReplay(ds []*advm.Derivative, ks []advm.Kind) (*workerReplay, error) {
	w := &workerReplay{sys: advm.StandardSystem(),
		bc: advm.NewBuildCache(), rc: advm.NewRunCache()}
	var err error
	if w.sl, err = advm.FreezeSystem(label, w.sys); err != nil {
		return nil, err
	}
	if w.cells, err = regress.EnumerateCells(w.sys, regress.Spec{Derivatives: ds, Kinds: ks}); err != nil {
		return nil, err
	}
	_, err = w.run()
	return w, err
}

// run replays every cell once and returns the mean time per cell.
func (w *workerReplay) run() (time.Duration, error) {
	eng, err := advm.ParseEngine("translate")
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	for _, c := range w.cells {
		var records []advm.JournalRecord
		rep, err := advm.Regress(w.sys, w.sl, advm.RegressionSpec{
			Modules: []string{c.Module}, Tests: []string{c.Test},
			Derivatives: []*advm.Derivative{c.Deriv}, Kinds: []advm.Kind{c.Kind},
			RunSpec: advm.RunSpec{Engine: eng},
			Cache:   w.bc, RunCache: w.rc, SkipVet: true,
			Journal: advm.JournalSinkFunc(func(r advm.JournalRecord) { records = append(records, r) }),
		})
		if err != nil {
			return 0, err
		}
		if len(rep.Outcomes) != 1 || !rep.Outcomes[0].Passed {
			return 0, fmt.Errorf("one-cell replay of %s/%s failed", c.Module, c.Test)
		}
	}
	return time.Since(t0) / time.Duration(len(w.cells)), nil
}

// overheadTable prints where a served request's time goes, per request
// and per cell. The codec, one-cell run and residual rows run on the
// slots in parallel; together they make up the stream row.
func (b *bench) overheadTable(v map[string]float64, n int) {
	type row struct {
		name             string
		perReqMs, cellUs float64
	}
	cells := float64(b.cells)
	serial := func(name, metric string) row {
		return row{name, v[metric], v[metric] * 1e3 / cells}
	}
	parallel := func(name, metric string) row {
		return row{name, v[metric] * cells / slots / 1e3, v[metric]}
	}
	rows := []row{
		serial("plan (daemon: freeze, vet, enumerate)", "shard.plan_ms"),
		serial("stream (first to last result)", "shard.stream_ms"),
		parallel("  frame codec (job, result x2)", "shard.frame_codec_us"),
		parallel("  worker one-cell regress.Run", "shard.worker_cell_us"),
		parallel("  residual (transport, syscalls, dispatch)", "shard.residual_us_per_cell"),
		serial("merge (client)", "shard.merge_ms"),
		serial("journal encode", "journal.encode_ms"),
		serial("certify (client)", "release.certify_ms"),
		serial("request wall (shard.Regress)", "regress.wall_ms"),
	}
	fmt.Fprintf(b.log, "served-fleet overhead, median of %d traced requests, %d cells on %d slots\n", n, b.cells, slots)
	fmt.Fprintf(b.log, "%-44s %12s %10s\n", "layer", "ms/request", "us/cell")
	for _, r := range rows {
		fmt.Fprintf(b.log, "%-44s %12.2f %10.1f\n", r.name, r.perReqMs, r.cellUs)
	}
}
