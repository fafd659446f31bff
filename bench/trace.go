package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/advm"
	"repro/internal/core/regress"
	"repro/internal/core/shard"
)

// benchLane is the Chrome-trace lane of the bench's own spans; regress
// names its worker lanes from 0.
const benchLane = 100

// traced drives the workload's requests in-process through the layers'
// public functions, alternating traced and untraced requests, and
// reports the per-layer medians of the traced ones. The untraced ones
// measure what the tracing itself costs.
func (b *bench) traced(seed int64) (*result, error) {
	ds, ks, err := b.selection()
	if err != nil {
		return nil, err
	}
	tl := advm.NewTimeline()
	tl.NameLane(benchLane, "bench")
	var (
		store string
		fl    *fleet
		wr    *workerReplay
	)
	switch b.workload {
	case "matrix-restart":
		store = b.path("store")
		if _, err := b.mustRegress(matrixFlags(store)...); err != nil {
			return nil, fmt.Errorf("filling the store: %w", err)
		}
	case "served-fleet":
		if fl, err = b.startFleet(b.path("fleet")); err != nil {
			return nil, err
		}
		if wr, err = newWorkerReplay(ds, ks); err != nil {
			return nil, err
		}
	}
	nextID := 0
	request := func(traced bool) (*probe, error) {
		p := &probe{id: nextID, traced: traced, m: map[string]float64{}}
		nextID++
		if traced {
			p.tl, p.reg = tl, advm.NewMetricsRegistry()
		}
		t0 := time.Now()
		var err error
		switch b.workload {
		case "served-fleet":
			err = b.servedRequest(p, fl.addr, wr, ds, ks)
		case "matrix-fill":
			err = b.matrixRequest(p, b.path("fill-%d", p.id), ds, ks)
		default:
			err = b.matrixRequest(p, store, ds, ks)
		}
		if traced {
			tl.Span("request", "bench", benchLane, t0, time.Since(t0), map[string]any{"request": p.id})
		}
		return p, err
	}
	if _, err := request(false); err != nil { // warm-up
		return nil, err
	}

	var tracedPs, plainPs []*probe
	start := time.Now()
	for i := 0; i < tracedPairs && b.more(i, tracedPairs, start); i++ {
		// Alternate which side goes first, so drift hits both alike.
		for _, traced := range []bool{i%2 == 0, i%2 != 0} {
			p, err := request(traced)
			if err != nil {
				return nil, err
			}
			if !p.ok {
				fmt.Fprintf(b.log, "advm-bench: request %d: bundle differs from the reference\n", p.id)
			}
			if traced {
				tracedPs = append(tracedPs, p)
			} else {
				plainPs = append(plainPs, p)
			}
		}
	}

	v := map[string]float64{}
	for _, d := range perLayer {
		v[d.name] = medianOf(tracedPs, d.name)
	}
	plain := medianOf(plainPs, "bench.request_ms")
	v["bench.trace_overhead_pct"] = (v["bench.request_ms"] - plain) / plain * 100
	failed := 0
	for _, p := range append(tracedPs, plainPs...) {
		if !p.ok {
			failed++
		}
	}
	if fl != nil {
		b.overheadTable(v, len(tracedPs))
	}
	if err := b.writeTrace(tl, seed); err != nil {
		return nil, err
	}
	ms, err := report(perLayer, v)
	if err != nil {
		return nil, err
	}
	n := len(tracedPs) + len(plainPs)
	return &result{Correct: failed == 0, Attempted: n, Failed: failed, Metrics: ms}, nil
}

// writeTrace writes the Chrome trace: the bench's request and layer
// spans (request id on each) beside regress's per-worker build and run
// spans.
func (b *bench) writeTrace(tl *advm.Timeline, seed int64) error {
	if err := os.MkdirAll(b.out, 0o755); err != nil {
		return err
	}
	path := filepath.Join(b.out, fmt.Sprintf("%s-seed%d.json", b.workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tl.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(b.log, "advm-bench: Chrome trace written to %s (%d events)\n", path, tl.Len())
	return nil
}

func medianOf(ps []*probe, name string) float64 {
	xs := make([]float64, len(ps))
	for i, p := range ps {
		xs[i] = p.m[name]
	}
	return median(xs)
}

// probe is one in-process request: its metric values and, when traced,
// the instruments attached to the layers.
type probe struct {
	id     int
	traced bool
	tl     *advm.Timeline
	reg    *advm.MetricsRegistry
	m      map[string]float64
	ok     bool // the request's bundle equals the reference

	buildIO, runIO storeIO // artifact-store traffic of each cache
	encNs, decNs   atomic.Int64
}

// span runs f and adds its duration in ms to metric name; traced, it
// also records a span.
func (p *probe) span(name string, f func() error) error {
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	p.m[name] += ms(d)
	if p.traced {
		p.tl.Span(name, "bench", benchLane, t0, d, map[string]any{"request": p.id})
	}
	return err
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// freeze builds the shipped system and freezes it, as every CLI request
// does first.
func (p *probe) freeze() (sys *advm.System, sl *advm.SystemLabel, err error) {
	err = p.span("release.freeze_ms", func() error {
		sys = advm.StandardSystem()
		sl, err = advm.FreezeSystem(label, sys)
		return err
	})
	return sys, sl, err
}

// preflight runs the vet gate over the selected derivatives.
func (p *probe) preflight(sys *advm.System, sl *advm.SystemLabel, ds []*advm.Derivative) error {
	opts := advm.DefaultVetOptions()
	opts.Derivatives = ds
	return p.span("vet.preflight_ms", func() error {
		vr, err := advm.Preflight(sys, sl, opts)
		if vr != nil {
			p.m["vet.findings"] = float64(len(vr.Findings))
		}
		return err
	})
}

// certify seals the bundle as the CLIs' -bundle does and compares it
// with the reference.
func (p *probe) certify(sys *advm.System, sl *advm.SystemLabel, rep *advm.RegressionReport, ref []byte) error {
	return p.span("release.certify_ms", func() error {
		bundle, err := advm.Certify(sys, sl, advm.DefaultVetOptions(), rep.BundleCells())
		if err != nil {
			return err
		}
		out, err := bundle.JSON()
		p.ok = err == nil && bytes.Equal(append(out, '\n'), ref)
		return err
	})
}

// matrixRequest is one matrix-cold, -fill or -restart request: what
// advm-regress does in-process, with the vet pass that regress.Run would
// run split out so it can be timed. store is empty for matrix-cold.
func (b *bench) matrixRequest(p *probe, store string, ds []*advm.Derivative, ks []advm.Kind) error {
	t0 := time.Now()
	sys, sl, err := p.freeze()
	if err != nil {
		return err
	}
	if err := p.preflight(sys, sl, ds); err != nil {
		return err
	}
	bc, rc := advm.NewBuildCache(), advm.NewRunCache()
	spec := advm.RegressionSpec{
		Derivatives: ds, Kinds: ks, Workers: slots,
		Cache: bc, RunCache: rc, SkipVet: true,
	}
	var st *advm.ArtifactStore
	if store != "" {
		if st, err = advm.OpenArtifactStore(store, advm.ArtifactStoreOptions{}); err != nil {
			return err
		}
		if p.traced {
			bc.SetBackend(timedStore{st, &p.buildIO}, p.encode, p.decode)
			rc.SetBackend(timedStore{st, &p.runIO})
		} else {
			advm.AttachArtifactStore(st, bc, rc)
		}
	}
	if p.traced {
		spec.Metrics, spec.Timeline = p.reg, p.tl
	}
	pd0, tr0 := advm.PredecodeTotals(), advm.TranslateTotals()
	var rep *advm.RegressionReport
	if err := p.span("regress.wall_ms", func() (err error) {
		rep, err = advm.Regress(sys, sl, spec)
		return err
	}); err != nil {
		return err
	}
	if st != nil {
		if err := st.Close(); err != nil {
			return err
		}
	}
	if err := p.certify(sys, sl, rep, b.ref); err != nil {
		return err
	}
	p.m["bench.request_ms"] = ms(time.Since(t0))
	if p.traced {
		p.outcomeLayers(rep.Outcomes, slots)
		p.processLayers(bc, rc)
		p.engineLayers(rep.Outcomes, pd0, tr0)
	}
	return nil
}

// servedRequest is one served-fleet request: what advm-regress -serve
// does, through shard.Regress. Traced, the layers the daemon and the
// workers run out of sight are then measured in the bench process: the
// daemon's plan step, the frame codec, a worker's one-cell run, and the
// client's merge and journal encode.
func (b *bench) servedRequest(p *probe, addr string, wr *workerReplay, ds []*advm.Derivative, ks []advm.Kind) error {
	t0 := time.Now()
	sys, sl, err := p.freeze()
	if err != nil {
		return err
	}
	req := advm.ShardRequest{Label: label, Engine: "translate", Derivs: b.derivs, Platforms: b.plats}
	var arrivals []time.Time
	var results []*advm.ShardResult
	onResult := func(r *advm.ShardResult) {
		arrivals = append(arrivals, time.Now())
		results = append(results, r)
	}
	var reply *advm.ShardReply
	if err := p.span("regress.wall_ms", func() (err error) {
		reply, err = advm.ShardRegress(addr, req, onResult)
		return err
	}); err != nil {
		return err
	}
	if reply.Plan.Epoch != sl.Epoch() {
		return fmt.Errorf("epoch drift: daemon froze %s, bench froze %s", reply.Plan.Epoch, sl.Epoch())
	}
	if err := p.certify(sys, sl, reply.Report(), b.ref); err != nil {
		return err
	}
	p.m["bench.request_ms"] = ms(time.Since(t0))
	if !p.traced {
		return nil
	}

	workers := reply.Plan.Workers
	p.outcomeLayers(reply.Outcomes, workers)
	if n := len(arrivals); n > 1 {
		p.m["shard.stream_ms"] = ms(arrivals[n-1].Sub(arrivals[0]))
		gaps := make([]float64, n-1)
		for i := range gaps {
			gaps[i] = float64(arrivals[i+1].Sub(arrivals[i]).Nanoseconds()) / 1e3
		}
		p.m["shard.result_gap_us_p50"] = median(gaps)
	}
	// The daemon's per-request plan step, replayed: freeze, vet, enumerate.
	if err := p.span("shard.plan_ms", func() error {
		sys := advm.StandardSystem()
		sl, err := advm.FreezeSystem(label, sys)
		if err != nil {
			return err
		}
		if err := p.preflight(sys, sl, ds); err != nil {
			return err
		}
		_, err = regress.EnumerateCells(sys, regress.Spec{Derivatives: ds, Kinds: ks})
		return err
	}); err != nil {
		return err
	}
	groups := make([][]advm.JournalRecord, len(reply.Plan.Cells))
	for _, r := range results {
		groups[r.ID] = r.Records
	}
	p.span("shard.merge_ms", func() error {
		shard.MergeJournal(reply.Plan, groups, reply.Done)
		reply.Report()
		return nil
	})
	p.m["journal.records"] = float64(len(reply.Journal))
	if err := p.span("journal.encode_ms", func() error {
		var buf bytes.Buffer
		w := advm.NewJournalWriter(&buf)
		for _, r := range reply.Journal {
			w.Emit(r)
		}
		return w.Close()
	}); err != nil {
		return err
	}
	codec, err := frameCodec(reply.Plan, results)
	if err != nil {
		return err
	}
	cell, err := wr.run()
	if err != nil {
		return err
	}
	p.m["shard.frame_codec_us"] = float64(codec.Nanoseconds()) / 1e3
	p.m["shard.worker_cell_us"] = float64(cell.Nanoseconds()) / 1e3
	// What the two slots spent per cell beyond the codec and the one-cell
	// run: transport, syscalls, dispatch, queueing.
	slotUs := (p.m["regress.wall_ms"] - p.m["shard.plan_ms"] - p.m["shard.merge_ms"]) * 1e3 *
		float64(workers) / float64(len(reply.Outcomes))
	p.m["shard.residual_us_per_cell"] = slotUs - p.m["shard.frame_codec_us"] - p.m["shard.worker_cell_us"]
	return nil
}
