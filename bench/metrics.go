package main

import (
	"fmt"
	"sort"
)

// def names one reported metric. BENCHMARK.json lists the same names and
// units; bench_test.go holds the two in step.
type def struct{ name, unit string }

// endToEnd are the metrics of an untraced run: what a user of the CLIs
// sees.
var endToEnd = []def{
	{name: "setup_s", unit: "s"},
	{name: "request_s_p50", unit: "s"},
	{name: "request_s_p80", unit: "s"},
	{name: "cells_per_s", unit: "cells/s"},
	{name: "cpu_s_per_request", unit: "s"},
	{name: "peak_rss_mb", unit: "MB"},
}

// platformKinds are the six platform rungs in the paper's order.
var platformKinds = []string{"golden", "rtl", "gate", "emulator", "bondout", "silicon"}

// perLayer are the metrics of a traced run, one or more per layer. A
// metric a workload does not exercise reads 0 there (see bench/README.md
// for which workload each one moves).
var perLayer = func() []def {
	ds := []def{
		{name: "bench.request_ms", unit: "ms"},
		{name: "bench.trace_overhead_pct", unit: "%"},
		{name: "release.freeze_ms", unit: "ms"},
		{name: "release.certify_ms", unit: "ms"},
		{name: "vet.preflight_ms", unit: "ms"},
		{name: "vet.findings", unit: "count"},
		{name: "regress.wall_ms", unit: "ms"},
		{name: "regress.build_ms", unit: "ms"},
		{name: "regress.run_ms", unit: "ms"},
		{name: "regress.sched_residual_ms", unit: "ms"},
		{name: "asm.units", unit: "count"},
		{name: "asm.lines", unit: "count"},
		{name: "asm.busy_ms", unit: "ms"},
		{name: "build.residual_ms", unit: "ms"},
		{name: "buildcache.hits", unit: "count"},
		{name: "buildcache.misses", unit: "count"},
		{name: "buildcache.merged", unit: "count"},
		{name: "buildcache.disk_hits", unit: "count"},
		{name: "buildcache.reuse", unit: "%"},
		{name: "runcache.hits", unit: "count"},
		{name: "runcache.misses", unit: "count"},
		{name: "runcache.bypassed", unit: "count"},
		{name: "runcache.disk_hits", unit: "count"},
		{name: "runcache.hit_ms", unit: "ms"},
		{name: "castore.get_calls", unit: "count"},
		{name: "castore.get_hits", unit: "count"},
		{name: "castore.get_ms", unit: "ms"},
		{name: "castore.bytes_read", unit: "B"},
		{name: "persist.decode_ms", unit: "ms"},
		{name: "castore.put_calls", unit: "count"},
		{name: "castore.put_ms", unit: "ms"},
		{name: "castore.bytes_written", unit: "B"},
		{name: "castore.lock_calls", unit: "count"},
		{name: "castore.lock_ms", unit: "ms"},
		{name: "persist.encode_ms", unit: "ms"},
	}
	for _, k := range platformKinds {
		ds = append(ds,
			def{name: "platform." + k + ".cells_simulated", unit: "count"},
			def{name: "platform." + k + ".run_ms", unit: "ms"},
			def{name: "platform." + k + ".insts", unit: "count"},
			def{name: "platform." + k + ".minst_per_s", unit: "Minst/s"},
		)
	}
	return append(ds,
		def{name: "translate.blocks_executed", unit: "count"},
		def{name: "translate.fallback_exits", unit: "count"},
		def{name: "translate.block_share", unit: "ratio"},
		def{name: "predecode.fetches", unit: "count"},
		def{name: "predecode.pages_decoded", unit: "count"},
		def{name: "journal.records", unit: "count"},
		def{name: "journal.encode_ms", unit: "ms"},
		def{name: "shard.plan_ms", unit: "ms"},
		def{name: "shard.stream_ms", unit: "ms"},
		def{name: "shard.result_gap_us_p50", unit: "us"},
		def{name: "shard.merge_ms", unit: "ms"},
		def{name: "shard.frame_codec_us", unit: "us"},
		def{name: "shard.worker_cell_us", unit: "us"},
		def{name: "shard.residual_us_per_cell", unit: "us"},
	)
}()

// metric is one value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report fills every metric of defs from values; a value that was never
// measured is an error, so a metric cannot silently drop out.
func report(defs []def, values map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	return out, nil
}

// quantile returns the q-quantile of xs by linear interpolation between
// the closest ranks; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
