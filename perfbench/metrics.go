package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// metric names one reported figure and its unit. The two catalogs
// below are the benchmark's contract with BENCHMARK.json, which lists
// the same names and units in the same order
// (TestCatalogMatchesBenchmarkJSON keeps them equal).
type metric struct{ name, unit string }

// endToEnd are the figures a user of the toolchain sees. Untraced
// runs report all of them on every workload; times are CPU times on
// one processor at the host's nominal speed (see passes.go).
var endToEnd = []metric{
	{"cold_s", "s"},
	{"setup_s", "s"},
	{"ok_ratio", "ratio"},
	{"warm_p50_ms", "ms"},
	{"warm_p90_ms", "ms"},
	{"table3_err_area_pct", "%"},
	{"table3_err_power_pct", "%"},
	{"table3_err_latency_pct", "%"},
	{"table3_err_thru_pct", "%"},
}

// perLayer are the figures of single layers, measured from outside by
// a traced run. A layer a workload does not use reports zero.
var perLayer = []metric{
	// sim: span time of the simulator phases and searches, scaled to
	// the runner's per-job compute time, plus counter deltas.
	{"sim.busy_s", "s"},
	{"sim.zeroload_s", "s"},
	{"sim.probe_s", "s"},
	{"sim.warmup_s", "s"},
	{"sim.measure_s", "s"},
	{"sim.drain_s", "s"},
	{"sim.ns_per_flit_hop", "ns"},
	{"sim.cycles_per_s", "1/s"},
	{"sim.runs", "count"},
	{"sim.cycles", "count"},
	{"sim.flit_hops", "count"},
	{"sim.probes", "count"},
	{"sim.deadlocks", "count"},
	// sim build and batch.
	{"sim.shape_build_ms", "ms"},
	{"sim.instantiate_ms", "ms"},
	{"sim.shape_builds", "count"},
	{"sim.sim_builds", "count"},
	{"sim.build_reduction_x", "x"},
	{"sim.batches", "count"},
	{"sim.batch_replicas", "count"},
	{"sim.anchor_reuses", "count"},
	// exp runner.
	{"exp.compute_s", "s"},
	{"exp.idle_s", "s"},
	{"exp.worker_util", "ratio"},
	{"exp.groups", "count"},
	{"exp.grouped_jobs", "count"},
	{"exp.jobs", "count"},
	{"exp.computed", "count"},
	{"exp.warm_computed", "count"},
	// exp cache.
	{"exp.job_key_us", "us"},
	{"exp.cache_get_us", "us"},
	{"exp.cache_hits", "count"},
	{"exp.cache_save_ms", "ms"},
	{"exp.cache_open_ms", "ms"},
	{"exp.cache_bytes", "bytes"},
	// noc.
	{"noc.job_p50_ms", "ms"},
	{"noc.job_max_ms", "ms"},
	{"noc.cost_s", "s"},
	// cost model, routing, topology, analytic model, exploration.
	{"phys.evaluate_ms", "ms"},
	{"route.build_ms", "ms"},
	{"topo.build_us", "us"},
	{"analytic.estimate_ms", "ms"},
	{"dse.surrogate_job_ms", "ms"},
	{"dse.configs", "count"},
	{"dse.band", "count"},
	// serve.
	{"serve.http_overhead_ms", "ms"},
	{"serve.resp_kb", "KiB"},
	// spec, report, trace.
	{"spec.parse_expand_ms", "ms"},
	{"report.csv_ms", "ms"},
	{"trace.read_ms", "ms"},
	// Go runtime, over the traced cold pass, and the traced run's peak
	// resident set.
	{"go.gc_cycles", "count"},
	{"go.alloc_mb", "MB"},
	{"go.gc_pause_ms", "ms"},
	{"go.peak_rss_mb", "MB"},
	// The traced run itself.
	{"bench.trace_overhead_pct", "%"},
	{"bench.ledger_coverage_pct", "%"},
	{"bench.unattributed_s", "s"},
}

// values collects one run's metric values by name.
type values map[string]float64

// metricValue is one entry of the result line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// render returns the catalog's metrics as the result line's metrics
// object. Every catalog metric must have a finite value.
func (v values) render(catalog []metric) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(catalog))
	var missing []string
	for _, m := range catalog {
		x, ok := v[m.name]
		if !ok || math.IsNaN(x) || math.IsInf(x, 0) {
			missing = append(missing, m.name)
			continue
		}
		out[m.name] = metricValue{Value: x, Unit: m.unit}
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("metrics without a finite value: %s", strings.Join(missing, ", "))
	}
	return out, nil
}

// setZero records zero for every name not yet set: the layers a
// workload does not exercise.
func (v values) setZero(catalog []metric) {
	for _, m := range catalog {
		if _, ok := v[m.name]; !ok {
			v[m.name] = 0
		}
	}
}

// quantile returns the nearest-rank q-quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

// median returns the middle of xs, averaging the two middle values
// of an even count (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
