package main

// Outside-in layer measurement: timing around the public calls a job
// evaluation makes, and the ledger that attributes the runner's
// per-job compute time to layers from the span trees
// noc.NewObservedRunner records.

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"

	"sparsehamming/internal/analytic"
	"sparsehamming/internal/exp"
	"sparsehamming/internal/noc"
	"sparsehamming/internal/obs"
	"sparsehamming/internal/phys"
	"sparsehamming/internal/route"
	"sparsehamming/internal/sim"
	"sparsehamming/internal/spec"
	"sparsehamming/internal/topo"
)

// layerTimes are one job configuration's layer calls, timed from
// outside, in seconds.
type layerTimes struct {
	topo, phys, route, analytic float64
	shape, instantiate          float64 // zero unless simulated
}

// add accumulates o into l.
func (l *layerTimes) add(o layerTimes) {
	l.topo += o.topo
	l.phys += o.phys
	l.route += o.route
	l.analytic += o.analytic
	l.shape += o.shape
	l.instantiate += o.instantiate
}

// probeRepeats is how often each layer call is repeated; the fastest
// repeat counts, which keeps a stray scheduling hiccup out of a
// single-digit-microsecond figure.
const probeRepeats = 3

// fastest times fn probeRepeats times and returns the shortest run.
func fastest(fn func() error) (float64, error) {
	best := 0.0
	for i := 0; i < probeRepeats; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		if d := seconds(time.Since(t0)); i == 0 || d < best {
			best = d
		}
	}
	return best, nil
}

// probeLayers times the public calls evaluating j makes: the topology
// build, the cost model, the routing build, and the analytic estimate,
// and, when simulate is set, the simulator's shape build and replica
// instantiation under the uniform pattern (trace patterns are timed
// separately, by trace.ReadFile).
func probeLayers(j exp.Job, simulate bool) (layerTimes, error) {
	var lt layerTimes
	arch, err := spec.ArchForJob(j)
	if err != nil {
		return lt, err
	}
	var (
		t    *topo.Topology
		cost *phys.Result
		rt   *route.Routing
	)
	if lt.topo, err = fastest(func() (err error) {
		t, err = topo.ByName(j.Topo, arch.Rows, arch.Cols, j.SR, j.SC)
		return err
	}); err != nil {
		return lt, err
	}
	if lt.phys, err = fastest(func() (err error) {
		cost, err = phys.Evaluate(arch, t)
		return err
	}); err != nil {
		return lt, err
	}
	if lt.route, err = fastest(func() (err error) {
		rt, err = route.ForName(t, j.Routing)
		return err
	}); err != nil {
		return lt, err
	}
	if lt.analytic, err = fastest(func() error {
		_, err := (&analytic.Model{
			Topo: t, Routing: rt, LinkLatency: cost.LinkLatencies,
			RouterDelay: noc.RouterDelay, PacketLen: arch.PacketLenFlits(),
		}).Estimate()
		return err
	}); err != nil {
		return lt, err
	}
	if !simulate {
		return lt, nil
	}
	pat, err := sim.PatternByName("uniform", arch.Rows, arch.Cols)
	if err != nil {
		return lt, err
	}
	cfg := sim.Config{
		Topo: t, Routing: rt,
		NumVCs: arch.Proto.NumVCs, BufDepth: arch.Proto.BufDepthFlits,
		LinkLatency: cost.LinkLatencies, RouterDelay: noc.RouterDelay,
		PacketLen: arch.PacketLenFlits(), Pattern: pat, Seed: 1, InjectionRate: 0.1,
	}
	cfg.Defaults()
	var sh *sim.Shape
	if lt.shape, err = fastest(func() (err error) {
		sh, err = sim.NewShape(cfg)
		return err
	}); err != nil {
		return lt, err
	}
	lt.instantiate, err = fastest(func() error {
		_, err := sh.Instantiate(cfg)
		return err
	})
	return lt, err
}

// shapeKey identifies the simulator shape a job builds: the fields
// noc.CampaignGroupKey groups by, whatever the job's mode.
func shapeKey(j exp.Job) string {
	return fmt.Sprintf("%s|%d|%d|%v|%s|%v|%v|%s", j.Scenario, j.Rows, j.Cols, j.Arch, j.Topo, j.SR, j.SC, j.Routing)
}

// distinctShapes returns one job per distinct simulator shape, in
// first-seen order.
func distinctShapes(jobs []exp.Job) []exp.Job {
	seen := map[string]bool{}
	var out []exp.Job
	for _, j := range jobs {
		if k := shapeKey(j); !seen[k] {
			seen[k] = true
			out = append(out, j)
		}
	}
	return out
}

// probeShapes times the layer calls of every job in jobs and returns
// the per-job times by shapeKey plus their mean.
func probeShapes(jobs []exp.Job, simulate bool) (map[string]layerTimes, layerTimes, error) {
	byKey := map[string]layerTimes{}
	var sum layerTimes
	for _, j := range jobs {
		lt, err := probeLayers(j, simulate)
		if err != nil {
			return nil, sum, fmt.Errorf("timing layers of %s: %w", j, err)
		}
		byKey[shapeKey(j)] = lt
		sum.add(lt)
	}
	n := float64(max(len(jobs), 1))
	return byKey, layerTimes{
		topo: sum.topo / n, phys: sum.phys / n, route: sum.route / n,
		analytic: sum.analytic / n, shape: sum.shape / n, instantiate: sum.instantiate / n,
	}, nil
}

// putLayerMeans records the mean layer-call times.
func putLayerMeans(v values, m layerTimes) {
	v["topo.build_us"] = m.topo * 1e6
	v["phys.evaluate_ms"] = m.phys * 1e3
	v["route.build_ms"] = m.route * 1e3
	v["analytic.estimate_ms"] = m.analytic * 1e3
	v["sim.shape_build_ms"] = m.shape * 1e3
	v["sim.instantiate_ms"] = m.instantiate * 1e3
}

// jobRecorder collects the jobs a runner evaluated, with the compute
// time the runner charged each, through its progress hook.
type jobRecorder struct {
	mu   sync.Mutex
	jobs []evaluated
}

// evaluated is one computed job.
type evaluated struct {
	job     exp.Job
	elapsed time.Duration
}

// attach hooks the recorder into r's progress events.
func (rec *jobRecorder) attach(r *exp.Runner) {
	r.Progress = func(ev exp.ProgressEvent) {
		if ev.Cached || ev.Shared || ev.Err != nil {
			return
		}
		rec.mu.Lock()
		rec.jobs = append(rec.jobs, evaluated{ev.Job, ev.Elapsed})
		rec.mu.Unlock()
	}
}

// spanLayer maps the span names noc.NewObservedRunner records onto
// ledger layers. The root "job" span's self time is what the spans do
// not explain; estimateSelf attributes it from outside.
var spanLayer = map[string]string{
	"cost":       "noc.cost",
	"saturation": "sim.search",
	"zeroload":   "sim.search",
	"probe":      "sim.search",
	"point":      "sim.batch",
	"warmup":     "sim.warmup",
	"measure":    "sim.measure",
	"drain":      "sim.drain",
}

// spanTotals is what a ledger pass reads off the span trees.
type spanTotals struct {
	compute   float64            // runner compute time of the jobs, s
	layers    map[string]float64 // attributed self time by layer, s
	inclusive map[string]float64 // scaled inclusive time by span name, s
	jobMs     []float64          // job span durations, ms
	missing   int                // computed jobs without a stored trace
}

// ledger attributes the recorded jobs' compute time to layers. Each
// job's span tree is scaled to the compute time the runner charged
// the job — a group of n jobs runs under n overlapping job spans, and
// the runner charges each a 1/n share — so the layers sum to the
// runner's compute time. The root span's self time is attributed by
// estimateSelf, capped at what is left; the rest is "unattributed".
func ledger(jobs []evaluated, traces *obs.TraceStore, estimateSelf func(exp.Job) map[string]float64) spanTotals {
	st := spanTotals{layers: map[string]float64{}, inclusive: map[string]float64{}}
	for _, e := range jobs {
		st.compute += seconds(e.elapsed)
		root := traces.Get(e.job.Key())
		if root == nil || root.DurMs <= 0 {
			st.missing++
			st.layers["unattributed"] += seconds(e.elapsed)
			continue
		}
		st.jobMs = append(st.jobMs, root.DurMs)
		scale := seconds(e.elapsed) / (root.DurMs / 1e3)
		rootSelf := 0.0
		root.Walk(func(s *obs.Span) {
			self := s.DurMs
			for _, c := range s.Children {
				self -= c.DurMs
			}
			self = max(self, 0) * scale / 1e3
			st.inclusive[s.Name] += s.DurMs * scale / 1e3
			if layer, ok := spanLayer[s.Name]; ok {
				st.layers[layer] += self
			} else {
				rootSelf += self
			}
		})
		est := estimateSelf(e.job)
		names := make([]string, 0, len(est))
		for k := range est {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			take := min(est[k], rootSelf)
			st.layers[k] += take
			rootSelf -= take
		}
		st.layers["unattributed"] += rootSelf
	}
	return st
}

// putLedger records the ledger-derived metrics and prints the ledger.
// The simulator counters must already be in v.
func putLedger(v values, st spanTotals, name string, log io.Writer) {
	v["sim.warmup_s"] = st.layers["sim.warmup"]
	v["sim.measure_s"] = st.layers["sim.measure"]
	v["sim.drain_s"] = st.layers["sim.drain"]
	v["sim.busy_s"] = st.layers["sim.warmup"] + st.layers["sim.measure"] + st.layers["sim.drain"]
	v["sim.zeroload_s"] = st.inclusive["zeroload"]
	v["sim.probe_s"] = st.inclusive["probe"]
	v["noc.cost_s"] = st.inclusive["cost"]
	v["noc.job_p50_ms"] = median(st.jobMs)
	v["noc.job_max_ms"] = quantile(st.jobMs, 1)
	v["exp.compute_s"] = st.compute
	v["sim.ns_per_flit_hop"] = 1e9 * ratio(v["sim.busy_s"], v["sim.flit_hops"])
	v["sim.cycles_per_s"] = ratio(v["sim.cycles"], v["sim.busy_s"])
	v["bench.unattributed_s"] = st.layers["unattributed"]
	v["bench.ledger_coverage_pct"] = 100 * (1 - ratio(st.layers["unattributed"], st.compute))
	printLedger(log, name, st.compute, st.layers)
	if st.missing > 0 {
		fmt.Fprintf(log, "perfbench: %s: %d computed jobs had no stored trace\n", name, st.missing)
	}
}

// putCounters records the simulator counter deltas between two
// snapshots.
func putCounters(v values, a, b sim.CounterSnapshot) {
	v["sim.runs"] = float64(b.Runs - a.Runs)
	v["sim.cycles"] = float64(b.Cycles - a.Cycles)
	v["sim.flit_hops"] = float64(b.FlitHops - a.FlitHops)
	v["sim.deadlocks"] = float64(b.Deadlocks - a.Deadlocks)
	v["sim.shape_builds"] = float64(b.ShapeBuilds - a.ShapeBuilds)
	v["sim.sim_builds"] = float64(b.SimBuilds - a.SimBuilds)
	v["sim.build_reduction_x"] = ratio(v["sim.sim_builds"], v["sim.shape_builds"])
	v["sim.batches"] = float64(b.Batches - a.Batches)
	v["sim.batch_replicas"] = float64(b.BatchReplicas - a.BatchReplicas)
	v["sim.anchor_reuses"] = float64(b.AnchorReuses - a.AnchorReuses)
}

// runtimeSnap is a Go runtime statistics snapshot.
type runtimeSnap = runtime.MemStats

// readRuntime takes a runtime statistics snapshot.
func readRuntime() *runtimeSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return &m
}

// putRuntime records Go runtime deltas between two snapshots.
func putRuntime(v values, a, b *runtimeSnap) {
	v["go.gc_cycles"] = float64(b.NumGC - a.NumGC)
	v["go.alloc_mb"] = float64(b.TotalAlloc-a.TotalAlloc) / (1 << 20)
	v["go.gc_pause_ms"] = float64(b.PauseTotalNs-a.PauseTotalNs) / 1e6
}

// putRunner records the runner's statistics over one pass of the given
// wall time.
func putRunner(v values, s exp.RunnerStats, wall float64) {
	compute := float64(s.BusyNanos) / 1e9
	v["exp.idle_s"] = wall*workers - compute
	v["exp.worker_util"] = ratio(compute, wall*workers)
	v["exp.groups"] = float64(s.Groups)
	v["exp.grouped_jobs"] = float64(s.GroupedJobs)
	v["exp.jobs"] = float64(s.Jobs)
	v["exp.computed"] = float64(s.Computed)
}

// timeKeys times exp.Job.Key over jobs and Cache.Get over their keys,
// in microseconds per call.
func timeKeys(v values, jobs []exp.Job, cache *exp.Cache) {
	const rounds = 5
	keys := make([]string, len(jobs))
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		for i, j := range jobs {
			keys[i] = j.Key()
		}
	}
	v["exp.job_key_us"] = 1e6 * seconds(time.Since(t0)) / float64(rounds*len(jobs))
	t0 = time.Now()
	for r := 0; r < rounds; r++ {
		for _, k := range keys {
			cache.Get(k)
		}
	}
	v["exp.cache_get_us"] = 1e6 * seconds(time.Since(t0)) / float64(rounds*len(keys))
}
