package main

// The spec-driven workloads, paper-predict and load-sweep: a campaign
// spec generated from the seed, parsed and expanded during set-up,
// and run on one noc runner with a cold in-memory cache.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"sparsehamming/internal/exp"
	"sparsehamming/internal/noc"
	"sparsehamming/internal/obs"
	"sparsehamming/internal/report"
	"sparsehamming/internal/sim"
	"sparsehamming/internal/spec"
	"sparsehamming/internal/trace"
)

const (
	// setupRepeats is how many times a traced run times the spec and
	// report layers.
	setupRepeats = 50
	// setupBatch is how many set-ups an untraced run times before each
	// measured process, so setup_s is a median over many samples taken
	// across the whole run.
	setupBatch = 40
	// warmRepeats is how many warm reruns or requests a warm process
	// times: at least 100, so warm_p90_ms has ten samples beyond it.
	warmRepeats = 100
	// tracedWarmRepeats is the warm passes of a traced run.
	tracedWarmRepeats = 10
)

// campaign is one spec-driven workload.
type campaign struct {
	name     string
	specJSON []byte   // the generated spec, parsed during set-up
	table3   bool     // also run noc.TableIIIWith on the same runner
	grouping bool     // the runner is expected to dispatch job groups
	traces   []string // trace files the spec replays
	golden   string   // recorded output for this seed, "" for none
	cache    string   // the cache file the set-up opens; absent for a cold pass
	workers  int      // the runner's pool size
}

// newCampaign generates the named workload's inputs from the seed.
func newCampaign(o options) (*campaign, error) {
	c := &campaign{name: o.workload, cache: filepath.Join(o.work, o.workload+".cache.json"), workers: o.workers()}
	if !o.small && o.seed == defaultSeed {
		c.golden = filepath.Join(o.root, "perfbench", "testdata", o.workload+".seed1.txt")
	}
	var s *spec.Spec
	var err error
	switch o.workload {
	case "paper-predict":
		c.table3 = true
		s, err = figure6a(o)
	case "load-sweep":
		c.grouping = true
		s, err = c.loadSweep(o)
	default:
		err = fmt.Errorf("no campaign workload %q", o.workload)
	}
	if err != nil {
		return nil, err
	}
	c.specJSON, err = json.Marshal(s)
	return c, err
}

// figure6a is the Figure 6a sweep of examples/specs/figure6-quick.json
// (scenario a, seven topologies, quick tier) with the workload seed as
// its simulation seed. The small variant keeps the mesh only.
func figure6a(o options) (*spec.Spec, error) {
	s, err := spec.ParseFile(filepath.Join(o.root, "examples", "specs", "figure6-quick.json"))
	if err != nil {
		return nil, err
	}
	for _, sw := range s.Sweeps {
		if sw.Label != "a" {
			continue
		}
		sw.Seeds = []int64{o.seed}
		if o.small {
			sw.Topologies = []spec.TopologySpec{{Kind: "mesh"}}
		}
		return &spec.Spec{Name: "figure6a", Sweeps: []spec.Sweep{sw}}, nil
	}
	return nil, errors.New("figure6-quick.json has no sweep labelled a")
}

// loadSweep is scenario a's 8x8 grid under four topologies: a load
// ladder from 0.05 to 0.8 flits/node/cycle, which crosses every
// topology's saturation point, under three synthetic patterns, plus
// bursty and MemPool-style traces generated from the seed and replayed
// at two scales. The small variant is a 4x4 grid with two topologies.
func (c *campaign) loadSweep(o options) (*spec.Spec, error) {
	rows, cols := 8, 8
	topos := []spec.TopologySpec{
		{Kind: "mesh"}, {Kind: "torus"}, {Kind: "flattened-butterfly"},
		{Kind: "sparse-hamming", SR: []int{4}, SC: []int{2, 5}},
	}
	patterns := []string{"uniform", "transpose", "hotspot"}
	loads := []float64{0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.8}
	scales := []float64{0.5, 1}
	if o.small {
		rows, cols = 4, 4
		topos = []spec.TopologySpec{{Kind: "mesh"}, {Kind: "sparse-hamming", SR: []int{2}, SC: []int{2}}}
		patterns, loads, scales = patterns[:1], []float64{0.1, 0.6}, scales[1:]
	}
	dir := filepath.Join(o.work, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	// The trace path enters the job keys and the CSV's pattern column,
	// so it must not depend on the seed or the run.
	for _, gen := range []string{"bursty", "mempool"} {
		tr, err := trace.Generate(gen, trace.GenConfig{Rows: rows, Cols: cols, Seed: o.seed})
		if err != nil {
			return nil, err
		}
		path := filepath.Join(dir, fmt.Sprintf("%s-%dx%d.trace", gen, rows, cols))
		if err := trace.WriteFile(path, tr); err != nil {
			return nil, err
		}
		c.traces = append(c.traces, path)
	}
	arch := spec.ArchSpec{Scenario: "a"}
	if o.small {
		arch.Rows, arch.Cols = rows, cols
	}
	seeds := []int64{o.seed}
	return &spec.Spec{Name: "load-sweep", Sweeps: []spec.Sweep{
		{Label: "synthetic", Mode: "load", Arch: arch, Topologies: topos, Patterns: patterns, Loads: loads, Seeds: seeds},
		{Label: "traces", Mode: "load", Arch: arch, Topologies: topos, Traces: c.traces, Loads: scales, Seeds: seeds},
	}}, nil
}

// session is one set-up campaign: the parsed spec, its jobs, and a
// runner with the campaign's cache.
type session struct {
	spec   *spec.Spec
	groups [][]exp.Job
	jobs   []exp.Job
	runner *exp.Runner
}

// parseExpand parses, validates, and expands the generated spec.
func (c *campaign) parseExpand() (*spec.Spec, [][]exp.Job, error) {
	s, err := spec.Parse(c.specJSON)
	if err != nil {
		return nil, nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, nil, err
	}
	groups, err := s.ExpandSweeps()
	return s, groups, err
}

// setup is the work before a campaign can run, as shrun -cache does
// it: spec parse, validation, and expansion, then opening the cache
// file and building the runner. The cache is cold when the file does
// not exist (see clearCache). A non-nil hub gives the observed runner
// the traced run reads spans from.
func (c *campaign) setup(hub *obs.Hub) (*session, error) {
	s, groups, err := c.parseExpand()
	if err != nil {
		return nil, err
	}
	cache, err := exp.OpenCache(c.cache)
	if err != nil {
		return nil, err
	}
	ss := &session{spec: s, groups: groups, runner: noc.NewObservedRunner(c.workers, cache, hub)}
	for _, g := range groups {
		ss.jobs = append(ss.jobs, g...)
	}
	return ss, nil
}

// clearCache removes the cache file, so the next set-up starts cold.
func (c *campaign) clearCache() error {
	if err := os.Remove(c.cache); err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}

// warmPass reruns the campaign on a session whose cache holds every
// result. Every job must be a cache hit and the output must equal the
// cold pass's.
func (c *campaign) warmPass(ss *session, cold []byte, t *tally) warm {
	hits0, _ := ss.runner.Cache.Stats()
	computed0 := ss.runner.Stats().Computed
	out := c.pass(ss)
	w := warm{computed: ss.runner.Stats().Computed - computed0}
	hits1, _ := ss.runner.Cache.Stats()
	w.hits = hits1 - hits0
	t.ops(out.jobs, out.failed)
	t.check(w.computed == 0, "warm pass computed %d jobs", w.computed)
	t.check(bytes.Equal(out.bytes, cold), "warm pass output differs from the cold pass")
	return w
}

// warm is one warm pass's cache accounting.
type warm struct {
	hits     int
	computed int64
}

// output is one campaign pass's results and rendered bytes.
type output struct {
	bytes   []byte // report.WriteCSV output, then the Table III rows
	results []*exp.Result
	table3  []noc.TableIIIRow
	t3pred  *noc.Prediction
	jobs    int // unique jobs requested
	failed  int
}

// pass runs the campaign once on the session's runner — the Table III
// job, when the workload has it, as a concurrent batch sharing the
// runner's workers — and renders its output.
func (c *campaign) pass(ss *session) output {
	var (
		wg    sync.WaitGroup
		out   output
		t3err error
	)
	if c.table3 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out.table3, out.t3pred, t3err = noc.TableIIIWith(noc.Quick, ss.runner)
		}()
	}
	results, rep, _ := ss.runner.Run(ss.jobs)
	wg.Wait()
	out.results, out.jobs, out.failed = results, rep.Unique, rep.Failed
	if c.table3 {
		out.jobs++
		if t3err != nil {
			out.failed++
		}
	}
	var buf bytes.Buffer
	report.WriteCSV(&buf, ss.spec, ss.groups, results)
	for _, r := range out.table3 {
		fmt.Fprintf(&buf, "table3,%q,%v,%v,%v\n", r.Metric, r.Correct, r.Predicted, r.ErrorPct)
	}
	out.bytes = buf.Bytes()
	return out
}

// run dispatches to the untraced or traced measurement.
func (c *campaign) run(o options, v values, t *tally, log io.Writer) error {
	if o.trace {
		return c.traced(o, v, t, log)
	}
	return c.untraced(o, v, t, log)
}

// untraced measures cold passes and warm processes (see
// measurePasses), timing a batch of cold set-ups in this process
// before each, each set-up after a reference chunk. The set-ups use a
// cache file of their own, leaving the passes' alone.
func (c *campaign) untraced(o options, v values, t *tally, log io.Writer) error {
	sc := *c
	sc.cache = filepath.Join(o.work, c.name+".setup.cache.json")
	return measurePasses(o, v, t, log, func() ([]float64, error) {
		var raw []float64
		meter := newSpeedMeter(true)
		for i := 0; i < setupBatch; i++ {
			if err := sc.clearCache(); err != nil {
				return nil, err
			}
			meter.sample()
			clk := startClock()
			if _, err := sc.setup(nil); err != nil {
				return nil, err
			}
			raw = append(raw, seconds(clk.cpuSince()))
		}
		return atNominal(raw, meter), nil
	})
}

// measuredPass sets up, runs one cold pass, checks its output, and
// saves the cache file the warm processes open.
func (c *campaign) measuredPass(o options, t *tally, log io.Writer) (*passResult, error) {
	deadlocks := sim.Counters().Deadlocks
	if err := c.clearCache(); err != nil {
		return nil, err
	}
	ss, err := c.setup(nil)
	if err != nil {
		return nil, err
	}
	p := &passResult{}
	cold := newSpeedMeter(false)
	clk := startClock()
	stop := cold.probe()
	out := c.pass(ss)
	probed := stop()
	p.ColdCPU, p.Wall = seconds(clk.cpuSince()-probed), seconds(clk.wallSince())
	p.ColdSpeed = cold.factor()
	t.ops(out.jobs, out.failed)
	t.check(sim.Counters().Deadlocks == deadlocks, "%d simulations deadlocked", sim.Counters().Deadlocks-deadlocks)
	c.checkGolden(o, out.bytes, t, log)
	p.Output = digestOf(out.bytes)
	p.Table3 = table3Values(out.table3)
	return p, ss.runner.Cache.Save()
}

// warmProcess reruns the campaign warmRepeats times on the cache file
// the last cold pass saved, each time as a second shrun -cache run
// does it: set-up, which opens the cache file, then the pass, all of
// it cache hits. Each rerun follows a reference chunk and a collection
// of the last one's garbage: a rerun allocates far less than the
// runtime's minimum heap goal, so it would not collect on its own,
// and would pay for whichever earlier rerun's garbage the collector
// happened to reach during it. Every rerun must compute nothing and
// render the same output.
func (c *campaign) warmProcess(t *tally) (*passResult, error) {
	p := &passResult{}
	meter := newSpeedMeter(true)
	var ref []byte
	for i := 0; i < warmRepeats; i++ {
		meter.sample()
		runtime.GC()
		clk := startClock()
		ss, err := c.setup(nil)
		if err != nil {
			return nil, err
		}
		out := c.pass(ss)
		p.WarmCPUMs = append(p.WarmCPUMs, millis(clk.cpuSince()))
		t.ops(out.jobs, out.failed)
		computed := ss.runner.Stats().Computed
		t.check(computed == 0, "warm rerun computed %d jobs", computed)
		if ref == nil {
			ref = out.bytes
		} else {
			t.check(bytes.Equal(out.bytes, ref), "warm rerun output differs")
		}
	}
	p.WarmSpeed = meter.factor()
	p.Output = digestOf(ref)
	return p, nil
}

// checkGolden compares a cold pass's output with the recorded one. A
// mismatch leaves the output next to the scratch files for diffing.
func (c *campaign) checkGolden(o options, got []byte, t *tally, log io.Writer) {
	if c.golden == "" {
		return
	}
	want, err := os.ReadFile(c.golden)
	ok := err == nil && bytes.Equal(got, want)
	t.check(ok, "output differs from %s", c.golden)
	if !ok {
		dump := filepath.Join(o.work, c.name+".got")
		if os.WriteFile(dump, got, 0o644) == nil {
			fmt.Fprintf(log, "perfbench: %s: output written to %s\n", c.name, dump)
		}
	}
}

// table3Values maps Table III rows onto the end-to-end metrics.
func table3Values(rows []noc.TableIIIRow) map[string]float64 {
	names := map[string]string{
		"area [mm2]":       "table3_err_area_pct",
		"power [W]":        "table3_err_power_pct",
		"latency [cycles]": "table3_err_latency_pct",
		"throughput [%]":   "table3_err_thru_pct",
	}
	out := map[string]float64{}
	for _, r := range rows {
		out[names[r.Metric]] = r.ErrorPct
	}
	return out
}

// accuracyProbe records the Table III errors on workloads that do not
// run the Table III job themselves, from one quick-tier prediction
// after the measured passes. The errors are deterministic: they move
// only when the cost model or simulator results change.
func accuracyProbe(v values, t *tally) error {
	rows, _, err := noc.TableIIIWith(noc.Quick, noc.NewRunner(workers, nil))
	t.ops(1, btoi(err != nil))
	if err != nil {
		return err
	}
	for k, x := range table3Values(rows) {
		v[k] = x
	}
	return nil
}

// btoi is 1 for true.
func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// traced runs one untraced and one traced cold pass, compares their
// outputs, and measures the layers.
func (c *campaign) traced(o options, v values, t *tally, log io.Writer) error {
	if err := c.clearCache(); err != nil {
		return err
	}
	ss, err := c.setup(nil)
	if err != nil {
		return err
	}
	t0 := time.Now()
	ref := c.pass(ss)
	wallU := seconds(time.Since(t0))
	t.ops(ref.jobs, ref.failed)
	c.checkGolden(o, ref.bytes, t, log)

	hub := obs.NewHub()
	hub.Traces = obs.NewTraceStore(len(ss.jobs) + 16)
	if err := c.clearCache(); err != nil {
		return err
	}
	ts, err := c.setup(hub)
	if err != nil {
		return err
	}
	rec := &jobRecorder{}
	rec.attach(ts.runner)
	c0, m0 := sim.Counters(), readRuntime()
	t0 = time.Now()
	out := c.pass(ts)
	wallT := seconds(time.Since(t0))
	c1, m1 := sim.Counters(), readRuntime()
	t.ops(out.jobs, out.failed)
	t.check(bytes.Equal(out.bytes, ref.bytes), "traced output differs from untraced")
	t.check(c1.Deadlocks == c0.Deadlocks, "%d simulations deadlocked", c1.Deadlocks-c0.Deadlocks)
	putCounters(v, c0, c1)
	putRuntime(v, m0, m1)
	putRunner(v, ts.runner.Stats(), wallT)
	v["bench.trace_overhead_pct"] = 100 * (wallT - wallU) / wallU
	probes := 0
	for _, r := range out.results {
		if r != nil {
			probes += r.SimProbes
		}
	}
	if out.t3pred != nil {
		probes += out.t3pred.Probes
	}
	v["sim.probes"] = float64(probes)

	if err := timeSaveOpen(v, ts.runner.Cache, c.cache); err != nil {
		return err
	}
	for i := 0; i < tracedWarmRepeats; i++ {
		w := c.warmPass(ts, ref.bytes, t)
		v["exp.cache_hits"] += float64(w.hits)
		v["exp.warm_computed"] += float64(w.computed)
	}

	if err := c.ledger(v, rec.jobs, hub.Traces, log); err != nil {
		return err
	}
	timeKeys(v, ts.jobs, ts.runner.Cache)
	if err := c.timeSpecReport(v, out.results); err != nil {
		return err
	}
	if c.grouping {
		sanity(log, c.name, "runner grouping exercised (exp.grouped_jobs > 0)", v["exp.grouped_jobs"] > 0)
	} else {
		sanity(log, c.name, "runner grouping bypassed (exp.grouped_jobs = 0)", v["exp.grouped_jobs"] == 0)
	}
	sanity(log, c.name, "warm passes compute nothing (exp.warm_computed = 0)", v["exp.warm_computed"] == 0)
	return nil
}

// ledger times the layer calls of every distinct simulator shape and
// the trace files, then attributes the traced pass's compute time.
func (c *campaign) ledger(v values, jobs []evaluated, traces *obs.TraceStore, log io.Writer) error {
	computed := make([]exp.Job, len(jobs))
	for i, e := range jobs {
		computed[i] = e.job
	}
	byShape, mean, err := probeShapes(distinctShapes(computed), true)
	if err != nil {
		return err
	}
	putLayerMeans(v, mean)
	reads := map[string]float64{}
	for _, path := range c.traces {
		d, err := fastest(func() error { _, err := trace.ReadFile(path); return err })
		if err != nil {
			return err
		}
		reads["trace:"+path] = d
		v["trace.read_ms"] += 1e3 * d / float64(len(c.traces))
	}
	// A job group shares one topology, cost model, and routing build.
	groupSize := map[string]int{}
	for _, j := range computed {
		if k, ok := noc.CampaignGroupKey(j); ok {
			groupSize[k]++
		}
	}
	st := ledger(jobs, traces, func(j exp.Job) map[string]float64 {
		lt := byShape[shapeKey(j)]
		n := 1.0
		if k, ok := noc.CampaignGroupKey(j); ok {
			n = float64(groupSize[k])
		}
		est := map[string]float64{"topo": lt.topo / n, "route": lt.route / n}
		switch j.Mode {
		case exp.ModeLoad: // the group path runs the cost model outside any span
			est["phys"] = lt.phys / n
			est["trace"] = reads[j.Pattern]
		case exp.ModePredict:
			est["analytic"] = lt.analytic
		}
		return est
	})
	putLedger(v, st, c.name, log)
	return nil
}

// timeSaveOpen times Save of a file-backed cache holding a cold pass's
// results and OpenCache of the file it wrote.
func timeSaveOpen(v values, cache *exp.Cache, path string) error {
	t0 := time.Now()
	if err := cache.Save(); err != nil {
		return err
	}
	v["exp.cache_save_ms"] = millis(time.Since(t0))
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	v["exp.cache_bytes"] = float64(fi.Size())
	t0 = time.Now()
	if _, err := exp.OpenCache(path); err != nil {
		return err
	}
	v["exp.cache_open_ms"] = millis(time.Since(t0))
	return nil
}

// timeSpecReport times the spec layer's parse-validate-expand and the
// report layer's CSV rendering, as medians over setupRepeats runs.
func (c *campaign) timeSpecReport(v values, results []*exp.Result) error {
	var parse, render []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		s, groups, err := c.parseExpand()
		if err != nil {
			return err
		}
		parse = append(parse, millis(time.Since(t0)))
		t0 = time.Now()
		report.WriteCSV(io.Discard, s, groups, results)
		render = append(render, millis(time.Since(t0)))
	}
	v["spec.parse_expand_ms"] = median(parse)
	v["report.csv_ms"] = median(render)
	return nil
}
