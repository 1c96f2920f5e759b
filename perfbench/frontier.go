package main

// The frontier-svc workload: the campaign service wired the way
// cmd/shserved wires it, on a loopback listener, answering one client
// that sends a cold POST /v1/frontier and then warm repeats of it.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"sparsehamming/internal/cli"
	"sparsehamming/internal/dse"
	"sparsehamming/internal/exp"
	"sparsehamming/internal/noc"
	"sparsehamming/internal/obs"
	"sparsehamming/internal/serve"
	"sparsehamming/internal/sim"
	"sparsehamming/internal/spec"
)

// frontierBody is the request: the surrogate stage of the design-space
// exploration over scenario a's 7x8 grid, 2048 configurations, with no
// simulation. The small variant explores a 4x4 grid.
const (
	frontierBody      = `{"arch":{"scenario":"a","rows":7,"cols":8},"simulate":false}`
	frontierBodySmall = `{"arch":{"scenario":"a","rows":4,"cols":4},"simulate":false}`
)

// service is one booted campaign service.
type service struct {
	url    string
	runner *exp.Runner
	hub    *obs.Hub
	camp   *cli.Campaign
	srv    *serve.Server
	http   *http.Server
	done   chan error
}

// boot wires the service as cmd/shserved does — observed runner with
// workers workers, cache file at cachePath, structured logs on stderr
// — and returns once it has answered its first /healthz. traceCap,
// when positive, sizes the hub's trace store so a traced run keeps
// every job's spans.
func boot(client *http.Client, cachePath string, traceCap, workers int) (*service, error) {
	logger, err := obs.NewLogger(os.Stderr, "info")
	if err != nil {
		return nil, err
	}
	hub := obs.NewHub()
	hub.Log = logger
	if traceCap > 0 {
		hub.Traces = obs.NewTraceStore(traceCap)
	}
	runner := noc.NewObservedRunner(workers, nil, hub)
	camp := cli.StartCampaign("shserved", cachePath, runner, false)
	if runner.Cache != nil {
		noc.RegisterMetrics(hub.Metrics, runner, runner.Cache)
	}
	srv := serve.New(serve.Config{
		Runner: runner,
		Obs:    hub,
		OnCampaignFinished: func(*serve.Campaign) {
			if err := runner.Cache.Save(); err != nil {
				fmt.Fprintf(os.Stderr, "shserved: warning: %v\n", err)
			}
		},
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		camp.Close()
		return nil, err
	}
	s := &service{
		url: "http://" + ln.Addr().String(), runner: runner, hub: hub, camp: camp, srv: srv,
		http: &http.Server{Handler: srv.Handler()}, done: make(chan error, 1),
	}
	go func() { s.done <- s.http.Serve(ln) }()
	resp, err := client.Get(s.url + "/healthz")
	if err == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
	}
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// close shuts the service down the way cmd/shserved does on a signal,
// persisting the cache, and waits for the server goroutine.
func (s *service) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	if s.http.Shutdown(ctx) != nil {
		s.http.Close()
	}
	cancel()
	<-s.done
	s.srv.Close()
	s.camp.Close()
}

// answer is one /v1/frontier response as the client saw it, with the
// CPU time the process — client and service — spent on it.
type answer struct {
	body    serve.FrontierJSON
	size    int
	latency time.Duration
	cpu     time.Duration
}

// frontier sends one request and decodes the answer; a non-2xx status
// is an error.
func (s *service) frontier(client *http.Client, body string) (answer, error) {
	clk := startClock()
	resp, err := client.Post(s.url+"/v1/frontier", "application/json", strings.NewReader(body))
	if err != nil {
		return answer{}, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	a := answer{size: len(data), latency: clk.wallSince(), cpu: clk.cpuSince()}
	if err != nil {
		return a, err
	}
	if resp.StatusCode/100 != 2 {
		return a, fmt.Errorf("POST /v1/frontier: %s: %s", resp.Status, bytes.TrimSpace(data))
	}
	return a, json.Unmarshal(data, &a.body)
}

// digest renders the outcome that must not change: the configuration
// count and the band, as classes of members with equal area overhead
// and channel loads, each with its members and how many of them are
// on the surrogate frontier. Members of one class tie exactly in cost
// and score; analytic.Model.Estimate sums channel loads in map order,
// so their scores differ in the last bits from run to run, and with
// them which tied member sorts first and is flagged. Counting flags
// per class keeps that rounding out of the check, while any change of
// membership, of a score beyond rounding, or of the frontier's size
// still shows.
func (a answer) digest() []byte {
	type class struct {
		members  []string
		frontier int
	}
	classes := map[string]*class{}
	var order []string
	for _, p := range a.body.Band {
		key := fmt.Sprintf("area=%.9g max_load=%.9g avg_load=%.9g", p.AreaOverheadPct, p.MaxChannelLoad, p.AvgChannelLoad)
		c := classes[key]
		if c == nil {
			c = &class{}
			classes[key] = c
			order = append(order, key)
		}
		c.members = append(c.members, p.Params.String())
		c.frontier += btoi(p.SurrogateFrontier)
	}
	sort.Strings(order)
	var b bytes.Buffer
	f := a.body.Fidelity
	fmt.Fprintf(&b, "scenario=%s grid=%dx%d configs=%d band=%d\n", a.body.Scenario, a.body.Rows, a.body.Cols, f.Configs, f.Band)
	for _, key := range order {
		c := classes[key]
		sort.Strings(c.members)
		fmt.Fprintf(&b, "%s frontier=%d/%d: %s\n", key, c.frontier, len(c.members), strings.Join(c.members, "; "))
	}
	return b.Bytes()
}

// frontierRun holds one run's fixed inputs and its checks.
type frontierRun struct {
	o      options
	body   string
	golden string
	cache  string
	client *http.Client
	t      *tally
	log    io.Writer
	ref    []byte
}

// request sends one request and checks the answer: success, every job
// answered, the recorded band (the workload does not depend on the
// seed), and — warm — nothing computed.
func (r *frontierRun) request(s *service, warm bool) (answer, error) {
	a, err := s.frontier(r.client, r.body)
	r.t.ops(1, btoi(err != nil))
	if err != nil {
		return a, err
	}
	rep := a.body.Report
	r.t.check(rep.Failed == 0, "%d jobs failed", rep.Failed)
	if warm {
		r.t.check(rep.Computed == 0 && rep.CacheHits == rep.Jobs, "warm request computed %d of %d jobs", rep.Computed, rep.Jobs)
	} else {
		r.t.check(rep.Computed == a.body.Fidelity.Configs, "cold request computed %d of %d configurations", rep.Computed, a.body.Fidelity.Configs)
	}
	d := a.digest()
	if r.ref == nil {
		r.ref = d
		if r.golden != "" {
			want, err := os.ReadFile(r.golden)
			ok := err == nil && bytes.Equal(d, want)
			r.t.check(ok, "band differs from %s", r.golden)
			if !ok {
				dump := filepath.Join(r.o.work, "frontier-svc.got")
				if os.WriteFile(dump, d, 0o644) == nil {
					fmt.Fprintf(r.log, "perfbench: frontier-svc: band written to %s\n", dump)
				}
			}
		}
	} else {
		r.t.check(bytes.Equal(d, r.ref), "band differs from the first answer")
	}
	return a, nil
}

// coldBoot boots a service on an empty cache file and returns the CPU
// time the boot took.
func (r *frontierRun) coldBoot(traceCap int) (*service, time.Duration, error) {
	if err := os.Remove(r.cache); err != nil && !os.IsNotExist(err) {
		return nil, 0, err
	}
	clk := startClock()
	s, err := boot(r.client, r.cache, traceCap, r.o.workers())
	return s, clk.cpuSince(), err
}

// newFrontierRun prepares the workload's request and checks.
func newFrontierRun(o options, t *tally, log io.Writer) *frontierRun {
	r := &frontierRun{
		o: o, body: frontierBody, cache: filepath.Join(o.work, "frontier-svc.cache.json"),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}},
		t:      t, log: log,
	}
	if o.small {
		r.body = frontierBodySmall
	} else {
		r.golden = filepath.Join(o.root, "perfbench", "testdata", "frontier-svc.txt")
	}
	return r
}

// runFrontier measures the frontier-svc workload.
func runFrontier(o options, v values, t *tally, log io.Writer) error {
	r := newFrontierRun(o, t, log)
	defer r.client.CloseIdleConnections()
	if o.trace {
		return r.traced(v)
	}
	return r.untraced(v)
}

// warmRequests sends n warm repeats and returns their CPU times in ms
// and the service overhead of each (client latency minus the
// exploration's own wall time). A non-nil meter samples the host's
// speed before each request.
func (r *frontierRun) warmRequests(s *service, n int, meter *speedMeter) (cpu, overhead []float64, size int, err error) {
	for i := 0; i < n; i++ {
		if meter != nil {
			meter.sample()
		}
		a, err := r.request(s, true)
		if err != nil {
			return nil, nil, 0, err
		}
		cpu = append(cpu, millis(a.cpu))
		overhead = append(overhead, millis(a.latency)-a.body.Report.WallMs)
		size = a.size
	}
	return cpu, overhead, size, nil
}

// untraced measures cold requests and warm processes (see
// measurePasses), timing a batch of service boots in this process
// before each, each boot after a reference chunk. The boots use a
// cache file of their own, leaving the passes' alone.
func (r *frontierRun) untraced(v values) error {
	sr := *r
	sr.cache = filepath.Join(r.o.work, "frontier-svc.setup.cache.json")
	return measurePasses(r.o, v, r.t, r.log, func() ([]float64, error) {
		var raw []float64
		meter := newSpeedMeter(true)
		for i := 0; i < setupBatch; i++ {
			meter.sample()
			s, d, err := sr.coldBoot(0)
			if err != nil {
				return nil, err
			}
			raw = append(raw, seconds(d))
			s.close()
		}
		return atNominal(raw, meter), nil
	})
}

// measuredPass boots a service on an empty cache file, sends the cold
// request, and shuts the service down, which saves the cache file the
// warm processes boot on. The service must not simulate.
func (r *frontierRun) measuredPass() (*passResult, error) {
	defer r.client.CloseIdleConnections()
	runs := sim.Counters().Runs
	s, _, err := r.coldBoot(0)
	if err != nil {
		return nil, err
	}
	cold := newSpeedMeter(false)
	stop := cold.probe()
	a, err := r.request(s, false)
	probed := stop()
	s.close()
	if err != nil {
		return nil, err
	}
	r.t.check(sim.Counters().Runs == runs, "the service ran %d simulations", sim.Counters().Runs-runs)
	return &passResult{
		ColdCPU: seconds(a.cpu - probed), ColdSpeed: cold.factor(), Wall: seconds(a.latency),
		Output: digestOf(r.ref),
	}, nil
}

// warmProcess boots a service on the cache file the last cold pass
// saved, as a restarted shserved does, and sends warmRepeats warm
// requests, each after a reference chunk.
func (r *frontierRun) warmProcess() (*passResult, error) {
	defer r.client.CloseIdleConnections()
	s, err := boot(r.client, r.cache, 0, r.o.workers())
	if err != nil {
		return nil, err
	}
	defer s.close()
	meter := newSpeedMeter(true)
	p := &passResult{}
	if p.WarmCPUMs, _, _, err = r.warmRequests(s, warmRepeats, meter); err != nil {
		return nil, err
	}
	p.WarmSpeed = meter.factor()
	p.Output = digestOf(r.ref)
	return p, nil
}

// traced sends one cold request to an untraced service and one to a
// service whose trace store keeps every job, compares the two, and
// measures the layers behind the traced one.
func (r *frontierRun) traced(v values) error {
	s, _, err := r.coldBoot(0)
	if err != nil {
		return err
	}
	ref, err := r.request(s, false)
	s.close()
	if err != nil {
		return err
	}
	configs := ref.body.Fidelity.Configs

	s, _, err = r.coldBoot(2*configs + 16)
	if err != nil {
		return err
	}
	rec := &jobRecorder{}
	rec.attach(s.runner)
	c0, m0 := sim.Counters(), readRuntime()
	cold, err := r.request(s, false)
	c1, m1 := sim.Counters(), readRuntime()
	if err != nil {
		s.close()
		return err
	}
	putCounters(v, c0, c1)
	putRuntime(v, m0, m1)
	putRunner(v, s.runner.Stats(), seconds(cold.latency))
	v["bench.trace_overhead_pct"] = 100 * (seconds(cold.latency) - seconds(ref.latency)) / seconds(ref.latency)
	v["dse.configs"] = float64(configs)
	v["dse.band"] = float64(cold.body.Fidelity.Band)

	hits0, _ := s.runner.Cache.Stats()
	computed0 := s.runner.Stats().Computed
	_, overhead, size, err := r.warmRequests(s, tracedWarmRepeats, nil)
	if err != nil {
		s.close()
		return err
	}
	hits1, _ := s.runner.Cache.Stats()
	v["exp.cache_hits"] = float64(hits1 - hits0)
	v["exp.warm_computed"] = float64(s.runner.Stats().Computed - computed0)
	v["serve.http_overhead_ms"] = median(overhead)
	v["serve.resp_kb"] = float64(size) / 1024

	jobs := make([]exp.Job, len(rec.jobs))
	for i, e := range rec.jobs {
		jobs[i] = e.job
	}
	timeKeys(v, jobs, s.runner.Cache)
	err = timeSaveOpen(v, s.runner.Cache, r.cache)
	s.close()
	if err != nil {
		return err
	}
	if err := timeRequestParse(v, r.body); err != nil {
		return err
	}
	if err := r.ledger(v, rec.jobs, s.hub.Traces, cold.body.Band); err != nil {
		return err
	}
	r.t.check(v["sim.runs"] == 0, "the service ran %v simulations", v["sim.runs"])
	sanity(r.log, "frontier-svc", "no simulation (sim.runs = 0)", v["sim.runs"] == 0)
	sanity(r.log, "frontier-svc", "warm requests compute nothing (exp.warm_computed = 0)", v["exp.warm_computed"] == 0)
	return nil
}

// ledgerSample is how many of the cold request's jobs the traced run
// re-times layer by layer; every 2048/ledgerSample-th job is taken.
const ledgerSample = 128

// ledger attributes the cold request's compute time. Its span trees
// say the time went to the surrogate evaluations ("cost" spans); the
// split of those into topology, cost model, routing, and analytic
// estimate comes from re-timing the same calls on a sample of the
// jobs, next to dse.EvalSurrogateJob itself.
func (r *frontierRun) ledger(v values, jobs []evaluated, traces *obs.TraceStore, band []dse.SurrogatePoint) error {
	if len(jobs) == 0 {
		return errors.New("the cold request computed no jobs")
	}
	step := max(len(jobs)/ledgerSample, 1)
	var sample []exp.Job
	for i := 0; i < len(jobs); i += step {
		sample = append(sample, jobs[i].job)
	}
	_, mean, err := probeShapes(sample, false)
	if err != nil {
		return err
	}
	var evalSum float64
	for _, j := range sample {
		d, err := fastest(func() error { _, err := dse.EvalSurrogateJob(j); return err })
		if err != nil {
			return err
		}
		evalSum += d
	}
	evalMean := evalSum / float64(len(sample))
	v["dse.surrogate_job_ms"] = 1e3 * evalMean

	// The simulator builds a band configuration would need, were the
	// band simulated.
	var bandJobs []exp.Job
	for _, p := range band[:min(len(band), 4)] {
		j := jobs[0].job
		j.SR, j.SC = p.Params.SR, p.Params.SC
		bandJobs = append(bandJobs, j)
	}
	_, simMean, err := probeShapes(bandJobs, true)
	if err != nil {
		return err
	}
	mean.shape, mean.instantiate = simMean.shape, simMean.instantiate
	putLayerMeans(v, mean)

	st := ledger(jobs, traces, func(exp.Job) map[string]float64 { return nil })
	// Split the surrogate evaluations by the re-timed shares; what the
	// calls do not cover is the surrogate job's own work.
	cost := st.layers["noc.cost"]
	delete(st.layers, "noc.cost")
	parts := []struct {
		layer string
		d     float64
	}{{"phys", mean.phys}, {"route", mean.route}, {"topo", mean.topo}, {"analytic", mean.analytic}}
	covered := 0.0
	for _, p := range parts {
		share := min(ratio(p.d, evalMean), 1-covered)
		st.layers[p.layer] = cost * share
		covered += share
	}
	st.layers["dse"] = cost * (1 - covered)
	putLedger(v, st, "frontier-svc", r.log)
	return nil
}

// timeRequestParse times the spec layer's part of a request: decoding
// the body and resolving its architecture (median of setupRepeats).
func timeRequestParse(v values, body string) error {
	var xs []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		var req serve.FrontierRequest
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			return err
		}
		if _, err := spec.ArchForJob(req.Arch.Job()); err != nil {
			return err
		}
		xs = append(xs, millis(time.Since(t0)))
	}
	v["spec.parse_expand_ms"] = median(xs)
	return nil
}
