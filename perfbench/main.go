// Command perfbench is the repository benchmark. It runs one workload
// on a campaign runner, checks the program's outputs, and prints one
// JSON result line as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// An untraced run (--trace 0) reports the end-to-end metrics, whose
// times are CPU times on one processor scaled to the host's nominal
// speed (see passes.go and speed.go); a traced run (--trace 1) times
// the layers from outside — around their public calls, from the span
// trees noc.NewObservedRunner records, and from counter deltas — and
// reports the per-layer metrics, its own overhead, and how much of the
// jobs' compute time it attributes to named layers.
// BENCHMARK.json lists the workloads and metrics. Run it from the
// repository root:
//
//	bash perfbench/run.sh --workload paper-predict --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

const (
	// workers is the campaign runner's pool size, and GOMAXPROCS, in
	// traced runs (see measuredWorkers for untraced ones).
	workers = 2
	// defaultSeed is the seed whose outputs are recorded under
	// testdata/.
	defaultSeed = 1
)

// options configures one benchmark run.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool

	root string // repository root: examples/ and perfbench/ live here
	work string // scratch directory for generated traces and cache files
	// small shrinks every workload's inputs for the smoke tests; the
	// recorded outputs apply only to full-size runs.
	small bool
}

// result is the JSON line the benchmark prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// tally counts the operations a run attempts — jobs, HTTP requests,
// and output checks — and those that failed or produced wrong output.
type tally struct {
	attempted, failed int64
	problems          []string
}

// ops records n operations of which failed failed.
func (t *tally) ops(n, failed int) {
	t.attempted += int64(n)
	t.failed += int64(failed)
}

// check records one output check.
func (t *tally) check(ok bool, format string, args ...any) {
	t.attempted++
	if !ok {
		t.failed++
		t.problems = append(t.problems, fmt.Sprintf(format, args...))
	}
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"paper-predict", "load-sweep", "frontier-svc"}

func main() {
	if env := os.Getenv(passEnv); env != "" {
		runtime.GOMAXPROCS(measuredWorkers)
		os.Exit(childMain(env, os.Stdout, os.Stderr))
	}
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	runtime.GOMAXPROCS(o.workers())
	res, err := run(o, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// workers returns the runner's pool size and GOMAXPROCS for the run:
// a traced run measures the layers as the toolchain runs them, an
// untraced run as its measured passes run.
func (o options) workers() int {
	if o.trace {
		return workers
	}
	return measuredWorkers
}

// parseFlags reads the driver's command line.
func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloadNames, "|"))
	seed := fs.Int64("seed", defaultSeed, "workload seed")
	seconds := fs.Int("seconds", 30, "how long an untraced run measures")
	trace := fs.Int("trace", 0, "1 for a traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	if fs.NArg() > 0 {
		return options{}, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	known := false
	for _, n := range workloadNames {
		known = known || n == *workload
	}
	if !known {
		return options{}, fmt.Errorf("unknown workload %q (want %s)", *workload, strings.Join(workloadNames, "|"))
	}
	if *seconds < 1 {
		return options{}, fmt.Errorf("--seconds %d must be positive", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return options{}, fmt.Errorf("--trace %d must be 0 or 1", *trace)
	}
	return options{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		root:     ".",
		work:     ".bench_work",
	}, nil
}

// run executes one workload and assembles its result. Diagnostics —
// the layer ledger, the mechanism checks, failed output checks — go
// to log.
func run(o options, log io.Writer) (*result, error) {
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return nil, err
	}
	v := values{}
	t := &tally{}
	var err error
	switch o.workload {
	case "frontier-svc":
		err = runFrontier(o, v, t, log)
	default:
		var c *campaign
		if c, err = newCampaign(o); err == nil {
			err = c.run(o, v, t, log)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", o.workload, err)
	}
	catalog := endToEnd
	if o.trace {
		catalog = perLayer
		v["go.peak_rss_mb"] = peakRSSMB()
		v.setZero(perLayer)
	} else {
		if _, ok := v["table3_err_area_pct"]; !ok {
			if err := accuracyProbe(v, t); err != nil {
				return nil, fmt.Errorf("%s: %w", o.workload, err)
			}
		}
		v["ok_ratio"] = 1 - ratio(float64(t.failed), float64(t.attempted))
	}
	for _, p := range t.problems {
		fmt.Fprintf(log, "perfbench: %s: check failed: %s\n", o.workload, p)
	}
	metrics, err := v.render(catalog)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", o.workload, err)
	}
	if t.attempted == 0 {
		return nil, errors.New(o.workload + ": no operation attempted")
	}
	return &result{
		Correct:   t.failed == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   metrics,
	}, nil
}

// peakRSSMB returns the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// seconds converts a duration to float seconds.
func seconds(d time.Duration) float64 { return d.Seconds() }

// millis converts a duration to float milliseconds.
func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// keepMeasuring reports whether another iteration of typical length
// last fits: iterations continue until the measuring window is spent,
// stopping early rather than overrunning it by more than half an
// iteration.
func keepMeasuring(start time.Time, window, last time.Duration) bool {
	return time.Since(start)+last/2 < window
}

// printLedger writes the traced run's layer ledger, largest first.
func printLedger(log io.Writer, name string, compute float64, layers map[string]float64) {
	keys := make([]string, 0, len(layers))
	for k := range layers {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return layers[keys[i]] > layers[keys[j]] })
	fmt.Fprintf(log, "perfbench: %s: ledger of %.3fs job compute\n", name, compute)
	for _, k := range keys {
		fmt.Fprintf(log, "  %-16s %9.4fs %6.2f%%\n", k, layers[k], 100*ratio(layers[k], compute))
	}
}

// sanity prints one mechanism check: which layers a workload
// exercises or bypasses. It is a statement about the program's
// design, not an output check, so it does not fail the run.
func sanity(log io.Writer, name, what string, ok bool) {
	verdict := "holds"
	if !ok {
		verdict = "DOES NOT HOLD"
	}
	fmt.Fprintf(log, "perfbench: %s: mechanism: %s: %s\n", name, what, verdict)
}
