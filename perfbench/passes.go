package main

// Measured passes run one per child process: a cold pass in a process
// of its own starts from an empty heap, as a user's fresh shrun or
// shserved does. Each cold pass leaves its cache file behind, and warm
// passes follow in several fresh processes that open it, as a second
// shrun -cache or a restarted shserved does: a short operation's CPU
// time differs from process to process by a tenth, and a median over
// several processes evens that out. A pass's peak resident set goes to
// the log only: where the collector's cycles fall moves it by a fifth
// from pass to pass.
//
// Passes are timed by the process CPU clock, on one processor with a
// one-worker runner (measuredWorkers), and scaled to the host's
// nominal speed (see speedMeter). The wall clock of the same pass
// moves by a quarter and more from run to run: it counts time a thread
// waited for a CPU, in this machine or, as steal time, on the host,
// and the wake-ups of a processor that idled between two hand-offs.
// The CPU clock counts only time the process ran, and one processor
// hands off nothing between CPUs. One worker runs the jobs in a fixed
// order, where two workers taking turns on the processor interleave as
// the scheduler's time slices fall.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"syscall"
	"time"
	"unsafe"
)

// measuredWorkers is GOMAXPROCS and the runner's pool size in the
// measured passes and set-ups; traced runs use workers.
const measuredWorkers = 1

// clockProcessCPUTimeID is Linux's CLOCK_PROCESS_CPUTIME_ID.
const clockProcessCPUTimeID = 2

// processCPU returns the CPU time every thread of the process has used.
func processCPU() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(fmt.Sprintf("clock_gettime(CLOCK_PROCESS_CPUTIME_ID): %v", errno))
	}
	return time.Duration(ts.Nano())
}

// clock reads the CPU and wall clocks together.
type clock struct {
	cpu  time.Duration
	wall time.Time
}

// startClock starts timing.
func startClock() clock { return clock{cpu: processCPU(), wall: time.Now()} }

// cpuSince returns the CPU time the process used since c started.
func (c clock) cpuSince() time.Duration { return processCPU() - c.cpu }

// wallSince returns the wall time since c started.
func (c clock) wallSince() time.Duration { return time.Since(c.wall) }

// passEnv, when set, makes the process a child that runs one measured
// pass with the options it holds (a JSON passOptions) and prints a
// passResult line.
const passEnv = "PERFBENCH_PASS"

// warmChildren is how many warm processes at least follow each cold
// pass.
const warmChildren = 3

// passOptions are the options a child needs.
type passOptions struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Root     string `json:"root"`
	Work     string `json:"work"`
	Small    bool   `json:"small"`
	// Warm asks for warmRepeats warm passes on the cache file the last
	// cold pass left, instead of a cold pass.
	Warm bool `json:"warm"`
}

// passResult is what one measured pass reports to the parent.
type passResult struct {
	ColdCPU   float64   `json:"cold_cpu_s"`
	ColdSpeed float64   `json:"cold_speed"` // host slowdown during the cold pass
	Wall      float64   `json:"wall_s"`     // of the cold pass, for the log
	WarmCPUMs []float64 `json:"warm_cpu_ms"`
	WarmSpeed float64   `json:"warm_speed"` // host slowdown during the warm passes
	RSSMB     float64   `json:"rss_mb"`

	Output string             `json:"output"` // digest of the checked output
	Table3 map[string]float64 `json:"table3,omitempty"`

	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	Problems  []string `json:"problems,omitempty"`
}

// digestOf names output bytes compactly, for comparing passes.
func digestOf(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// childMain runs the pass the environment describes and prints its
// result; it returns the process exit code.
func childMain(env string, stdout, log io.Writer) int {
	var po passOptions
	if err := json.Unmarshal([]byte(env), &po); err != nil {
		fmt.Fprintln(log, "perfbench: pass:", err)
		return 2
	}
	o := options{workload: po.Workload, seed: po.Seed, root: po.Root, work: po.Work, small: po.Small}
	t := &tally{}
	var (
		p   *passResult
		err error
	)
	if o.workload == "frontier-svc" {
		r := newFrontierRun(o, t, log)
		if po.Warm {
			p, err = r.warmProcess()
		} else {
			p, err = r.measuredPass()
		}
	} else {
		var c *campaign
		if c, err = newCampaign(o); err == nil {
			if po.Warm {
				p, err = c.warmProcess(t)
			} else {
				p, err = c.measuredPass(o, t, log)
			}
		}
	}
	if err != nil {
		fmt.Fprintf(log, "perfbench: %s: pass: %v\n", o.workload, err)
		return 1
	}
	p.RSSMB = peakRSSMB()
	p.Attempted, p.Failed, p.Problems = t.attempted, t.failed, t.problems
	line, err := json.Marshal(p)
	if err != nil {
		fmt.Fprintln(log, "perfbench: pass:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// runChild runs one pass in a child process running this program.
func runChild(exe string, po passOptions, t *tally, log io.Writer) (*passResult, error) {
	env, err := json.Marshal(po)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), passEnv+"="+string(env))
	cmd.Stderr = log
	// A pass must not outlive a parent that is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	var p passResult
	if err := json.Unmarshal(lastLine(out), &p); err != nil {
		return nil, err
	}
	t.attempted += p.Attempted
	t.failed += p.Failed
	t.problems = append(t.problems, p.Problems...)
	return &p, nil
}

// measurePasses runs cold passes, each followed by warm processes, for
// the measuring window, and records the end-to-end
// metrics: medians over the cold passes, warm percentiles over all
// warm samples, the median of the set-ups timeSetups times before each
// process (seconds at nominal speed), and the Table III errors. Every
// pass must reproduce the first cold pass's output. Raw CPU and wall
// times and the host's slowdown go to the log.
func measurePasses(o options, v values, t *tally, log io.Writer, timeSetups func() ([]float64, error)) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	po := passOptions{Workload: o.workload, Seed: o.seed, Root: o.root, Work: o.work, Small: o.small}
	var setups, colds, raws, speeds, walls, warms, warmP50s, rss []float64
	child := func() (*passResult, error) {
		s, err := timeSetups()
		if err != nil {
			return nil, err
		}
		setups = append(setups, s...)
		return runChild(exe, po, t, log)
	}
	var first *passResult
	start, last := time.Now(), time.Duration(0)
	for len(walls) == 0 || keepMeasuring(start, o.seconds, last) {
		iter := time.Now()
		po.Warm = false
		p, err := child()
		if err != nil {
			return fmt.Errorf("cold pass %d: %w", len(walls)+1, err)
		}
		if first == nil {
			first = p
		} else {
			t.check(p.Output == first.Output, "cold pass %d output %s differs from the first pass's %s", len(walls)+1, p.Output, first.Output)
			t.check(fmt.Sprint(p.Table3) == fmt.Sprint(first.Table3), "cold pass %d Table III errors differ from the first pass's", len(walls)+1)
		}
		colds = append(colds, p.ColdCPU/p.ColdSpeed)
		raws = append(raws, p.ColdCPU)
		speeds = append(speeds, p.ColdSpeed)
		walls = append(walls, p.Wall)
		rss = append(rss, p.RSSMB)

		// Warm processes follow: warmChildren of them, and more while
		// another cold pass would not fit the window but a warm
		// process would.
		po.Warm = true
		lastWarm := time.Duration(0)
		for i := 0; i < warmChildren || !keepMeasuring(start, o.seconds, time.Since(iter)) && keepMeasuring(start, o.seconds, lastWarm); i++ {
			began := time.Now()
			w, err := child()
			if err != nil {
				return fmt.Errorf("warm process %d after cold pass %d: %w", i+1, len(walls), err)
			}
			t.check(w.Output == first.Output, "warm output %s differs from the cold pass's %s", w.Output, first.Output)
			for _, ms := range w.WarmCPUMs {
				warms = append(warms, ms/w.WarmSpeed)
			}
			warmP50s = append(warmP50s, median(w.WarmCPUMs)/w.WarmSpeed)
			speeds = append(speeds, w.WarmSpeed)
			lastWarm = time.Since(began)
		}
		last = time.Since(iter)
	}
	v["cold_s"] = median(colds)
	v["setup_s"] = median(setups)
	v["warm_p50_ms"] = median(warms)
	v["warm_p90_ms"] = quantile(warms, 0.9)
	for k, x := range first.Table3 {
		v[k] = x
	}
	fmt.Fprintf(log, "perfbench: %s: %d cold passes: cold %.4g s, raw CPU %.4g s, wall %.4g s, peak RSS %.4g MB; host slowdown %.3g; warm p50 %.4g ms of %d samples\n",
		o.workload, len(walls), colds, raws, walls, rss, speeds, warmP50s, len(warms))
	return nil
}

// lastLine returns the last non-empty line of out.
func lastLine(out []byte) []byte {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	return lines[len(lines)-1]
}
