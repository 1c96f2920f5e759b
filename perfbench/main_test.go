package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"sparsehamming/internal/dse"
	"sparsehamming/internal/serve"
	"sparsehamming/internal/topo"
)

// benchmarkJSON mirrors BENCHMARK.json; unknown keys fail decoding.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

// TestMain lets the test binary stand in for the benchmark program
// when a smoke run starts a measured pass in a child process.
func TestMain(m *testing.M) {
	if env := os.Getenv(passEnv); env != "" {
		os.Exit(childMain(env, os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// TestCatalogMatchesBenchmarkJSON checks that BENCHMARK.json is well
// formed and lists exactly the workloads and metrics the program
// reports, with the same units.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var b benchmarkJSON
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if len(b.Command) == 0 || len(b.Command) > 32 {
		t.Errorf("command has %d strings", len(b.Command))
	}
	for _, p := range b.Paths {
		if !pathRE.MatchString(p) || strings.HasPrefix(p, "/") || strings.Contains(p, "..") {
			t.Errorf("bad path %q", p)
		}
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside [1, 60]", b.RunSeconds)
	}

	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q malformed or used twice", n)
		}
		seen[n] = true
	}
	if len(b.Workloads) != len(workloadNames) {
		t.Errorf("%d workloads, program has %d", len(b.Workloads), len(workloadNames))
	}
	for i, w := range b.Workloads {
		name(w.Name)
		if i < len(workloadNames) && w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q, program has %q", i, w.Name, workloadNames[i])
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}

	check := func(kind, n, unit, better string, want metric) {
		name(n)
		if !unitRE.MatchString(unit) {
			t.Errorf("%s %s: malformed unit %q", kind, n, unit)
		}
		if better != "lower" && better != "higher" {
			t.Errorf("%s %s: better is %q", kind, n, better)
		}
		if n != want.name || unit != want.unit {
			t.Errorf("%s metric %s [%s], program reports %s [%s]", kind, n, unit, want.name, want.unit)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, program %d+%d",
			len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	setup := false
	for i, m := range b.EndToEnd {
		check("end_to_end", m.Name, m.Unit, m.Better, endToEnd[i])
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error(`end_to_end needs setup_s in "s", lower is better`)
	}
	for i, m := range b.PerLayer {
		check("per_layer", m.Name, m.Unit, m.Better, perLayer[i])
	}
}

// TestSmoke runs every workload on shrunk inputs, untraced and traced,
// and requires every output check to pass and every metric of the
// mode's catalog to be reported.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			o := options{
				workload: w, seed: 7, seconds: time.Second, trace: traced,
				root: "..", work: t.TempDir(), small: true,
			}
			var log strings.Builder
			res, err := run(o, &log)
			if err != nil {
				t.Fatalf("%s traced=%v: %v\n%s", w, traced, err, log.String())
			}
			want := len(endToEnd)
			if traced {
				want = len(perLayer)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 || len(res.Metrics) != want {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d metrics=%d (want %d)\n%s",
					w, traced, res.Correct, res.Failed, res.Attempted, len(res.Metrics), want, log.String())
			}
			if traced && res.Metrics["bench.ledger_coverage_pct"].Value < 90 {
				t.Errorf("%s: ledger covers %.1f%% of job compute, want >= 90%%\n%s",
					w, res.Metrics["bench.ledger_coverage_pct"].Value, log.String())
			}
		}
	}
}

// TestGoldenMismatchFails checks that output differing from the
// recorded output fails the run and is written out for diffing.
func TestGoldenMismatchFails(t *testing.T) {
	dir := t.TempDir()
	golden := filepath.Join(dir, "want.out")
	if err := os.WriteFile(golden, []byte("recorded\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	c := &campaign{name: "paper-predict", golden: golden}
	o := options{work: dir}
	var tl tally
	c.checkGolden(o, []byte("recorded\n"), &tl, io.Discard)
	if tl.failed != 0 {
		t.Fatalf("matching output failed: %v", tl.problems)
	}
	c.checkGolden(o, []byte("changed\n"), &tl, io.Discard)
	if tl.failed != 1 || tl.attempted != 2 {
		t.Fatalf("mismatch: failed=%d attempted=%d, want 1 of 2", tl.failed, tl.attempted)
	}
	if got, err := os.ReadFile(filepath.Join(dir, "paper-predict.got")); err != nil || string(got) != "changed\n" {
		t.Fatalf("mismatching output not written: %q, %v", got, err)
	}
}

// TestFrontierDigest checks that the band digest ignores which member
// of an exact tie carries the frontier flag, and nothing else.
func TestFrontierDigest(t *testing.T) {
	pt := func(sr []int, area, load float64, frontier bool) dse.SurrogatePoint {
		return dse.SurrogatePoint{
			Params: topo.HammingParams{SR: sr}, AreaOverheadPct: area,
			MaxChannelLoad: load, AvgChannelLoad: load / 2, InBand: true, SurrogateFrontier: frontier,
		}
	}
	digest := func(band ...dse.SurrogatePoint) string {
		return string(answer{body: serve.FrontierJSON{Band: band}}.digest())
	}
	a := digest(pt([]int{2}, 10, 1, true), pt([]int{3}, 10, 1, false), pt([]int{4}, 12, 0.5, true))
	if b := digest(pt([]int{3}, 10, 1, true), pt([]int{2}, 10, 1, false), pt([]int{4}, 12, 0.5, true)); a != b {
		t.Errorf("tied members swapping the flag changed the digest:\n%s\n%s", a, b)
	}
	if b := digest(pt([]int{2}, 10, 1, true), pt([]int{3}, 10, 1, true), pt([]int{4}, 12, 0.5, true)); a == b {
		t.Error("a second frontier flag in a tie class left the digest unchanged")
	}
	if b := digest(pt([]int{2}, 10, 1, true), pt([]int{3}, 10, 1.1, false), pt([]int{4}, 12, 0.5, true)); a == b {
		t.Error("a changed channel load left the digest unchanged")
	}
	if b := digest(pt([]int{2}, 10, 1, true), pt([]int{4}, 12, 0.5, true)); a == b {
		t.Error("a dropped band member left the digest unchanged")
	}
}
