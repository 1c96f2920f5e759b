// Command shperf inspects the benchmark trajectory BENCH_sim.json
// (see internal/perf). -check does two things:
//
//   - It compares the two newest entries of every benchmark and
//     prints a warning line for each whose ns/op regressed beyond the
//     threshold. The warnings use the GitHub Actions annotation syntax
//     (::warning ::...), so the CI bench job surfaces them on the run
//     without failing it — ns/op history is advisory, not a gate,
//     because container timing noise would otherwise flake unrelated
//     PRs.
//   - It verifies the repository's standing metric floors
//     (perf.BuiltinFloors) against each floored benchmark's newest
//     entry — the surrogate DSE's simulations-saved factor and
//     frontier recall, the SoA engine's in-process speedup ratio. A
//     metric below its floor is a hard failure: shperf prints an
//     ::error annotation and exits with status 1.
//
// -fresh restricts both checks to benchmarks whose newest entry is
// recent (CI passes -fresh 1h so only the benches the smoke run just
// refreshed are checked; stale entries recorded in other sessions
// never warn or fail on unrelated runs).
//
// Examples:
//
//	shperf -check
//	shperf -check -fresh 1h
//	shperf -check -threshold 10 -file BENCH_sim.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"sparsehamming/internal/perf"
)

func main() {
	var (
		file      = flag.String("file", perf.DefaultPath(), "benchmark trajectory file")
		doCheck   = flag.Bool("check", false, "warn on ns/op regressions vs the previous entry; fail on metric-floor violations")
		threshold = flag.Float64("threshold", 15, "regression threshold in percent")
		fresh     = flag.Duration("fresh", 0, "only compare benches whose newest entry is younger than this (0 = all)")
	)
	flag.Parse()
	if !*doCheck {
		flag.Usage()
		os.Exit(2)
	}
	entries, err := perf.Load(*file)
	if err != nil {
		fmt.Fprintln(os.Stderr, "shperf:", err)
		os.Exit(1)
	}
	if len(entries) == 0 {
		fmt.Printf("%s: no entries\n", *file)
		return
	}
	var cutoff time.Time
	if *fresh > 0 {
		cutoff = time.Now().Add(-*fresh)
	}
	if check(os.Stdout, *file, entries, *threshold, cutoff) {
		os.Exit(1)
	}
}

// check prints the ns/op regressions of entries as warnings and their
// metric-floor violations as errors, and reports whether the run
// fails: any floor violation fails it, regressions never do.
func check(w io.Writer, file string, entries []perf.Entry, threshold float64, cutoff time.Time) (fail bool) {
	regs := perf.FreshRegressions(entries, threshold, cutoff)
	for _, d := range regs {
		fmt.Fprintf(w, "::warning ::bench %s regressed %.1f%% (%s -> %s per op)\n",
			d.Bench, d.Pct, time.Duration(d.OldNs).Round(time.Microsecond),
			time.Duration(d.NewNs).Round(time.Microsecond))
	}
	if len(regs) == 0 {
		fmt.Fprintf(w, "%s: no ns/op regressions beyond %.0f%%\n", file, threshold)
	}
	viol := perf.FloorViolations(entries, perf.BuiltinFloors(), cutoff)
	for _, v := range viol {
		fmt.Fprintf(w, "::error ::bench %s metric %s = %g below floor %g\n",
			v.Bench, v.Metric, v.Got, v.Min)
	}
	if len(viol) == 0 {
		fmt.Fprintf(w, "%s: no metric-floor violations\n", file)
	}
	return len(viol) > 0
}
