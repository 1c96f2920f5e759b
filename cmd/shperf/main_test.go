package main

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"sparsehamming/internal/perf"
)

func TestCheckExitDecision(t *testing.T) {
	old := time.Now().Add(-48 * time.Hour).UTC().Format(time.RFC3339)
	now := time.Now().UTC().Format(time.RFC3339)
	soa := func(when string, ns, speedup float64) perf.Entry {
		return perf.Entry{Bench: "EngineSoASpeedup", When: when, NsPerOp: ns,
			Metrics: map[string]float64{"soa_speedup_x": speedup}}
	}
	cases := []struct {
		name     string
		entries  []perf.Entry
		cutoff   time.Time
		fail     bool
		wantLine string
	}{
		{"clean", []perf.Entry{soa(old, 100, 2), soa(now, 100, 2)}, time.Time{}, false, "no metric-floor violations"},
		{"regression only warns", []perf.Entry{soa(old, 100, 2), soa(now, 200, 2)}, time.Time{}, false, "::warning ::bench EngineSoASpeedup regressed"},
		{"floor violation fails", []perf.Entry{soa(old, 100, 2), soa(now, 100, 1.2)}, time.Time{}, true, "::error ::bench EngineSoASpeedup metric soa_speedup_x = 1.2 below floor 1.5"},
		{"stale violation skipped", []perf.Entry{soa(old, 100, 1.2)}, time.Now().Add(-time.Hour), false, "no metric-floor violations"},
	}
	for _, c := range cases {
		var out bytes.Buffer
		fail := check(&out, "BENCH_sim.json", c.entries, 15, c.cutoff)
		if fail != c.fail {
			t.Errorf("%s: fail = %v, want %v\n%s", c.name, fail, c.fail, out.String())
		}
		if !strings.Contains(out.String(), c.wantLine) {
			t.Errorf("%s: output lacks %q:\n%s", c.name, c.wantLine, out.String())
		}
		if !c.fail && strings.Contains(out.String(), "::error") {
			t.Errorf("%s: passing check printed an error:\n%s", c.name, out.String())
		}
	}
}
