package sim

// Golden-replay determinism suite: every checked-in application trace
// under examples/traces/, replayed at two quality tiers on a mesh of
// its grid, is pinned field-by-field against testdata/golden_replay.json.
// Trace replay draws nothing from the RNG, so these numbers are a
// whole-stack fingerprint — the trace format, the replay scheduler,
// and the engine's cycle loop all have to reproduce bit-identically
// for the suite to pass.
//
// Regenerate after an intentional engine change with
//
//	go test ./internal/sim/ -run TestGoldenReplay -update-golden

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"sparsehamming/internal/route"
	"sparsehamming/internal/topo"
	"sparsehamming/internal/trace"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_replay.json from the current engine")

// goldenTier is one pinned schedule; the windows mirror the noc
// toolchain's quick and full quality tiers.
type goldenTier struct {
	name            string
	warmup, measure int
}

var goldenTiers = []goldenTier{
	{name: "quick", warmup: 800, measure: 2500},
	{name: "full", warmup: 2000, measure: 6000},
}

const goldenPath = "testdata/golden_replay.json"

// goldenConfig builds the pinned replay configuration: a mesh of the
// trace's grid with the differential harness's router parameters.
func goldenConfig(t *testing.T, tr *trace.Trace, tier goldenTier) Config {
	t.Helper()
	tp, err := topo.NewMesh(tr.Meta.Rows, tr.Meta.Cols)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := route.ForName(tp, "")
	if err != nil {
		t.Fatal(err)
	}
	rp, err := NewReplay("golden", tr)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Topo: tp, Routing: rt,
		NumVCs: 4, BufDepth: 8,
		RouterDelay: 2, PacketLen: 4,
		InjectionRate: 1.0,
		Pattern:       rp,
		Seed:          42,
		Warmup:        tier.warmup,
		Measure:       tier.measure,
		Drain:         3 * tier.measure,
	}
}

// TestGoldenReplay replays every checked-in trace at both tiers and
// compares the Stats against the golden file.
func TestGoldenReplay(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "traces", "*.trace"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 4 {
		t.Fatalf("found %d traces under examples/traces, expected the checked-in library", len(paths))
	}
	sort.Strings(paths)

	got := map[string]Stats{}
	for _, path := range paths {
		tr, err := trace.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, tier := range goldenTiers {
			key := fmt.Sprintf("%s/%s", filepath.Base(path), tier.name)
			cfg := goldenConfig(t, tr, tier)
			st, err := RunConfig(cfg)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			if st.MeasuredInjected == 0 {
				t.Errorf("%s: replay measured no packets", key)
			}
			if st.Deadlocked {
				t.Errorf("%s: replay deadlocked", key)
			}
			got[key] = st

		}
	}

	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d entries", goldenPath, len(got))
		return
	}

	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to regenerate)", err)
	}
	var want map[string]Stats
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden file has %d entries, run produced %d", len(want), len(got))
	}
	for key, w := range want {
		g, ok := got[key]
		if !ok {
			t.Errorf("%s: in golden file but not produced (trace removed?)", key)
			continue
		}
		if g != w {
			t.Errorf("%s: replay drifted from golden:\ngot  %+v\nwant %+v", key, g, w)
		}
	}
	for key := range got {
		if _, ok := want[key]; !ok {
			t.Errorf("%s: not in golden file (run with -update-golden)", key)
		}
	}
}
