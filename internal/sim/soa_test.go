package sim

// Differential harness for the structure-of-arrays engine: every
// configuration tuple runs once through the SoA engine (the default)
// and once through the retained array-of-structs reference engine
// (Config.reference), and the two Stats must be bit-identical. The
// sweep draws from the differential corpus in differential_test.go
// (diffFamilies, diffCase), so the matrix covers every topology
// family, both routing flavors, the whole load ladder, adaptive
// control, and trace replay.
// A property test pins the occupancy bitmap the SoA phase scans skip
// idle routers with.

import (
	"math/rand"
	"testing"

	"sparsehamming/internal/route"
	"sparsehamming/internal/topo"
	"sparsehamming/internal/trace"
)

// runBothEngines runs one config through the SoA engine and the
// reference engine and returns both Stats.
func runBothEngines(t *testing.T, cfg Config) (soa, ref Stats) {
	t.Helper()
	soaStats, err := RunConfig(cfg)
	if err != nil {
		t.Fatalf("SoA run: %v", err)
	}
	cfg.reference = true
	refStats, err := RunConfig(cfg)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	return soaStats, refStats
}

// TestSoAMatchesReferenceDifferential sweeps the full configuration
// matrix — every topology family, both routings, the load ladder,
// control off and on — and asserts the SoA engine reproduces the
// reference engine's Stats bit for bit (Stats is all-scalar, so ==
// is a field-by-field bit-identity check).
func TestSoAMatchesReferenceDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(0x50A0D1FF))
	patterns := PatternNames()
	loads := diffLoads
	if testing.Short() {
		loads = []float64{0.08, 0.9}
	}

	total := 0
	for _, fam := range diffFamilies {
		tp, err := topo.ByName(fam.kind, fam.rows, fam.cols, fam.sr, fam.sc)
		if err != nil {
			t.Fatalf("topology %s: %v", fam.kind, err)
		}
		for _, routing := range diffRoutings {
			rt, err := route.ForName(tp, routing)
			if err != nil {
				t.Fatalf("routing %q on %s: %v", routing, fam.kind, err)
			}
			for li, load := range loads {
				pattern := patterns[rng.Intn(len(patterns))]
				if _, err := PatternByName(pattern, fam.rows, fam.cols); err != nil {
					pattern = "uniform" // pattern unsupported on this grid
				}
				dc := diffCase{
					family:  fam,
					routing: routing,
					pattern: pattern,
					load:    load,
					seed:    rng.Int63n(1 << 32),
					control: li%2 == 1, // alternate fixed and adaptive
				}
				soa, ref := runBothEngines(t, dc.diffConfig(t, tp, rt))
				total++
				if soa != ref {
					t.Errorf("%s routing=%q %+v:\nSoA       %+v\nreference %+v",
						fam.kind, routing, dc, soa, ref)
				}
			}
		}
	}
	if total < len(diffFamilies)*len(diffRoutings)*len(loads) {
		t.Fatalf("sweep covered %d configurations, want %d",
			total, len(diffFamilies)*len(diffRoutings)*len(loads))
	}
	t.Logf("verified %d configurations SoA == reference", total)
}

// TestSoAMatchesReferenceReplay extends the engine differential to
// trace-driven injection: replayed application traces at several time
// scales, with and without adaptive control, must eject the same
// flits on the same cycles in both engines.
func TestSoAMatchesReferenceReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(0x50A7EACE))
	generators := trace.GeneratorNames()
	scales := []float64{0.25, 1.0}

	total := 0
	for i, g := range generators {
		tr, err := trace.Generate(g, trace.GenConfig{
			Rows: 4, Cols: 4, Cycles: 1200, Seed: int64(300 + i), Rate: 0.3,
		})
		if err != nil {
			t.Fatalf("generate %s: %v", g, err)
		}
		replay, err := NewReplay(g, tr)
		if err != nil {
			t.Fatalf("replay %s: %v", g, err)
		}
		fam := diffFamilies[i%len(diffFamilies)]
		if fam.rows != 4 || fam.cols != 4 {
			fam = diffFamilies[1] // mesh; the traces are 4x4
		}
		tp, err := topo.ByName(fam.kind, fam.rows, fam.cols, fam.sr, fam.sc)
		if err != nil {
			t.Fatalf("topology %s: %v", fam.kind, err)
		}
		rt, err := route.ForName(tp, "")
		if err != nil {
			t.Fatalf("routing on %s: %v", fam.kind, err)
		}
		for _, scale := range scales {
			cfg := Config{
				Topo: tp, Routing: rt,
				NumVCs: 4, BufDepth: 8,
				RouterDelay: 2, PacketLen: 4,
				InjectionRate: scale,
				Pattern:       replay,
				Seed:          rng.Int63n(1 << 32),
				Warmup:        200, Measure: 500, Drain: 1500,
			}
			if rt.NumClasses > cfg.NumVCs {
				cfg.NumVCs = rt.NumClasses
			}
			if total%2 == 1 {
				cfg.Control = &Control{Window: 50, RelHalfWidth: 0.05}
			}
			soa, ref := runBothEngines(t, cfg)
			total++
			if soa != ref {
				t.Errorf("%s replay %s scale=%g:\nSoA       %+v\nreference %+v",
					fam.kind, g, scale, soa, ref)
			}
		}
	}
	if total < 2*len(generators) {
		t.Fatalf("replay sweep covered %d configurations, want %d", total, 2*len(generators))
	}
	t.Logf("verified %d trace-driven configurations SoA == reference", total)
}

// TestOccupancyBitmapTracksActiveRouters is the property test behind
// the SoA engine's idle-router skipping: after every cycle, a
// router's occupancy bit is set if and only if it has queued source
// packets or buffered flits — so the word-granular skip-scan visits
// exactly the non-idle routers, and skipping the rest cannot drop
// work.
func TestOccupancyBitmapTracksActiveRouters(t *testing.T) {
	m, err := topo.NewMesh(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	r, err := route.For(m, route.Auto)
	if err != nil {
		t.Fatal(err)
	}
	// A bursty pattern at moderate load drives routers in and out of
	// idleness; the trailing injection-off stretch drains the network
	// so the test also sees occupancy fall back to zero.
	s, err := New(Config{
		Topo: m, Routing: r, NumVCs: 4, BufDepth: 8,
		RouterDelay: 2, PacketLen: 4, InjectionRate: 0.2,
		Seed: 7, Warmup: 1 << 30, Measure: 1, Drain: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := s.soa
	if st == nil {
		t.Fatal("default engine is not the SoA engine")
	}
	check := func(cycle int, phase string) {
		for id := 0; id < s.n; id++ {
			active := st.srcQ[id].len() > 0 || st.bufFlits[id] > 0
			bit := st.occ[id>>6]&(1<<(uint(id)&63)) != 0
			if bit != active {
				t.Fatalf("cycle %d (%s): router %d occupancy bit %v, but srcQ=%d bufFlits=%d",
					cycle, phase, id, bit, st.srcQ[id].len(), st.bufFlits[id])
			}
		}
	}
	for i := 0; i < 3000; i++ {
		s.step(true)
		check(i, "inject")
	}
	// Injection off: the network drains and every bit must clear.
	for i := 0; i < 2000; i++ {
		s.step(false)
		check(i, "drain")
	}
	for w, word := range st.occ {
		if word != 0 {
			t.Fatalf("occupancy word %d = %#x after full drain, want 0", w, word)
		}
	}
	if s.flitsInFlight != 0 {
		t.Fatalf("%d flits in flight after drain", s.flitsInFlight)
	}
}
