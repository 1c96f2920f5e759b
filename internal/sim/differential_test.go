package sim

// Differential corpus: the topology families, routings, loads, and
// configuration tuples the engine differential sweeps (soa_test.go)
// draw from, plus the Shape compatibility checks.

import (
	"testing"

	"sparsehamming/internal/route"
	"sparsehamming/internal/topo"
)

// diffFamily is one topology family instance the generator draws
// from: a small grid satisfying the family's constraint.
type diffFamily struct {
	kind       string
	rows, cols int
	sr, sc     []int
}

// diffFamilies covers every registered topology family.
var diffFamilies = []diffFamily{
	{kind: "ring", rows: 2, cols: 4},
	{kind: "mesh", rows: 4, cols: 4},
	{kind: "torus", rows: 4, cols: 4},
	{kind: "folded-torus", rows: 4, cols: 4},
	{kind: "hypercube", rows: 4, cols: 4},
	{kind: "slimnoc", rows: 2, cols: 4},
	{kind: "flattened-butterfly", rows: 4, cols: 4},
	{kind: "sparse-hamming", rows: 4, cols: 4, sr: []int{2}, sc: []int{2}},
	{kind: "ruche", rows: 4, cols: 4, sr: []int{2}},
}

// diffRoutings are the routing names the generator draws: the
// family's co-designed default and the generic hop-minimal tables
// (buildable for any connected topology).
var diffRoutings = []string{"", "hop-minimal"}

// diffLoads spans from near-zero through deep saturation so the
// harness exercises drained, early-verdict, and drain-capped exits.
var diffLoads = []float64{0.02, 0.08, 0.15, 0.3, 0.5, 0.9}

// diffCase is one generated configuration tuple.
type diffCase struct {
	family  diffFamily
	routing string
	pattern string
	load    float64
	seed    int64
	control bool
}

// diffConfig materializes the tuple against a topology and routing
// into the sequential-path Config. Short windows keep the full corpus
// fast; small VC counts and buffers reach interesting contention at
// these network sizes.
func (dc diffCase) diffConfig(t *testing.T, tp *topo.Topology, rt *route.Routing) Config {
	t.Helper()
	pat, err := PatternByName(dc.pattern, dc.family.rows, dc.family.cols)
	if err != nil {
		t.Fatalf("pattern %q: %v", dc.pattern, err)
	}
	vcs := 4
	if rt.NumClasses > vcs {
		vcs = rt.NumClasses
	}
	cfg := Config{
		Topo: tp, Routing: rt,
		NumVCs: vcs, BufDepth: 8,
		RouterDelay: 2, PacketLen: 4,
		InjectionRate: dc.load,
		Pattern:       pat,
		Seed:          dc.seed,
		Warmup:        200, Measure: 500, Drain: 1500,
	}
	if dc.control {
		cfg.Control = &Control{Window: 50, RelHalfWidth: 0.05}
	}
	return cfg
}

// TestShapeRejectsForeignConfig pins the Shape compatibility checks:
// runs may vary load, seed, pattern, and schedule, but never the
// topology, routing, or link latencies the shape was built from.
func TestShapeRejectsForeignConfig(t *testing.T) {
	mesh, err := topo.NewMesh(4, 4)
	if err != nil {
		t.Fatalf("mesh: %v", err)
	}
	rt, err := route.For(mesh, route.Auto)
	if err != nil {
		t.Fatalf("routing: %v", err)
	}
	cfg := Config{Topo: mesh, Routing: rt, InjectionRate: 0.1}
	sh, err := NewShape(cfg)
	if err != nil {
		t.Fatalf("NewShape: %v", err)
	}
	if _, err := sh.Instantiate(cfg); err != nil {
		t.Fatalf("Instantiate same config: %v", err)
	}

	other, err := topo.NewMesh(4, 4)
	if err != nil {
		t.Fatalf("mesh: %v", err)
	}
	ort, err := route.For(other, route.Auto)
	if err != nil {
		t.Fatalf("routing: %v", err)
	}
	if _, err := sh.Instantiate(Config{Topo: other, Routing: ort, InjectionRate: 0.1}); err == nil {
		t.Fatal("Instantiate accepted a different topology instance")
	}

	lats := make([]int, mesh.NumLinks())
	for i := range lats {
		lats[i] = 2
	}
	if _, err := sh.Instantiate(Config{Topo: mesh, Routing: rt, InjectionRate: 0.1, LinkLatency: lats}); err == nil {
		t.Fatal("Instantiate accepted different link latencies")
	}
}
