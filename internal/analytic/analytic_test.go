package analytic

import (
	"math"
	"testing"

	"sparsehamming/internal/route"
	"sparsehamming/internal/sim"
	"sparsehamming/internal/topo"
)

func model(t *testing.T) func(*topo.Topology, error) *Model {
	return func(tp *topo.Topology, terr error) *Model {
		t.Helper()
		if terr != nil {
			t.Fatal(terr)
		}
		r, err := route.For(tp, route.Auto)
		if err != nil {
			t.Fatal(err)
		}
		return &Model{Topo: tp, Routing: r, RouterDelay: 2, PacketLen: 4}
	}
}

func TestZeroLoadLatencyMesh(t *testing.T) {
	m := model(t)(topo.NewMesh(4, 4))
	zl, err := m.ZeroLoadLatency()
	if err != nil {
		t.Fatal(err)
	}
	// Mesh 4x4: avg hops 8/3. Closed form: (hops+1)*delay + hops*1 +
	// (len-1) averaged = (8/3+1)*2 + 8/3 + 3.
	want := (8.0/3+1)*2 + 8.0/3 + 3
	if math.Abs(zl-want) > 1e-9 {
		t.Errorf("zero-load latency = %v, want %v", zl, want)
	}
}

func TestZeroLoadMatchesSimulator(t *testing.T) {
	// The analytical estimate must track the simulator's measured
	// zero-load latency within 15% (the simulator adds VC/SA
	// arbitration cycles the closed form ignores).
	tp, err := topo.NewMesh(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	r, err := route.For(tp, route.Auto)
	if err != nil {
		t.Fatal(err)
	}
	m := &Model{Topo: tp, Routing: r, RouterDelay: 2, PacketLen: 4}
	zl, err := m.ZeroLoadLatency()
	if err != nil {
		t.Fatal(err)
	}
	measured, err := sim.ZeroLoadLatency(sim.Config{
		Topo: tp, Routing: r, NumVCs: 4, BufDepth: 8,
		RouterDelay: 2, PacketLen: 4, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(measured-zl) / measured; rel > 0.15 {
		t.Errorf("analytic %v vs simulated %v: %.0f%% apart", zl, measured, 100*rel)
	}
}

func TestChannelLoadsConservation(t *testing.T) {
	m := model(t)(topo.NewMesh(4, 4))
	loads, err := m.ChannelLoads()
	if err != nil {
		t.Fatal(err)
	}
	// Total channel load equals injection rate times average hops:
	// sum over channels of load = N * 1 * avgHops / ... with rate 1
	// per node: sum = N * avgHops * (1 flit each crosses hops links).
	var total float64
	for _, v := range loads {
		total += v
	}
	want := float64(m.Topo.NumTiles()) * m.Routing.AvgHops()
	if math.Abs(total-want)/want > 1e-9 {
		t.Errorf("total load %v, want N*avgHops = %v", total, want)
	}
	// Loads only on existing channels.
	for k := range loads {
		a, b := m.Topo.CoordOf(k[0]), m.Topo.CoordOf(k[1])
		if !m.Topo.HasLink(a, b) {
			t.Fatalf("load on missing link %v-%v", a, b)
		}
	}
}

func TestSaturationBoundExceedsSimulated(t *testing.T) {
	// The channel-load bound is an upper bound: the simulator can
	// never beat it, and for a well-behaved IQ router it reaches a
	// decent fraction of it.
	for _, mk := range []func() (*topo.Topology, error){
		func() (*topo.Topology, error) { return topo.NewMesh(4, 4) },
		func() (*topo.Topology, error) { return topo.NewFlattenedButterfly(4, 4) },
	} {
		tp, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		r, err := route.For(tp, route.Auto)
		if err != nil {
			t.Fatal(err)
		}
		m := &Model{Topo: tp, Routing: r, RouterDelay: 2, PacketLen: 4}
		bound, err := m.SaturationBound()
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.SaturationThroughput(sim.Config{
			Topo: tp, Routing: r, NumVCs: 4, BufDepth: 8,
			RouterDelay: 2, PacketLen: 4, Seed: 4,
			Warmup: 500, Measure: 2000, Drain: 6000,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.SaturationRate > bound*1.05 {
			t.Errorf("%s: simulated %.3f exceeds analytical bound %.3f",
				tp.Kind, res.SaturationRate, bound)
		}
		if res.SaturationRate < bound*0.35 {
			t.Errorf("%s: simulated %.3f far below bound %.3f — simulator suspiciously weak",
				tp.Kind, res.SaturationRate, bound)
		}
	}
}

func TestMeshBoundIsBisectionLimited(t *testing.T) {
	// For DOR on a square mesh under uniform traffic the center
	// channels carry N/4... the classic result: bound = 4*B/N where B
	// is the bisection link count. Channel-load and bisection bounds
	// agree for the mesh.
	m := model(t)(topo.NewMesh(8, 8))
	chBound, err := m.SaturationBound()
	if err != nil {
		t.Fatal(err)
	}
	bis := m.BisectionBound()
	if math.Abs(chBound-bis)/bis > 0.05 {
		t.Errorf("channel bound %.3f vs bisection bound %.3f", chBound, bis)
	}
}

func TestMaxChannelLoadIsCenterLink(t *testing.T) {
	m := model(t)(topo.NewMesh(8, 8))
	load, from, to, err := m.MaxChannelLoad()
	if err != nil {
		t.Fatal(err)
	}
	if load <= 0 {
		t.Fatal("no load")
	}
	// Under XY routing the hottest links are horizontal center links.
	a, b := m.Topo.CoordOf(from), m.Topo.CoordOf(to)
	if a.Row != b.Row {
		t.Errorf("hottest link %v-%v not horizontal (XY routing)", a, b)
	}
	if min(a.Col, b.Col) != 3 {
		t.Errorf("hottest link %v-%v not at the bisection", a, b)
	}
}

func TestValidate(t *testing.T) {
	tp, _ := topo.NewMesh(4, 4)
	r, _ := route.For(tp, route.Auto)
	bad := &Model{Topo: tp, Routing: r, RouterDelay: 0, PacketLen: 4}
	if err := bad.Validate(); err == nil {
		t.Error("zero router delay accepted")
	}
	other, _ := topo.NewMesh(5, 5)
	mismatch := &Model{Topo: other, Routing: r, RouterDelay: 1, PacketLen: 1}
	if err := mismatch.Validate(); err == nil {
		t.Error("topology mismatch accepted")
	}
	short := &Model{Topo: tp, Routing: r, RouterDelay: 1, PacketLen: 1, LinkLatency: []int{1}}
	if err := short.Validate(); err == nil {
		t.Error("wrong latency vector length accepted")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestEstimateDeterministic checks that repeated Estimate calls on the
// same model return bit-identical values. The design-space surrogate
// ranks and caches these numbers, so a float summed in a different
// order from one call to the next would reorder ties between runs.
func TestEstimateDeterministic(t *testing.T) {
	space, err := topo.HammingSpace(7, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(space); i += len(space) / 8 {
		m := model(t)(topo.NewSparseHamming(7, 8, space[i]))
		first, err := m.Estimate()
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 30; k++ {
			got, err := m.Estimate()
			if err != nil {
				t.Fatal(err)
			}
			if got != first {
				t.Fatalf("config %d call %d: %+v, first call %+v", i, k, got, first)
			}
		}
	}
}
