package sim

// Per-stage micro-benchmarks of the simulator pipeline. The stage
// benchmarks drive a live simulation (every phase runs each cycle so
// the network state stays realistic) but keep the timer running only
// around the stage under measurement; the step benchmarks time whole
// cycles in the regimes the toolchain spends its time in.
//
// Run with:
//
//	go test ./internal/sim -bench=. -benchmem

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"sparsehamming/internal/perf"
	"sparsehamming/internal/route"
	"sparsehamming/internal/topo"
)

// benchRec collects the engine benchmark entries; TestMain flushes
// them to the repository's perf trajectory after a -bench run so
// `cmd/shperf -check` guards them.
var benchRec = perf.NewRecorder()

// TestMain appends recorded measurements to the perf trajectory. The
// default trajectory path is relative to the repository root; package
// tests run in the package directory, so rebase it (an explicit
// $BENCH_SIM_JSON is used as-is).
func TestMain(m *testing.M) {
	code := m.Run()
	if f := flag.Lookup("test.bench"); f != nil && f.Value.String() != "" {
		path := perf.DefaultPath()
		if os.Getenv(perf.DefaultPathEnv) == "" {
			path = filepath.Join("..", "..", path)
		}
		if err := benchRec.Flush(path); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
		}
	}
	os.Exit(code)
}

// benchSim builds an 8x8 mesh simulator warmed up to steady state at
// the given injection rate. ref selects the retained array-of-structs
// reference engine instead of the SoA default.
func benchSim(b *testing.B, rate float64, ref bool) *Simulator {
	b.Helper()
	cfg := Config{
		Topo: nil, Routing: nil, NumVCs: 8, BufDepth: 32,
		RouterDelay: 3, PacketLen: 4, InjectionRate: rate,
		Seed: 1,
		// A far-off measurement window: the benchmarks run in the
		// warmup regime so no measurement bookkeeping triggers.
		Warmup: 1 << 30, Measure: 1, Drain: 1,
	}
	m, err := topo.NewMesh(8, 8)
	if err != nil {
		b.Fatal(err)
	}
	r, err := route.For(m, route.Auto)
	if err != nil {
		b.Fatal(err)
	}
	cfg.Topo, cfg.Routing = m, r
	cfg.reference = ref
	s, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		s.step(true)
	}
	return s
}

// stepBench times full cycles at one injection rate.
func stepBench(b *testing.B, rate float64, ref bool) {
	b.Helper()
	s := benchSim(b, rate, ref)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.step(true)
	}
}

// BenchmarkStepIdle: cycle cost of an empty network (no injection) —
// the floor every simulated cycle pays.
func BenchmarkStepIdle(b *testing.B) { stepBench(b, 0, false) }

// BenchmarkStepZeroLoad: the near-zero-load regime of the zero-load
// latency reference runs (0.5% injection).
func BenchmarkStepZeroLoad(b *testing.B) { stepBench(b, 0.005, false) }

// BenchmarkStepLoaded: a 30%-loaded network, representative of
// mid-curve saturation probes.
func BenchmarkStepLoaded(b *testing.B) { stepBench(b, 0.3, false) }

// BenchmarkStepSaturated: past saturation, every router busy — the
// most expensive cycles of a saturation search.
func BenchmarkStepSaturated(b *testing.B) { stepBench(b, 0.9, false) }

// Reference-engine counterparts of the step benchmarks: the same
// regimes on the retained array-of-structs layout, so the SoA win is
// visible per regime in one -bench=BenchmarkStep run.
func BenchmarkStepIdleRef(b *testing.B)      { stepBench(b, 0, true) }
func BenchmarkStepZeroLoadRef(b *testing.B)  { stepBench(b, 0.005, true) }
func BenchmarkStepLoadedRef(b *testing.B)    { stepBench(b, 0.3, true) }
func BenchmarkStepSaturatedRef(b *testing.B) { stepBench(b, 0.9, true) }

// stageBench runs full cycles but times only the selected stage.
func stageBench(b *testing.B, rate float64, stage func(s *Simulator, t int64)) {
	b.Helper()
	s := benchSim(b, rate, false)
	b.ResetTimer()
	b.StopTimer()
	for i := 0; i < b.N; i++ {
		t := s.now
		s.deliverSoA(t)
		s.generate(t)
		s.injectPhaseSoA(t)
		b.StartTimer()
		stage(s, t)
		b.StopTimer()
		s.now++
	}
}

// BenchmarkStageVCAlloc times the VC-allocation kernel over the
// occupied routers of a loaded network; switch allocation still runs
// (off the clock) so the network keeps moving.
func BenchmarkStageVCAlloc(b *testing.B) {
	stageBench(b, 0.3, func(s *Simulator, t int64) {
		s.vcAllocPhaseSoA(t)
		b.StopTimer()
		s.switchPhaseSoA(t)
	})
}

// BenchmarkStageSwitchAlloc times the switch-allocation/traversal
// kernel over the occupied routers of a loaded network; VC allocation
// runs off the clock first.
func BenchmarkStageSwitchAlloc(b *testing.B) {
	stageBench(b, 0.3, func(s *Simulator, t int64) {
		b.StopTimer()
		s.vcAllocPhaseSoA(t)
		b.StartTimer()
		s.switchPhaseSoA(t)
	})
}

// BenchmarkStageDeliver times link flit/credit delivery into the flat
// VC lanes. It inverts stageBench's pattern: deliver is timed, the
// rest runs off-timer.
func BenchmarkStageDeliver(b *testing.B) {
	s := benchSim(b, 0.3, false)
	b.ResetTimer()
	b.StopTimer()
	for i := 0; i < b.N; i++ {
		t := s.now
		b.StartTimer()
		s.deliverSoA(t)
		b.StopTimer()
		s.generate(t)
		s.injectPhaseSoA(t)
		s.vcAllocPhaseSoA(t)
		s.switchPhaseSoA(t)
		s.now++
	}
}

// BenchmarkStageGenerate times traffic generation plus source-queue
// injection (phase 2, including the occupancy-bitmap inject scan).
func BenchmarkStageGenerate(b *testing.B) {
	s := benchSim(b, 0.3, false)
	b.ResetTimer()
	b.StopTimer()
	for i := 0; i < b.N; i++ {
		t := s.now
		s.deliverSoA(t)
		b.StartTimer()
		s.generate(t)
		s.injectPhaseSoA(t)
		b.StopTimer()
		s.vcAllocPhaseSoA(t)
		s.switchPhaseSoA(t)
		s.now++
	}
}

// BenchmarkEngineSoASpeedup runs the workload shape of one saturation
// search iteration — the near-idle zero-load reference run plus a
// mid-curve 30%-load probe on the 8x8 mesh — on the SoA engine and on
// the retained reference engine, verifies each leg's results are
// bit-identical, and records the engines' time ratio as the
// soa_speedup_x metric that `shperf -check` floors at 1.5. Both
// regimes are weighted the way real campaigns pay for them: the
// zero-load leg is long and mostly idle (where the occupancy bitmap
// wins), the probe leg is short and busy (where the dense lanes and
// bit-scan allocators win).
func BenchmarkEngineSoASpeedup(b *testing.B) {
	probe := benchLadderConfig(b)
	probe.InjectionRate = 0.3
	anchor := benchLadderConfig(b)
	anchor.InjectionRate = 0.005
	anchor.Warmup, anchor.Measure, anchor.Drain = 1000, 20000, 30000
	legs := []Config{anchor, probe}

	meter := perf.StartMeter()
	var soaNs, refNs int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, leg := range legs {
			leg.Seed = int64(i + 1)

			leg.reference = false
			soaStart := time.Now()
			soa, err := New(leg)
			if err != nil {
				b.Fatal(err)
			}
			soaStats := soa.Run()
			soaNs += time.Since(soaStart).Nanoseconds()

			leg.reference = true
			refStart := time.Now()
			ref, err := New(leg)
			if err != nil {
				b.Fatal(err)
			}
			refStats := ref.Run()
			refNs += time.Since(refStart).Nanoseconds()

			if soaStats != refStats {
				b.Fatalf("SoA and reference engines diverged at rate %v:\nsoa %+v\nref %+v",
					leg.InjectionRate, soaStats, refStats)
			}
		}
	}
	speedup := float64(refNs) / float64(soaNs)
	b.ReportMetric(speedup, "soa_speedup_x")
	entry := meter.Done("EngineSoASpeedup", b.N)
	entry.Metrics = map[string]float64{"soa_speedup_x": speedup}
	benchRec.Set(entry)
}

// benchLadderConfig returns the 8x8-mesh base configuration the
// shape and ladder benchmarks share.
func benchLadderConfig(b *testing.B) Config {
	b.Helper()
	m, err := topo.NewMesh(8, 8)
	if err != nil {
		b.Fatal(err)
	}
	r, err := route.For(m, route.Auto)
	if err != nil {
		b.Fatal(err)
	}
	return Config{
		Topo: m, Routing: r, NumVCs: 8, BufDepth: 32,
		RouterDelay: 3, PacketLen: 4,
		Seed: 1, Warmup: 300, Measure: 800, Drain: 2400,
	}
}

// benchLadderRates is the 8-point load ladder BenchmarkSequentialLadder
// sweeps — the shape of a Figure 6 load sweep.
var benchLadderRates = []float64{0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.7, 0.9}

// BenchmarkShapeBuild times the shared build product alone: channel
// wiring plus the pathPorts LUT — the per-topology cost a saturation
// search or load curve pays once.
func BenchmarkShapeBuild(b *testing.B) {
	cfg := benchLadderConfig(b)
	meter := perf.StartMeter()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewShape(cfg); err != nil {
			b.Fatal(err)
		}
	}
	benchRec.Set(meter.Done("ShapeBuild", b.N))
}

// BenchmarkInstantiateFromShape times the per-run remainder: the
// mutable VC lanes, credits, and arbiter state every run pays.
// ShapeBuild ns/op over this ns/op is the per-run build saving of
// sharing a shape.
func BenchmarkInstantiateFromShape(b *testing.B) {
	cfg := benchLadderConfig(b)
	sh, err := NewShape(cfg)
	if err != nil {
		b.Fatal(err)
	}
	meter := perf.StartMeter()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sh.Instantiate(cfg); err != nil {
			b.Fatal(err)
		}
	}
	benchRec.Set(meter.Done("InstantiateFromShape", b.N))
}

// BenchmarkSequentialLadder runs the 8-point ladder with one full
// build per point.
func BenchmarkSequentialLadder(b *testing.B) {
	cfg := benchLadderConfig(b)
	meter := perf.StartMeter()
	var cycles int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range benchLadderRates {
			c := cfg
			c.InjectionRate = r
			c.Seed = int64(i + 1)
			st, err := RunConfig(c)
			if err != nil {
				b.Fatal(err)
			}
			cycles += st.Cycles
		}
	}
	elapsed := meter.Elapsed()
	cyPerSec := float64(cycles) / elapsed.Seconds()
	b.ReportMetric(cyPerSec/1e6, "Msimcy/s")
	entry := meter.Done("SequentialLadder", b.N)
	entry.CyclesPerSec = cyPerSec
	benchRec.Set(entry)
}

// BenchmarkRun measures a complete short run end to end, the unit of
// work campaigns parallelize over.
func BenchmarkRun(b *testing.B) {
	m, err := topo.NewMesh(8, 8)
	if err != nil {
		b.Fatal(err)
	}
	r, err := route.For(m, route.Auto)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := RunConfig(Config{
			Topo: m, Routing: r, NumVCs: 8, BufDepth: 32,
			RouterDelay: 3, PacketLen: 4, InjectionRate: 0.3,
			Seed: int64(i + 1), Warmup: 500, Measure: 2000, Drain: 4000,
		})
		if err != nil {
			b.Fatal(err)
		}
		if st.Deadlocked {
			b.Fatal("deadlock")
		}
	}
}
