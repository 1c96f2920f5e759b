// Package sparsehamming's benchmark harness regenerates every table
// and figure of the paper's evaluation:
//
//	BenchmarkTableI      — design-principle compliance (Table I)
//	BenchmarkTableIII    — MemPool toolchain validation (Table III)
//	BenchmarkFigure6a..d — the four topology-comparison panels (Fig. 6)
//	BenchmarkCustomize   — the Section V customization strategy
//	BenchmarkAblation*   — design-choice ablations called out in DESIGN.md
//
// Each benchmark prints the regenerated rows on its first iteration
// and reports the headline numbers as custom metrics. The heavyweight
// figure benchmarks take tens of seconds per iteration; run with
// -benchtime=1x for a single regeneration pass:
//
//	go test -bench=. -benchmem -benchtime=1x
//
// Every benchmark run also appends its measurements (ns/op,
// allocs/op, and — for the simulating benchmarks — simulated cycles
// per second and ns per flit) to the perf trajectory BENCH_sim.json
// (override with $BENCH_SIM_JSON), so the repository accumulates a
// perf history across PRs; see internal/perf.
package sparsehamming

import (
	"flag"
	"fmt"
	"os"
	"testing"

	"sparsehamming/internal/dse"
	"sparsehamming/internal/exp"
	"sparsehamming/internal/noc"
	"sparsehamming/internal/perf"
	"sparsehamming/internal/phys"
	"sparsehamming/internal/route"
	"sparsehamming/internal/sim"
	"sparsehamming/internal/tech"
	"sparsehamming/internal/topo"
)

// benchRec collects one perf entry per benchmark; TestMain flushes it
// to the trajectory file after a -bench run.
var benchRec = perf.NewRecorder()

// TestMain appends the recorded benchmark measurements to the perf
// trajectory once all benchmarks have run. Plain `go test` runs (no
// -bench flag) record nothing and leave the trajectory untouched.
func TestMain(m *testing.M) {
	code := m.Run()
	if f := flag.Lookup("test.bench"); f != nil && f.Value.String() != "" {
		if err := benchRec.Flush(perf.DefaultPath()); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
		}
	}
	os.Exit(code)
}

// BenchmarkTableI regenerates Table I for the 8x8 grid.
func BenchmarkTableI(b *testing.B) {
	arch := tech.Scenario(tech.ScenarioA)
	meter := perf.StartMeter()
	for i := 0; i < b.N; i++ {
		rows, err := noc.TableI(arch)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Println("\nTable I (R = C = 8):")
			fmt.Print(noc.FormatTableI(rows))
		}
	}
	benchRec.Set(meter.Done("TableI", b.N))
}

// tableIIIBench regenerates the MemPool validation at a quality tier
// and records it under the given trajectory name, including the
// campaign's simulation speed (cycles per wall second, ns per flit)
// so the TableIII entries carry the same speed history the Figure6
// and SimCycles entries do.
func tableIIIBench(b *testing.B, quality noc.Quality, bench string) {
	b.Helper()
	meter := perf.StartMeter()
	entry := perf.Entry{Metrics: map[string]float64{}}
	var simCycles, simFlitHops int64
	for i := 0; i < b.N; i++ {
		rows, pred, err := noc.TableIII(quality)
		if err != nil {
			b.Fatal(err)
		}
		simCycles += pred.SimCycles
		simFlitHops += pred.SimFlitHops
		if i == 0 {
			fmt.Printf("\nTable III (MemPool, %s):\n", noc.QualityName(quality))
			fmt.Print(noc.FormatTableIII(rows))
			for _, r := range rows {
				b.ReportMetric(r.ErrorPct, "err%/"+r.Metric[:4])
				entry.Metrics["err%/"+r.Metric[:4]] = r.ErrorPct
			}
		}
	}
	elapsed := meter.Elapsed()
	done := meter.Done(bench, b.N)
	done.Metrics = entry.Metrics
	if simCycles > 0 {
		done.CyclesPerSec = float64(simCycles) / elapsed.Seconds()
		b.ReportMetric(done.CyclesPerSec/1e6, "Msimcy/s")
	}
	if simFlitHops > 0 {
		done.NsPerFlit = float64(elapsed.Nanoseconds()) / float64(simFlitHops)
	}
	benchRec.Set(done)
}

// BenchmarkTableIII regenerates the MemPool validation.
func BenchmarkTableIII(b *testing.B) { tableIIIBench(b, noc.Quick, "TableIII") }

// BenchmarkTableIIIAdaptive regenerates the MemPool validation on the
// adaptive simulation-control tier.
func BenchmarkTableIIIAdaptive(b *testing.B) { tableIIIBench(b, noc.Adaptive, "TableIIIAdaptive") }

// figure6Bench regenerates one scenario panel at a quality tier and
// records the campaign's simulation speed (simulated cycles per wall
// second) plus, on the adaptive tier, the cycles its early verdicts
// avoided.
func figure6Bench(b *testing.B, id tech.ScenarioID, quality noc.Quality, bench string) {
	b.Helper()
	meter := perf.StartMeter()
	metrics := map[string]float64{}
	var simCycles, simFlitHops, cyclesSaved int64
	c0 := sim.Counters()
	for i := 0; i < b.N; i++ {
		panels, stats, err := noc.Figure6Panels([]tech.ScenarioID{id}, quality, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		rows := panels[0]
		simCycles += stats[0].SimCycles
		simFlitHops += stats[0].SimFlitHops
		cyclesSaved += stats[0].CyclesSaved
		if i != 0 {
			continue
		}
		fmt.Printf("\nFigure 6%s (%s):\n", id, noc.QualityName(quality))
		fmt.Print(noc.FormatFigure6(rows))
		for _, r := range rows {
			if r.Topology == "sparse-hamming" {
				b.ReportMetric(r.Pred.SaturationPct, "shg_sat_%")
				b.ReportMetric(r.Pred.ZeroLoadLatency, "shg_zl_cy")
				b.ReportMetric(r.Pred.AreaOverheadPct, "shg_ovh_%")
				metrics["shg_sat_%"] = r.Pred.SaturationPct
				metrics["shg_zl_cy"] = r.Pred.ZeroLoadLatency
				metrics["shg_ovh_%"] = r.Pred.AreaOverheadPct
			}
		}
	}
	elapsed := meter.Elapsed()
	c1 := sim.Counters()
	cyPerSec := float64(simCycles) / elapsed.Seconds()
	b.ReportMetric(cyPerSec/1e6, "Msimcy/s")
	entry := meter.Done(bench, b.N)
	entry.CyclesPerSec = cyPerSec
	if simFlitHops > 0 {
		entry.NsPerFlit = float64(elapsed.Nanoseconds()) / float64(simFlitHops)
	}
	if cyclesSaved > 0 {
		metrics["cycles_saved"] = float64(cyclesSaved) / float64(b.N)
	}
	// Build amortization of shared Shapes: run instantiations per
	// full topology build. 1.0 would mean every run paid a build; the
	// saturation searches, which instantiate their zero-load reference
	// and every probe from one Shape, push it well above 2.
	if shapes := c1.ShapeBuilds - c0.ShapeBuilds; shapes > 0 {
		ratio := float64(c1.SimBuilds-c0.SimBuilds) / float64(shapes)
		b.ReportMetric(ratio, "build_x")
		metrics["build_reduction_x"] = ratio
	}
	entry.Metrics = metrics
	benchRec.Set(entry)
}

// BenchmarkFigure6a: 64 tiles, 35 MGE, 1 core each.
func BenchmarkFigure6a(b *testing.B) { figure6Bench(b, tech.ScenarioA, noc.Quick, "Figure6a") }

// BenchmarkFigure6aAdaptive: Figure 6a on the adaptive
// simulation-control tier — same panel, early-verdict probes. The
// trajectory records it separately so the fixed tier's history stays
// comparable.
func BenchmarkFigure6aAdaptive(b *testing.B) {
	figure6Bench(b, tech.ScenarioA, noc.Adaptive, "Figure6aAdaptive")
}

// BenchmarkFigure6b: 64 tiles, 70 MGE, 2 cores each.
func BenchmarkFigure6b(b *testing.B) { figure6Bench(b, tech.ScenarioB, noc.Quick, "Figure6b") }

// BenchmarkFigure6c: 128 tiles, 35 MGE, 1 core each (SlimNoC applies).
func BenchmarkFigure6c(b *testing.B) { figure6Bench(b, tech.ScenarioC, noc.Quick, "Figure6c") }

// BenchmarkFigure6d: 128 tiles, 70 MGE, 2 cores each (SlimNoC applies).
func BenchmarkFigure6d(b *testing.B) { figure6Bench(b, tech.ScenarioD, noc.Quick, "Figure6d") }

// BenchmarkCustomize runs the Section V strategy on scenario a.
func BenchmarkCustomize(b *testing.B) {
	arch := tech.Scenario(tech.ScenarioA)
	for i := 0; i < b.N; i++ {
		res, err := noc.Customize(arch, 40, noc.Quick)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Printf("\nCustomization (scenario a, 40%% budget): %s\n", res.Params)
			b.ReportMetric(res.Final.AreaOverheadPct, "ovh_%")
			b.ReportMetric(res.Final.SaturationPct, "sat_%")
		}
	}
}

// BenchmarkAblationRouting quantifies design principle 4's co-design
// claim: the sparse Hamming graph with monotone dimension-order
// routing versus generic hop-minimal tables, and the hypercube with
// its tuned e-cube routing versus the same generic tables.
func BenchmarkAblationRouting(b *testing.B) {
	arch := tech.Scenario(tech.ScenarioA)
	shg, err := topo.NewSparseHamming(8, 8, noc.PaperSHGParams(tech.ScenarioA))
	if err != nil {
		b.Fatal(err)
	}
	hc, err := topo.NewHypercube(8, 8)
	if err != nil {
		b.Fatal(err)
	}
	cases := []struct {
		name string
		t    *topo.Topology
		alg  route.Algorithm
	}{
		{"shg/monotone-dor", shg, route.MonotoneDOR},
		{"shg/hop-minimal", shg, route.HopMinimal},
		{"hypercube/e-cube", hc, route.ECube},
		{"hypercube/hop-minimal", hc, route.HopMinimal},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p, err := noc.PredictWith(arch, c.t, c.alg, noc.Quick)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(p.SaturationPct, "sat_%")
					b.ReportMetric(p.ZeroLoadLatency, "zl_cy")
				}
			}
		})
	}
}

// BenchmarkAblationSpacing quantifies the uniform-link-density
// criterion: the channel-area utilization of a uniform topology
// (torus) versus a non-uniform one (SlimNoC) on the same grid, and
// the resulting area overheads (cost model only, no simulation).
func BenchmarkAblationSpacing(b *testing.B) {
	arch := tech.Scenario(tech.ScenarioC) // 8x16, SlimNoC applies
	cases := []struct {
		name string
		make func() (*topo.Topology, error)
	}{
		{"torus", func() (*topo.Topology, error) { return topo.NewTorus(8, 16) }},
		{"slimnoc", func() (*topo.Topology, error) { return topo.NewSlimNoC(8, 16) }},
		{"flattened-butterfly", func() (*topo.Topology, error) { return topo.NewFlattenedButterfly(8, 16) }},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			t, err := c.make()
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				res, err := phys.Evaluate(arch, t)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(res.ChannelUtilization, "util")
					b.ReportMetric(100*res.AreaOverhead, "ovh_%")
				}
			}
		})
	}
}

// BenchmarkAblationModels contrasts the three model tiers the paper
// discusses: the closed-form high-level model (instant, optimistic),
// this repository's toolchain (fast, floorplan-aware), and — as the
// stand-in for ground truth — a long full-quality simulation. Metrics
// report each tier's saturation estimate for the scenario-a SHG.
func BenchmarkAblationModels(b *testing.B) {
	arch := tech.Scenario(tech.ScenarioA)
	shg, err := topo.NewSparseHamming(8, 8, noc.PaperSHGParams(tech.ScenarioA))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		pred, err := noc.Predict(arch, shg, noc.Full)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(pred.AnalyticBoundPct, "bound_%")
			b.ReportMetric(pred.SaturationPct, "sim_%")
			b.ReportMetric(pred.AnalyticZeroLoad, "closed_zl")
			b.ReportMetric(pred.ZeroLoadLatency, "sim_zl")
		}
	}
}

// BenchmarkAblationBuffers sweeps the router's virtual-channel count
// and buffer depth on the scenario-a SHG — the microarchitectural
// knobs the paper fixes at 8 VCs x 32 flits.
func BenchmarkAblationBuffers(b *testing.B) {
	arch := tech.Scenario(tech.ScenarioA)
	shg, err := topo.NewSparseHamming(8, 8, noc.PaperSHGParams(tech.ScenarioA))
	if err != nil {
		b.Fatal(err)
	}
	cost, err := phys.Evaluate(arch, shg)
	if err != nil {
		b.Fatal(err)
	}
	rt, err := route.For(shg, route.Auto)
	if err != nil {
		b.Fatal(err)
	}
	cases := []struct {
		name     string
		vcs, buf int
	}{
		{"2vc-8flit", 2, 8},
		{"4vc-16flit", 4, 16},
		{"8vc-32flit", 8, 32},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := sim.SaturationThroughput(sim.Config{
					Topo: shg, Routing: rt, NumVCs: c.vcs, BufDepth: c.buf,
					LinkLatency: cost.LinkLatencies, RouterDelay: noc.RouterDelay,
					PacketLen: 4, Seed: 1, Warmup: 800, Measure: 2500,
				})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(100*res.SaturationRate, "sat_%")
				}
			}
		})
	}
}

// BenchmarkDSESurrogate runs the two-stage surrogate-guided
// exploration of the 6x6 sparse Hamming space (256 configurations)
// with exhaustive validation: every configuration is simulated for
// ground truth, so the trajectory records both the savings factor the
// band selection earns in production (dse_sims_saved_x, configurations
// per band member) and the price of those savings (frontier_recall,
// which the perf floor pins at 1.0 — the band must never lose a
// ground-truth frontier point). Simulations run 3 seed replicates and
// frontiers are compared at the saturation search's measurement
// resolution, so the recall the floor pins is against design signal,
// not the per-seed quantization of the bisection search; the 0.5%
// band slack absorbs the surrogate's worst observed misranking.
func BenchmarkDSESurrogate(b *testing.B) {
	arch := tech.Scenario(tech.ScenarioA)
	arch.Rows, arch.Cols = 6, 6
	runner := noc.NewRunner(0, exp.NewCache())
	meter := perf.StartMeter()
	metrics := map[string]float64{}
	for i := 0; i < b.N; i++ {
		ex, err := dse.ExploreSurrogate(arch, dse.Options{
			MaxConfigs: 1 << 10,
			SlackPct:   0.5,
			Replicates: 3,
			Validate:   true,
		}, runner)
		if err != nil {
			b.Fatal(err)
		}
		if i != 0 {
			continue
		}
		f := ex.Fidelity
		fmt.Printf("\nSurrogate DSE (scenario a, 6x6): %d configs, band %d (slack %.1f%%, %d replicates), "+
			"%.1fx sims saved, frontier recall %.0f%%, rank corr %.3f\n",
			f.Configs, f.Band, ex.SlackPct, ex.Replicates, f.SimsSavedX, 100*f.FrontierRecall, f.RankCorr)
		b.ReportMetric(f.SimsSavedX, "saved_x")
		b.ReportMetric(100*f.FrontierRecall, "recall_%")
		metrics["dse_sims_saved_x"] = f.SimsSavedX
		metrics["frontier_recall"] = f.FrontierRecall
		metrics["dse_band"] = float64(f.Band)
		metrics["dse_rank_corr"] = f.RankCorr
		metrics["dse_wall_ms"] = float64(ex.Report.Wall.Milliseconds())
	}
	entry := meter.Done("DSESurrogate", b.N)
	entry.Metrics = metrics
	benchRec.Set(entry)
}

// BenchmarkPhysEvaluate measures the cost model's speed — the paper's
// pitch is that approximate floorplanning runs at high-level-model
// speed while capturing link routing.
func BenchmarkPhysEvaluate(b *testing.B) {
	arch := tech.Scenario(tech.ScenarioA)
	shg, err := topo.NewSparseHamming(8, 8, noc.PaperSHGParams(tech.ScenarioA))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := phys.Evaluate(arch, shg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRoutingConstruction measures routing-table construction.
func BenchmarkRoutingConstruction(b *testing.B) {
	shg, err := topo.NewSparseHamming(8, 16, noc.PaperSHGParams(tech.ScenarioC))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := route.For(shg, route.Auto); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimCycles measures raw simulation speed in router-cycles
// per second on a loaded 8x8 mesh (serial, single simulator).
func BenchmarkSimCycles(b *testing.B) {
	m, err := topo.NewMesh(8, 8)
	if err != nil {
		b.Fatal(err)
	}
	r, err := route.For(m, route.Auto)
	if err != nil {
		b.Fatal(err)
	}
	var cycles, flitHops int64
	b.ResetTimer()
	meter := perf.StartMeter()
	for i := 0; i < b.N; i++ {
		st, err := sim.RunConfig(sim.Config{
			Topo: m, Routing: r, NumVCs: 8, BufDepth: 32,
			RouterDelay: 3, PacketLen: 4, InjectionRate: 0.3,
			Seed: int64(i), Warmup: 500, Measure: 2000, Drain: 4000,
		})
		if err != nil {
			b.Fatal(err)
		}
		if st.Deadlocked {
			b.Fatal("deadlock")
		}
		cycles += st.Cycles
		flitHops += st.FlitHops
	}
	elapsed := meter.Elapsed()
	cyPerSec := float64(cycles) / elapsed.Seconds()
	nsPerFlit := float64(elapsed.Nanoseconds()) / float64(flitHops)
	b.ReportMetric(cyPerSec/1e6, "Msimcy/s")
	b.ReportMetric(nsPerFlit, "ns/flit")
	entry := meter.Done("SimCycles", b.N)
	entry.CyclesPerSec = cyPerSec
	entry.NsPerFlit = nsPerFlit
	benchRec.Set(entry)
}
