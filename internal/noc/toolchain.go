// Package noc ties the repository together into the paper's
// prediction toolchain (Figure 3): architectural parameters and a
// topology go into the physical model (package phys), whose link
// latency estimates feed the cycle-accurate simulator (package sim),
// producing the four metrics of the evaluation — NoC area overhead,
// NoC power, zero-load latency, and saturation throughput.
//
// The package also implements the paper's evaluation artifacts: the
// design-principle compliance table (Table I), the MemPool toolchain
// validation (Table III), the four-scenario topology comparison
// (Figure 6), and the iterative customization strategy of Section V.
package noc

import (
	"fmt"

	"sparsehamming/internal/analytic"
	"sparsehamming/internal/obs"
	"sparsehamming/internal/phys"
	"sparsehamming/internal/route"
	"sparsehamming/internal/sim"
	"sparsehamming/internal/tech"
	"sparsehamming/internal/topo"
)

// Quality selects the simulation effort.
type Quality int

// Quality levels: Quick for tests and interactive exploration, Full
// for the benchmark harness regenerating the paper's figures, and
// Adaptive for the adaptive-control tier — Quick's budgets as hard
// caps, but every saturation probe may return an early verdict, the
// measurement phase stops once the latency confidence interval has
// converged, and bisection probes run speculatively in parallel when
// worker slots are free (see internal/sim's Control). Fixed-budget
// tiers stay bit-identical to previous releases; Adaptive trades
// bit-stability of the pinned artifacts for a >=2x cheaper campaign
// with metrics within a couple percent.
const (
	Quick Quality = iota
	Full
	Adaptive
)

// simWindows returns warmup/measure cycles for a quality level.
func (q Quality) simWindows() (warmup, measure int) {
	if q == Full {
		return 2000, 6000
	}
	return 800, 2500
}

// simControl returns the adaptive controller template for a quality
// level: nil for the fixed-budget tiers, the toolchain's tuned
// monitor configuration for Adaptive. The tuning is deliberately
// conservative — early verdicts must imply the fixed-budget verdicts
// (the adaptive Figure 6 panels deviate from the fixed ones by at
// most about one bisection cell; the parity test pins two percent).
func (q Quality) simControl() *sim.Control {
	if q != Adaptive {
		return nil
	}
	return &sim.Control{
		RelHalfWidth:  0.02,
		WarmTolerance: 0.05,
	}
}

// Prediction is the toolchain output for one topology on one
// architecture: the cost metrics from the physical model and the
// performance metrics from simulation.
type Prediction struct {
	Topology string
	Params   string // e.g. sparse Hamming offset sets

	// Topology properties.
	RouterRadix int
	Diameter    int
	AvgHops     float64
	NumLinks    int

	// Cost (package phys).
	TotalAreaMm2       float64
	AreaOverheadPct    float64
	TotalPowerW        float64
	NoCPowerW          float64
	ChannelUtilization float64
	MaxLinkLatency     int

	// Performance (package sim). SatResolutionPct is the saturation
	// search's measurement resolution — the width of the final
	// bisection bracket in percent of injection capacity; differences
	// between predictions smaller than it are not measured.
	ZeroLoadLatency  float64 // cycles
	SaturationPct    float64 // percent of injection capacity
	SatResolutionPct float64 // percent of injection capacity
	RoutingName      string

	// High-level-model estimates (package analytic), reported
	// alongside the simulated values to expose the accuracy gap the
	// paper motivates its toolchain with: the closed-form zero-load
	// latency and the channel-load saturation bound.
	AnalyticZeroLoad float64
	AnalyticBoundPct float64

	// SimCycles and SimFlitHops total the simulated router-cycles and
	// flit movements behind this prediction (the zero-load reference
	// run plus every saturation probe) — the work figures campaign
	// reports divide by wall-clock time. Zero for cost-only
	// predictions, which never simulate.
	SimCycles   int64
	SimFlitHops int64

	// Probes counts the saturation probes the search consumed;
	// CyclesSaved is the adaptive tier's conservative estimate of
	// simulated cycles avoided by early verdicts (0 on fixed tiers).
	Probes      int
	CyclesSaved int64

	// SatLowerBound marks a saturation search that bottomed out:
	// SaturationPct is then the search resolution, an upper bound on
	// the true rate, not a measured throughput.
	SatLowerBound bool
}

// RouterDelay is the router pipeline depth in cycles assumed by the
// toolchain (route computation, VC allocation, switch allocation,
// traversal). The paper's correction discussion for MemPool implies
// their model charges a minimum of one cycle per router stage; three
// cycles is representative for an input-queued AXI router at 1+ GHz.
// The value itself lives in package tech so the design-space
// surrogate (package dse) shares it without importing the toolchain.
const RouterDelay = tech.RouterDelay

// Predict runs the full toolchain for one topology.
func Predict(arch *tech.Arch, t *topo.Topology, quality Quality) (*Prediction, error) {
	return predictSeeded(arch, t, "", "", quality, 1, nil, nil)
}

// PredictWith runs the toolchain with an explicit routing algorithm
// (used by the routing ablation).
func PredictWith(arch *tech.Arch, t *topo.Topology, alg route.Algorithm, quality Quality) (*Prediction, error) {
	return predictSeeded(arch, t, routingName(alg), "", quality, 1, nil, nil)
}

// predictSeeded runs the toolchain with explicit routing and traffic
// pattern names (route and sim registries; empty for the co-designed
// default and uniform random) and an explicit simulation seed; the
// campaign job evaluator threads all three from the job spec so
// cached results stay reproducible. sched, when non-nil, lets the
// adaptive tier's saturation search borrow spare worker slots for
// speculative probes; span, when non-nil, receives the execution
// trace (both wall-clock/observability only; never part of the
// result).
func predictSeeded(arch *tech.Arch, t *topo.Topology, routing, pattern string, quality Quality, seed int64, sched sim.ProbeScheduler, span *obs.Span) (*Prediction, error) {
	cs := span.Child("cost")
	cost, err := phys.Evaluate(arch, t)
	cs.End()
	if err != nil {
		return nil, err
	}
	r, err := route.ForName(t, routing)
	if err != nil {
		return nil, err
	}
	if arch.Proto.NumVCs < r.NumClasses {
		return nil, fmt.Errorf("noc: %d VCs cannot host the %d VC classes of %s",
			arch.Proto.NumVCs, r.NumClasses, r.Name)
	}
	pat, err := sim.PatternByName(pattern, t.Rows, t.Cols)
	if err != nil {
		return nil, err
	}

	warmup, measure := quality.simWindows()
	satSpan := span.Child("saturation")
	base := sim.Config{
		Topo:        t,
		Routing:     r,
		NumVCs:      arch.Proto.NumVCs,
		BufDepth:    arch.Proto.BufDepthFlits,
		LinkLatency: cost.LinkLatencies,
		RouterDelay: RouterDelay,
		PacketLen:   packetLen(arch),
		Pattern:     pat,
		Seed:        seed,
		Warmup:      warmup,
		Measure:     measure,
		Control:     quality.simControl(),
		Sched:       sched,
		Span:        satSpan,
	}
	sat, err := sim.SaturationThroughput(base)
	satSpan.SetAttr("probes", sat.Probes)
	satSpan.End()
	if err != nil {
		return nil, err
	}

	am := &analytic.Model{
		Topo:        t,
		Routing:     r,
		LinkLatency: cost.LinkLatencies,
		RouterDelay: RouterDelay,
		PacketLen:   base.PacketLen,
	}
	azl, err := am.ZeroLoadLatency()
	if err != nil {
		return nil, err
	}
	abound, err := am.SaturationBound()
	if err != nil {
		return nil, err
	}

	maxLat := 0
	for _, l := range cost.LinkLatencies {
		if l > maxLat {
			maxLat = l
		}
	}
	return &Prediction{
		Topology:           t.Kind,
		RouterRadix:        t.MaxRadix(),
		Diameter:           t.Diameter(),
		AvgHops:            r.AvgHops(),
		NumLinks:           t.NumLinks(),
		TotalAreaMm2:       cost.TotalAreaMm2,
		AreaOverheadPct:    100 * cost.AreaOverhead,
		TotalPowerW:        cost.TotalPowerW,
		NoCPowerW:          cost.NoCPowerW,
		ChannelUtilization: cost.ChannelUtilization,
		MaxLinkLatency:     maxLat,
		ZeroLoadLatency:    sat.ZeroLoadLatency,
		SaturationPct:      100 * sat.SaturationRate,
		SatResolutionPct:   100 * sat.Resolution,
		RoutingName:        r.Name,
		AnalyticZeroLoad:   azl,
		AnalyticBoundPct:   100 * abound,
		SimCycles:          sat.SimCycles,
		SimFlitHops:        sat.SimFlitHops,
		Probes:             sat.Probes,
		CyclesSaved:        sat.CyclesSaved,
		SatLowerBound:      sat.LowerBound,
	}, nil
}

// PredictCostOnly runs only the physical model — the fast inner loop
// of the customization strategy, which needs cost and hop estimates
// without cycle-accurate simulation.
func PredictCostOnly(arch *tech.Arch, t *topo.Topology) (*Prediction, *phys.Result, error) {
	cost, err := phys.Evaluate(arch, t)
	if err != nil {
		return nil, nil, err
	}
	p := &Prediction{
		Topology:           t.Kind,
		RouterRadix:        t.MaxRadix(),
		Diameter:           t.Diameter(),
		AvgHops:            t.AverageHops(),
		NumLinks:           t.NumLinks(),
		TotalAreaMm2:       cost.TotalAreaMm2,
		AreaOverheadPct:    100 * cost.AreaOverhead,
		TotalPowerW:        cost.TotalPowerW,
		NoCPowerW:          cost.NoCPowerW,
		ChannelUtilization: cost.ChannelUtilization,
	}
	return p, cost, nil
}

// packetLen returns the simulated packet length in flits (see
// tech.Arch.PacketLenFlits, shared with the design-space surrogate).
func packetLen(arch *tech.Arch) int {
	return arch.PacketLenFlits()
}
