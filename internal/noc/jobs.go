package noc

// This file wires the prediction toolchain into the experiment-
// campaign subsystem (package exp): EvalJob executes one serialized
// job spec, NewRunner builds a parallel runner around it, and the
// conversion helpers map between Prediction and the serializable
// exp.Result.

import (
	"fmt"

	"sparsehamming/internal/dse"
	"sparsehamming/internal/exp"
	"sparsehamming/internal/obs"
	"sparsehamming/internal/phys"
	"sparsehamming/internal/route"
	"sparsehamming/internal/sim"
	"sparsehamming/internal/spec"
	"sparsehamming/internal/tech"
	"sparsehamming/internal/topo"
)

// QualityName serializes a quality level for job specs.
func QualityName(q Quality) string {
	switch q {
	case Full:
		return "full"
	case Adaptive:
		return "adaptive"
	default:
		return "quick"
	}
}

// QualityByName parses a quality level; "" means Quick.
func QualityByName(name string) (Quality, error) {
	switch name {
	case "", "quick":
		return Quick, nil
	case "full":
		return Full, nil
	case "adaptive":
		return Adaptive, nil
	default:
		return Quick, fmt.Errorf("noc: unknown quality %q", name)
	}
}

// ArchForJob resolves a job's architecture: the scenario preset with
// the grid and arch overrides applied (spec.ArchForJob, shared with
// the dse evaluator so both toolchains resolve specs identically).
func ArchForJob(j exp.Job) (*tech.Arch, error) {
	return spec.ArchForJob(j)
}

// NewRunner returns a campaign runner executing toolchain jobs on
// workers goroutines (0 means all cores) with the optional cache.
// The runner's shared evaluation-slot pool doubles as the probe
// scheduler for adaptive-tier jobs: when slots sit idle (a campaign
// tail narrower than the pool), a job's saturation search borrows
// them for speculative bisection probes, so the pool stays busy
// without ever oversubscribing the machine. For a runner with
// metrics, traces, and logging attached, see NewObservedRunner.
func NewRunner(workers int, cache *exp.Cache) *exp.Runner {
	return NewObservedRunner(workers, cache, nil)
}

// CampaignGroupKey reports no group for any job: every computed job
// takes the runner's per-job Eval path.
//
// Deprecated: campaign job grouping is gone; CampaignGroupKey always
// returns ("", false) and is kept only for existing callers.
func CampaignGroupKey(exp.Job) (string, bool) { return "", false }

// runnerSched adapts the campaign runner's shared slot pool to the
// simulator's ProbeScheduler interface.
type runnerSched struct{ r *exp.Runner }

// TryGo implements sim.ProbeScheduler over Runner.TryAcquire.
func (s runnerSched) TryGo(fn func()) bool {
	if !s.r.TryAcquire() {
		return false
	}
	go func() {
		defer s.r.Release()
		fn()
	}()
	return true
}

// EvalJob executes one experiment job with the prediction toolchain.
// It is pure in the job spec — the architecture, topology, routing,
// traffic, and seed all come from the spec — which is what makes
// parallel campaigns deterministic and cached results sound.
func EvalJob(j exp.Job) (*exp.Result, error) {
	return evalJobSched(j, nil, nil)
}

// evalJobSched is EvalJob with an optional probe scheduler for
// adaptive-tier speculative probes (NewRunner wires the runner's slot
// pool; a nil scheduler runs every probe sequentially) and an
// optional trace span (NewObservedRunner records one tree per job).
// Neither changes results — only wall-clock and observability — so
// all entry points produce identical, cache-sound outputs.
func evalJobSched(j exp.Job, sched sim.ProbeScheduler, span *obs.Span) (*exp.Result, error) {
	if j.Mode == exp.ModeSurrogate {
		// The surrogate evaluator is simulation-free and shared with the
		// design-space explorer (package dse owns it); delegating keeps
		// the two toolchains' surrogate results trivially identical, so
		// they can share one cache file.
		cs := span.Child("cost")
		res, err := dse.EvalSurrogateJob(j)
		cs.End()
		return res, err
	}
	arch, err := ArchForJob(j)
	if err != nil {
		return nil, err
	}
	t, err := topo.ByName(j.Topo, arch.Rows, arch.Cols, j.SR, j.SC)
	if err != nil {
		return nil, err
	}
	quality, err := QualityByName(j.Quality)
	if err != nil {
		return nil, err
	}
	switch j.Mode {
	case exp.ModeCost:
		cs := span.Child("cost")
		pred, _, err := PredictCostOnly(arch, t)
		cs.End()
		if err != nil {
			return nil, err
		}
		return resultFromPrediction(pred, j), nil
	case exp.ModePredict:
		pred, err := predictSeeded(arch, t, j.Routing, j.Pattern, quality, j.EffectiveSeed(), sched, span)
		if err != nil {
			return nil, err
		}
		return resultFromPrediction(pred, j), nil
	case exp.ModeLoad:
		return evalLoadPoint(arch, t, quality, j, span)
	default:
		return nil, fmt.Errorf("noc: unknown job mode %q", j.Mode)
	}
}

// evalLoadPoint simulates a single offered-load point under the
// job's traffic pattern.
func evalLoadPoint(arch *tech.Arch, t *topo.Topology, quality Quality, j exp.Job, span *obs.Span) (*exp.Result, error) {
	cs := span.Child("cost")
	cost, err := phys.Evaluate(arch, t)
	cs.End()
	if err != nil {
		return nil, err
	}
	rt, err := route.ForName(t, j.Routing)
	if err != nil {
		return nil, err
	}
	pat, err := sim.PatternByName(j.Pattern, arch.Rows, arch.Cols)
	if err != nil {
		return nil, err
	}
	warmup, measure := quality.simWindows()
	curve, err := sim.LoadLatencyCurve(sim.Config{
		Topo: t, Routing: rt,
		NumVCs: arch.Proto.NumVCs, BufDepth: arch.Proto.BufDepthFlits,
		LinkLatency: cost.LinkLatencies, RouterDelay: RouterDelay,
		PacketLen: packetLen(arch), Pattern: pat, Seed: j.EffectiveSeed(),
		Warmup: warmup, Measure: measure, Span: span,
	}, []float64{j.Load})
	if err != nil {
		return nil, err
	}
	st := curve[0]
	return &exp.Result{
		Topology:          t.Kind,
		Params:            paramsString(j),
		RouterRadix:       t.MaxRadix(),
		Diameter:          t.Diameter(),
		AvgHops:           rt.AvgHops(),
		NumLinks:          t.NumLinks(),
		RoutingName:       rt.Name,
		OfferedRate:       st.OfferedRate,
		AcceptedRate:      st.AcceptedRate,
		AvgPacketLatency:  st.AvgPacketLatency,
		P99PacketLatency:  st.P99PacketLatency,
		DeliveredFraction: st.DeliveredFraction(),
		SimCycles:         st.Cycles,
		SimFlitHops:       st.FlitHops,
	}, nil
}

// paramsString renders a job's sparse Hamming offsets the way
// Prediction.Params does. Other topology kinds read SR differently
// (ruche's factor) or ignore it, so they get no params string.
func paramsString(j exp.Job) string {
	if j.Topo != "sparse-hamming" || (len(j.SR) == 0 && len(j.SC) == 0) {
		return ""
	}
	return topo.HammingParams{SR: j.SR, SC: j.SC}.String()
}

// resultFromPrediction serializes a Prediction.
func resultFromPrediction(p *Prediction, j exp.Job) *exp.Result {
	params := p.Params
	if params == "" {
		params = paramsString(j)
	}
	return &exp.Result{
		Topology:                p.Topology,
		Params:                  params,
		RouterRadix:             p.RouterRadix,
		Diameter:                p.Diameter,
		AvgHops:                 p.AvgHops,
		NumLinks:                p.NumLinks,
		TotalAreaMm2:            p.TotalAreaMm2,
		AreaOverheadPct:         p.AreaOverheadPct,
		TotalPowerW:             p.TotalPowerW,
		NoCPowerW:               p.NoCPowerW,
		ChannelUtilization:      p.ChannelUtilization,
		MaxLinkLatency:          p.MaxLinkLatency,
		ZeroLoadLatency:         p.ZeroLoadLatency,
		SaturationPct:           p.SaturationPct,
		SaturationResolutionPct: p.SatResolutionPct,
		RoutingName:             p.RoutingName,
		AnalyticZeroLoad:        p.AnalyticZeroLoad,
		AnalyticBoundPct:        p.AnalyticBoundPct,
		SimCycles:               p.SimCycles,
		SimFlitHops:             p.SimFlitHops,
		SimProbes:               p.Probes,
		SimCyclesSaved:          p.CyclesSaved,
		SaturationLowerBound:    p.SatLowerBound,
	}
}

// PredictionFromResult deserializes a campaign result back into the
// toolchain's Prediction, for the formatters.
func PredictionFromResult(r *exp.Result) *Prediction {
	return &Prediction{
		Topology:           r.Topology,
		Params:             r.Params,
		RouterRadix:        r.RouterRadix,
		Diameter:           r.Diameter,
		AvgHops:            r.AvgHops,
		NumLinks:           r.NumLinks,
		TotalAreaMm2:       r.TotalAreaMm2,
		AreaOverheadPct:    r.AreaOverheadPct,
		TotalPowerW:        r.TotalPowerW,
		NoCPowerW:          r.NoCPowerW,
		ChannelUtilization: r.ChannelUtilization,
		MaxLinkLatency:     r.MaxLinkLatency,
		ZeroLoadLatency:    r.ZeroLoadLatency,
		SaturationPct:      r.SaturationPct,
		SatResolutionPct:   r.SaturationResolutionPct,
		RoutingName:        r.RoutingName,
		AnalyticZeroLoad:   r.AnalyticZeroLoad,
		AnalyticBoundPct:   r.AnalyticBoundPct,
		SimCycles:          r.SimCycles,
		SimFlitHops:        r.SimFlitHops,
		Probes:             r.SimProbes,
		CyclesSaved:        r.SimCyclesSaved,
		SatLowerBound:      r.SaturationLowerBound,
	}
}

// routingName serializes a routing algorithm for job specs, mapping
// Auto onto the empty default.
func routingName(alg route.Algorithm) string {
	if alg == route.Auto {
		return ""
	}
	return alg.String()
}
