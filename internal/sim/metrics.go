package sim

// This file implements the two performance estimates the toolchain
// reports (Figure 3): zero-load latency and saturation throughput.
//
// The saturation search runs in one of two modes. With a nil
// Config.Control it is the classic fixed-budget binary search —
// every probe burns its full Warmup+Measure(+clamped Drain) schedule
// and the probes run strictly one after another — kept bit-identical
// across releases because the pinned evaluation artifacts depend on
// it. With Config.Control set, the adaptive mode applies early-verdict
// monitors to every probe (saturated probes stop in a small fraction
// of their budget, stable probes stop once their latency confidence
// interval converges) and, when Config.Sched provides spare worker
// slots, speculatively issues the next bisection probes for both
// possible outcomes of the one in flight, canceling the probe the
// verdict makes irrelevant. Speculation is wall-clock-only: the
// probes whose verdicts the search consumes are exactly the
// sequential bisection sequence, so the result — including its
// SimCycles accounting — is deterministic whether or not any
// speculation happened.

import "fmt"

// ZeroLoadLatency measures the average packet latency at a very low
// injection rate (0.5% of capacity), where queueing is negligible and
// the latency reflects hop counts, router pipelines, link pipelining,
// and serialization only.
func ZeroLoadLatency(cfg Config) (float64, error) {
	st, err := zeroLoad(nil, cfg)
	if err != nil {
		return 0, err
	}
	return st.AvgPacketLatency, nil
}

// runShaped builds and runs one configuration, instantiating from the
// shared shape when one is supplied (nil falls back to a full build).
func runShaped(sh *Shape, cfg Config) (Stats, error) {
	if sh == nil {
		return RunConfig(cfg)
	}
	s, err := sh.Instantiate(cfg)
	if err != nil {
		return Stats{}, err
	}
	return s.Run(), nil
}

// zeroLoadMeasureFloor is the minimum measurement window of the
// zero-load reference run: at 0.5% load, shorter windows see too few
// packets for a stable latency average.
const zeroLoadMeasureFloor = 20000

// zeroLoad runs the near-zero-load reference configuration and
// returns its full statistics. A Control carries over (with the
// saturation monitors inert at this load, only the steady-state
// stopping rule applies).
func zeroLoad(sh *Shape, cfg Config) (Stats, error) {
	cfg.Defaults()
	cfg.InjectionRate = 0.005
	cfg.Warmup = 1000
	if cfg.Measure < zeroLoadMeasureFloor {
		cfg.Measure = zeroLoadMeasureFloor
	}
	return runShaped(sh, cfg)
}

// SaturationResult reports the outcome of a saturation search.
type SaturationResult struct {
	// SaturationRate is the highest offered load (flits/node/cycle, in
	// [0,1]) the network sustains: delivery stays complete and average
	// latency stays below the latency threshold. When LowerBound is
	// set it is instead the search's Resolution — an upper bound on a
	// true rate the bisection could not resolve.
	SaturationRate float64
	// ZeroLoadLatency is the reference latency used for the threshold.
	ZeroLoadLatency float64
	// Samples holds the load/latency curve probed by the search.
	Samples []Stats
	// SimCycles and SimFlitHops total the simulated router-cycles and
	// flit movements over the zero-load reference run and every probe.
	// They are the work figures behind the search: perf harnesses
	// divide them by wall-clock time to report simulation speed.
	SimCycles   int64
	SimFlitHops int64

	// Probes counts the saturation probes whose verdicts the search
	// used (the zero-load reference run is not a probe). Speculative
	// probes canceled or discarded before their verdict was needed are
	// excluded, which keeps the count — like every other field —
	// deterministic in the configuration.
	Probes int

	// CyclesSaved conservatively estimates the simulated cycles the
	// adaptive controller avoided: for each probe, the gap between its
	// fixed injection schedule (warmup plus measurement; avoided drain
	// cycles are not counted) and the cycles it actually ran. Zero for
	// fixed-budget searches.
	CyclesSaved int64

	// Resolution is the finest offered-load step the bisection could
	// resolve (the final search-interval width); 0 when the network
	// sustained full load and no bisection ran.
	Resolution float64

	// LowerBound reports that every probe down to the smallest
	// bisection midpoint saturated: the true saturation rate lies
	// below Resolution, and SaturationRate carries Resolution as an
	// explicit upper bound instead of a hard zero.
	LowerBound bool
}

// latencyBlowupFactor defines saturation: the offered load at which
// average latency exceeds this multiple of the zero-load latency
// (standard practice for load-latency curves; BookSim evaluations
// typically use 2-3x).
const latencyBlowupFactor = 3.0

// bisectionSteps is the number of interval halvings after the
// full-load probe, fixing the search resolution at 2^-bisectionSteps
// of capacity.
const bisectionSteps = 7

// clampDrain caps a run's drain budget at factor*Measure: runs past
// saturation never finish draining, so there is no point paying the
// full default drain. The saturation search's probes use 4x and
// load-sweep points their historical 3x — both factors are pinned
// because changing either would alter fixed-tier results already
// cached under existing job keys.
func clampDrain(c *Config, factor int) {
	if c.Drain > factor*c.Measure {
		c.Drain = factor * c.Measure
	}
}

// Drain clamp factors (see clampDrain).
const (
	probeDrainFactor = 4
	curveDrainFactor = 3
)

// satVerdict applies the saturation criterion to a finished probe: an
// early saturation verdict from the adaptive monitors, or the classic
// whole-run thresholds for runs that completed their budget.
func satVerdict(st Stats, zl, rate float64) bool {
	return st.Verdict == VerdictSaturated ||
		st.Deadlocked ||
		st.DeliveredFraction() < 0.95 ||
		st.AvgPacketLatency > latencyBlowupFactor*zl ||
		st.AcceptedRate < 0.85*rate
}

// SaturationThroughput binary-searches the offered load for the
// saturation point. The passed config's InjectionRate is ignored.
// With Config.Control set the search is adaptive (early verdicts,
// steady-state stopping, speculative parallel bisection over
// Config.Sched); see the file comment.
func SaturationThroughput(cfg Config) (SaturationResult, error) {
	cfg.Defaults()
	// One shared Shape serves the zero-load reference and every probe:
	// a search used to pay up to nine full topology builds, now one.
	sh, err := NewShape(cfg)
	if err != nil {
		return SaturationResult{}, err
	}
	return SaturationThroughputShaped(sh, cfg)
}

// SaturationThroughputShaped is SaturationThroughput against a
// pre-built Shape. The shape must have been built for the config's
// topology, routing, and link latencies; results are bit-identical to
// SaturationThroughput.
func SaturationThroughputShaped(sh *Shape, cfg Config) (SaturationResult, error) {
	cfg.Defaults()
	if _, ok := cfg.Pattern.(*Replay); ok {
		// The search probes by varying the Bernoulli injection rate,
		// which a recorded workload has no analogue of; for replays the
		// rate is a time-dilation scale swept via LoadLatencyCurve.
		return SaturationResult{}, fmt.Errorf(
			"sim: saturation search is undefined for trace replay pattern %q (sweep it with LoadLatencyCurve / mode \"load\")",
			cfg.Pattern.Name())
	}
	if cfg.Control != nil {
		return adaptiveSaturation(sh, cfg)
	}
	search := cfg.Span
	zc := cfg
	zc.Span = search.Child("zeroload")
	zlStats, err := zeroLoad(sh, zc)
	zc.Span.End()
	if err != nil {
		return SaturationResult{}, err
	}
	zl := zlStats.AvgPacketLatency
	res := SaturationResult{ZeroLoadLatency: zl}
	res.SimCycles = zlStats.Cycles
	res.SimFlitHops = zlStats.FlitHops

	saturated := func(rate float64) (bool, Stats, error) {
		c := cfg
		c.InjectionRate = rate
		c.Span = search.Child("probe")
		c.Span.SetAttr("rate", rate)
		// Shorter drain than the default: saturated runs never drain.
		clampDrain(&c, probeDrainFactor)
		st, err := runShaped(sh, c)
		res.SimCycles += st.Cycles
		res.SimFlitHops += st.FlitHops
		res.Probes++
		if err != nil {
			c.Span.End()
			return false, st, err
		}
		sat := satVerdict(st, zl, rate)
		c.Span.SetAttr("saturated", sat)
		c.Span.End()
		return sat, st, nil
	}

	lo, hi := 0.0, 1.0
	// Establish whether full load already saturates (it almost always
	// does except for near-ideal networks).
	if sat, st, err := saturated(1.0); err != nil {
		return res, err
	} else if !sat {
		res.Samples = append(res.Samples, st)
		res.SaturationRate = 1.0
		return res, nil
	} else {
		res.Samples = append(res.Samples, st)
	}
	for i := 0; i < bisectionSteps; i++ {
		mid := (lo + hi) / 2
		sat, st, err := saturated(mid)
		if err != nil {
			return res, err
		}
		res.Samples = append(res.Samples, st)
		if sat {
			hi = mid
		} else {
			lo = mid
		}
	}
	finishSearch(&res, lo, hi)
	return res, nil
}

// finishSearch fills the search outcome from the final bisection
// interval, turning the all-probes-saturated case into an explicit
// lower-bound report instead of a hard zero.
func finishSearch(res *SaturationResult, lo, hi float64) {
	res.Resolution = hi - lo
	if lo == 0 {
		// Even the smallest midpoint saturated: the true rate is
		// somewhere below the resolution.
		res.LowerBound = true
		res.SaturationRate = res.Resolution
		return
	}
	res.SaturationRate = lo
}

// LoadLatencyCurve sweeps the offered load over the given rates and
// returns one Stats per point — the classic load-latency curve NoC
// papers plot around their saturation discussions. Saturated points
// (incomplete delivery) are included; callers can filter on
// DeliveredFraction. Points share the saturation search's drain
// clamp mechanism (at the curve's historical factor), so sweep
// points above saturation do not pay the full drain budget. The
// topology is built once and every point instantiates from it.
func LoadLatencyCurve(cfg Config, rates []float64) ([]Stats, error) {
	cfg.Defaults()
	if len(rates) == 0 {
		return nil, nil
	}
	sh, err := NewShape(cfg)
	if err != nil {
		return nil, err
	}
	out := make([]Stats, len(rates))
	for i, r := range rates {
		c := cfg
		c.InjectionRate = r
		clampDrain(&c, curveDrainFactor)
		c.Span = cfg.Span.Child("point")
		c.Span.SetAttr("rate", r)
		s, err := sh.Instantiate(c)
		if err != nil {
			c.Span.End()
			return nil, err
		}
		out[i] = s.Run()
		c.Span.End()
	}
	return out, nil
}
