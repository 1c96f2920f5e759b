package sim

// Adaptive saturation search: early-verdict probes plus speculative
// parallel bisection. See the file comment in metrics.go for the
// determinism argument; the short version is that the search consumes
// exactly the sequential bisection's probe sequence, and speculation
// only changes when those probes execute, never which ones count.

import "sparsehamming/internal/obs"

// specProbe is one speculatively launched probe.
type specProbe struct {
	rate float64
	// interrupt is closed to abandon the probe once a completed
	// sibling's verdict makes it irrelevant.
	interrupt chan struct{}
	// done receives the probe's outcome (buffered, so abandoned
	// probes never leak a goroutine).
	done chan probeOutcome
	// span is the probe's trace subtree, forked (detached) from the
	// search span: the probe goroutine mutates only this subtree, and
	// eval adopts it into the search trace if and when the outcome is
	// consumed. Canceled probes' spans are simply never attached, so a
	// goroutine that is still winding down cannot race a published
	// trace.
	span *obs.Span
}

// probeOutcome is one finished probe.
type probeOutcome struct {
	st  Stats
	err error
}

// prober runs saturation probes for one adaptive search, managing the
// speculation table.
type prober struct {
	cfg     Config  // base config (Defaults applied)
	sh      *Shape  // shared build products; read-only, so concurrent speculative probes instantiate from it safely
	ctl     Control // controller template (defaults applied)
	zl      float64 // zero-load reference latency
	span    *obs.Span
	pending map[float64]*specProbe
}

// run executes one probe at rate synchronously on the calling
// goroutine, tracing it under span. interrupt and span may be nil.
func (p *prober) run(rate float64, interrupt <-chan struct{}, span *obs.Span) probeOutcome {
	c := p.cfg
	c.InjectionRate = rate
	c.Span = span
	span.SetAttr("rate", rate)
	clampDrain(&c, probeDrainFactor)
	ctl := p.ctl
	ctl.LatencyRef = p.zl
	ctl.DecideLatency = latencyBlowupFactor * p.zl
	ctl.Interrupt = interrupt
	c.Control = &ctl
	st, err := runShaped(p.sh, c)
	span.End()
	return probeOutcome{st: st, err: err}
}

// speculate launches a probe at rate on a borrowed scheduler slot, if
// one is free and the rate is not already in flight. Without a
// scheduler (or capacity) it does nothing: the search then evaluates
// the rate inline when — and only if — its verdict is needed.
func (p *prober) speculate(rate float64) {
	if p.cfg.Sched == nil {
		return
	}
	if _, ok := p.pending[rate]; ok {
		return
	}
	sp := &specProbe{
		rate:      rate,
		interrupt: make(chan struct{}),
		done:      make(chan probeOutcome, 1),
		span:      p.span.Fork("probe"),
	}
	sp.span.SetAttr("speculative", true)
	started := p.cfg.Sched.TryGo(func() {
		sp.done <- p.run(rate, sp.interrupt, sp.span)
	})
	if started {
		counters.probesSpeculated.Add(1)
		p.pending[rate] = sp
	}
}

// eval returns the outcome of the probe at rate: the in-flight
// speculative run when one exists, an inline run otherwise. A
// consumed speculative probe's trace subtree is adopted into the
// search span here, on the search goroutine.
func (p *prober) eval(rate float64) probeOutcome {
	if sp, ok := p.pending[rate]; ok {
		delete(p.pending, rate)
		out := <-sp.done
		if out.err == nil && out.st.Verdict == VerdictInterrupted {
			// Canceled before we needed it after all (interrupt and
			// demand raced); rerun inline for the deterministic
			// outcome.
			counters.probesCanceled.Add(1)
			return p.run(rate, nil, p.span.Child("probe"))
		}
		p.span.Adopt(sp.span)
		return out
	}
	return p.run(rate, nil, p.span.Child("probe"))
}

// cancelExcept interrupts every pending speculative probe but the one
// at keep. The canceled probes' goroutines observe the interrupt at
// their next monitor window, release their slots, and their outcomes
// are discarded — they never enter the result (nor the trace: their
// detached spans are never adopted).
func (p *prober) cancelExcept(keep float64) {
	for rate, sp := range p.pending {
		if rate == keep {
			continue
		}
		close(sp.interrupt)
		counters.probesCanceled.Add(1)
		delete(p.pending, rate)
	}
}

// budgetCap returns the fixed injection schedule (warmup plus
// measurement) a probe was capped at. Savings are accounted against
// this, not against the drain budget — a fixed-budget run's drain
// length depends on how fast its backlog clears, so counting avoided
// drain would overstate. The estimate is therefore conservative.
func (p *prober) budgetCap() int64 {
	return int64(p.cfg.Warmup + p.cfg.Measure)
}

// adaptiveSaturation is the Control-enabled saturation search over
// the search's shared Shape.
func adaptiveSaturation(sh *Shape, cfg Config) (SaturationResult, error) {
	p := &prober{
		cfg:     cfg,
		sh:      sh,
		ctl:     cfg.Control.withDefaults(),
		span:    cfg.Span,
		pending: map[float64]*specProbe{},
	}
	p.cfg.Control = nil // probes attach their own per-probe controller
	p.cfg.Span = nil    // probes attach their own per-probe span

	// Zero-load reference run, on the exact fixed schedule: it is
	// cheap (almost no flits move at 0.5% load), it is the headline
	// ZeroLoadLatency, and — decisively — it anchors the 3x blowup
	// threshold every probe's verdict compares against, so estimating
	// it adaptively would let sampling noise shift all verdicts at
	// once. Pinning it keeps the adaptive search's saturation answer
	// in lockstep with the fixed-budget search.
	zc := p.cfg
	zc.Span = p.span.Child("zeroload")
	zlStats, err := zeroLoad(sh, zc)
	zc.Span.End()
	if err != nil {
		return SaturationResult{}, err
	}
	zl := zlStats.AvgPacketLatency
	p.zl = zl
	res := SaturationResult{ZeroLoadLatency: zl}
	res.SimCycles = zlStats.Cycles
	res.SimFlitHops = zlStats.FlitHops

	// account folds one consumed probe into the result.
	account := func(rate float64, out probeOutcome) (bool, error) {
		res.SimCycles += out.st.Cycles
		res.SimFlitHops += out.st.FlitHops
		res.Probes++
		if out.err != nil {
			return false, out.err
		}
		sat := satVerdict(out.st, zl, rate)
		res.Samples = append(res.Samples, out.st)
		if saved := p.budgetCap() - out.st.Cycles; saved > 0 {
			res.CyclesSaved += saved
			counters.cyclesSaved.Add(saved)
		}
		return sat, nil
	}

	lo, hi := 0.0, 1.0
	// While the full-load probe runs, speculate on its (overwhelmingly
	// likely) saturated outcome: the first midpoint.
	p.speculate(0.5)
	out := p.eval(1.0)
	sat, err := account(1.0, out)
	if err != nil {
		p.cancelExcept(-1)
		return res, err
	}
	if !sat {
		p.cancelExcept(-1)
		res.SaturationRate = 1.0
		return res, nil
	}

	for i := 0; i < bisectionSteps; i++ {
		mid := (lo + hi) / 2
		if i < bisectionSteps-1 {
			// Speculate the next midpoint for both possible verdicts
			// of the probe at mid.
			p.speculate((lo + mid) / 2)
			p.speculate((mid + hi) / 2)
		}
		out := p.eval(mid)
		sat, err := account(mid, out)
		if err != nil {
			p.cancelExcept(-1)
			return res, err
		}
		if sat {
			hi = mid
			p.cancelExcept((lo + mid) / 2)
		} else {
			lo = mid
			p.cancelExcept((mid + hi) / 2)
		}
	}
	p.cancelExcept(-1)
	finishSearch(&res, lo, hi)
	return res, nil
}
