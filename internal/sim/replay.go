package sim

// Trace replay: the simulator's second input modality. A Replay wraps
// a validated workload trace (package trace) and plugs into the
// engine through the ordinary Pattern slot — but instead of drawing
// destinations per cycle, the engine precomputes the trace's scaled
// injection schedule at instantiation and generateReplay (engine.go)
// drains it cursor-style. Everything layered over the engine —
// warmup/measure/drain windows, adaptive control, shared Shapes, the
// campaign cache — composes with replayed traffic unchanged, because
// a run with a Replay pattern executes the identical per-cycle code.
//
// Load scaling: Config.InjectionRate doubles as the replay's time
// dilation. Scale 1 (or the 0 default) replays the trace at its
// recorded intensity; a scale s in (0, 1) stretches every record
// cycle to cycle/s, thinning the offered load to s times the recorded
// one — which is what lets a load sweep reuse its loads axis for
// traces. Stats.OfferedRate reports the scale for replayed runs.
//
// The saturation searches refuse Replay patterns: they probe by
// varying the Bernoulli injection rate, which has no meaning for a
// recorded workload. Sweep traces through LoadLatencyCurve (mode
// "load" in campaign specs) instead.

import (
	"fmt"
	"math/rand"
	"sort"

	"sparsehamming/internal/trace"
)

// Replay is a Pattern that replays a recorded workload trace. Build
// with NewReplay (or via the "trace:<path>" pattern names of
// PatternByName); the wrapped trace must stay unmodified while any
// simulation uses it.
type Replay struct {
	name string
	tr   *trace.Trace
}

// NewReplay wraps a validated trace as a replayable pattern. The name
// is the pattern's identity in job specs and cache keys (the pattern
// registry uses "trace:<path>").
func NewReplay(name string, tr *trace.Trace) (*Replay, error) {
	if tr == nil {
		return nil, fmt.Errorf("sim: NewReplay with nil trace")
	}
	if err := tr.Validate(); err != nil {
		return nil, fmt.Errorf("sim: %s: %w", name, err)
	}
	return &Replay{name: name, tr: tr}, nil
}

// Name implements Pattern.
func (r *Replay) Name() string { return r.name }

// Dest implements Pattern. The engine never calls it for a Replay —
// injections come from the trace schedule — so it always reports "no
// destination".
func (r *Replay) Dest(src int, rng *rand.Rand) int { return -1 }

// Grid returns the trace's grid shape.
func (r *Replay) Grid() (rows, cols int) { return r.tr.Meta.Rows, r.tr.Meta.Cols }

// Trace returns the wrapped trace (read-only by convention).
func (r *Replay) Trace() *trace.Trace { return r.tr }

// replayEvent is one scheduled injection: a trace record with its
// cycle already scaled.
type replayEvent struct {
	cycle    int64
	src, dst int32
	plen     int16
}

// schedule materializes the trace's injection schedule at the given
// load scale (0 means 1: the recorded intensity), sorted by effective
// cycle. The format only requires per-source monotone cycles, so the
// global sort is what hands generateReplay a single cursor; the sort
// is stable to keep same-cycle records in trace order.
func (r *Replay) schedule(scale float64) []replayEvent {
	if scale == 0 {
		scale = 1
	}
	recs := r.tr.Records
	sched := make([]replayEvent, len(recs))
	for i := range recs {
		rec := &recs[i]
		cycle := rec.Cycle
		if scale != 1 {
			cycle = int64(float64(cycle) / scale)
		}
		sched[i] = replayEvent{cycle: cycle, src: rec.Src, dst: rec.Dst, plen: int16(rec.Size)}
	}
	sort.SliceStable(sched, func(i, j int) bool { return sched[i].cycle < sched[j].cycle })
	return sched
}

// init registers the "trace" pattern-name scheme: "trace:<path>"
// loads, validates, and wraps the trace file at path (relative to the
// process working directory, like spec files themselves). The file is
// re-read on every construction — traces are small, and the campaign
// cache already memoizes whole results.
func init() {
	RegisterPatternScheme("trace", func(name, path string, rows, cols int) (Pattern, error) {
		if path == "" {
			return nil, fmt.Errorf("sim: pattern %q has no trace path", name)
		}
		tr, err := trace.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("sim: pattern %q: %w", name, err)
		}
		if tr.Meta.Rows != rows || tr.Meta.Cols != cols {
			return nil, fmt.Errorf("sim: pattern %q: trace grid %dx%d does not match the %dx%d arch grid",
				name, tr.Meta.Rows, tr.Meta.Cols, rows, cols)
		}
		return NewReplay(name, tr)
	})
}

// captureTracer records the injection schedule of a running
// simulation: one trace record per packet, at the cycle its head flit
// entered the network.
type captureTracer struct {
	plen int
	recs []trace.Record
}

// Trace implements Tracer.
func (c *captureTracer) Trace(ev Event) {
	if ev.Kind == EvInject && ev.Seq == 0 {
		c.recs = append(c.recs, trace.Record{Cycle: ev.Cycle, Src: ev.Node, Dst: ev.Peer, Size: c.plen})
	}
}

// CaptureTrace runs the configuration and records every injected
// packet as a trace record — the capture mode behind `shgen
// -capture`, turning any registered synthetic pattern into a
// replayable trace. The returned trace carries the run's grid,
// horizon (one past the last injection), and provenance; records are
// in injection order (globally sorted by cycle), and replaying the
// result reproduces the run's per-(src,dst) flit counts exactly.
// Config.Tracer must be unset (capture claims the event stream), and
// the pattern must be synthetic — capturing a Replay is the identity.
func CaptureTrace(cfg Config) (*trace.Trace, Stats, error) {
	if cfg.Tracer != nil {
		return nil, Stats{}, fmt.Errorf("sim: CaptureTrace needs the Tracer slot (Config.Tracer must be nil)")
	}
	if _, ok := cfg.Pattern.(*Replay); ok {
		return nil, Stats{}, fmt.Errorf("sim: refusing to capture a trace from a trace replay")
	}
	cfg.Defaults()
	ct := &captureTracer{plen: cfg.PacketLen}
	cfg.Tracer = ct
	s, err := New(cfg)
	if err != nil {
		return nil, Stats{}, err
	}
	st := s.Run()
	tr := &trace.Trace{
		Meta: trace.Meta{
			Rows: cfg.Topo.Rows,
			Cols: cfg.Topo.Cols,
			Generator: fmt.Sprintf("capture pattern=%s topo=%s seed=%d rate=%g plen=%d warmup=%d measure=%d",
				cfg.Pattern.Name(), cfg.Topo.Kind, cfg.Seed, cfg.InjectionRate, cfg.PacketLen,
				cfg.Warmup, cfg.Measure),
		},
		Records: ct.recs,
	}
	if len(ct.recs) > 0 {
		tr.Meta.Horizon = tr.EffectiveHorizon()
	}
	if err := tr.Validate(); err != nil {
		return nil, st, fmt.Errorf("sim: captured trace invalid: %w", err)
	}
	return tr, st, nil
}
