package sim

// Shared simulator build products: a Shape is the read-only part of a
// (topology, routing, link-latency) configuration — the directed-
// channel layout, the per-router channel wiring, and the per-(src,dst)
// output-port LUT — built once by NewShape. Instantiate allocates only
// the mutable per-run state (VC lanes, credit counters, arbiter
// pointers, queues) over it.
//
// A saturation search runs a zero-load reference plus up to eight
// probes, and a load-latency curve one run per point; all of them
// differ only in load, seed, or schedule, so each search or curve
// builds one Shape and instantiates every run from it. Runs share no
// mutable state (the Shape is never written after NewShape returns),
// so instantiating from a shared Shape is bit-identical to a full
// build per run, and concurrent runs (the adaptive search's
// speculative probes) may instantiate from one Shape safely.

import (
	"fmt"
	"slices"

	"sparsehamming/internal/route"
	"sparsehamming/internal/topo"
)

// chanShape is the immutable description of one directed channel:
// endpoints, port numbers, and pipeline latency. The mutable flit and
// credit queues live in the per-replica dchan.
type chanShape struct {
	from, to int32
	outPort  int16
	inPort   int16
	latency  int64
}

// Shape is the replica-independent build product of one (topology,
// routing, link-latency) configuration: the directed-channel layout,
// the per-router channel wiring, and the per-(src,dst) output-port
// LUT. It is read-only after NewShape returns and therefore safe to
// share across replicas running concurrently (the adaptive saturation
// search's speculative probes instantiate from one Shape on several
// goroutines).
type Shape struct {
	topo    *topo.Topology
	routing *route.Routing
	linkLat []int // copy of the Config.LinkLatency it was built from

	chans []chanShape

	// inChans[id] / outChans[id] are the dchan indices feeding input
	// port i / driven by output port o of router id. Routers reference
	// these slices directly (they are never mutated).
	inChans, outChans [][]int32

	// pathPorts[src][dst][i] is the output port taken at hop i of the
	// routed path src->dst. Packets reference rows of this table
	// directly; it is the dominant build cost a Shape amortizes.
	pathPorts [][][]int16

	// portBase is the structure-of-arrays engine's port-offset table:
	// router id owns the global ports [portBase[id], portBase[id+1])
	// — its degree link ports plus the injection/ejection port — so
	// flat per-(port, vc) state arrays are indexed without any
	// per-router indirection (see simState in soa.go). numPorts is
	// portBase[n] and maxIn the widest router's port count (the switch
	// allocator's scratch width).
	portBase []int32
	numPorts int
	maxIn    int
}

// NewShape builds the shared state for the configuration's topology,
// routing, and link latencies. The remaining Config fields (load,
// seed, VC parameters, schedule) are ignored — they parameterize
// Instantiate, not the shape.
func NewShape(cfg Config) (*Shape, error) {
	cfg.Defaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return newShape(&cfg), nil
}

// newShape builds the shared state from a defaulted, validated config.
func newShape(cfg *Config) *Shape {
	t := cfg.Topo
	n := t.NumTiles()
	sh := &Shape{
		topo:     t,
		routing:  cfg.Routing,
		linkLat:  slices.Clone(cfg.LinkLatency),
		inChans:  make([][]int32, n),
		outChans: make([][]int32, n),
	}

	// Per-link latency lookup.
	latOf := make(map[[2]int32]int64)
	for i, l := range t.Links() {
		lat := int64(1)
		if cfg.LinkLatency != nil {
			lat = int64(cfg.LinkLatency[i])
			if lat < 1 {
				lat = 1
			}
		}
		a, b := int32(t.Index(l.A)), int32(t.Index(l.B))
		latOf[[2]int32{a, b}] = lat
		latOf[[2]int32{b, a}] = lat
	}

	// Port numbering: position of the neighbor in the sorted neighbor
	// list (both for input and output ports).
	portOf := func(node, nb int) int16 {
		for i, v := range t.Neighbors(node) {
			if v == nb {
				return int16(i)
			}
		}
		panic("sim: neighbor not found")
	}

	sh.portBase = make([]int32, n+1)
	for id := 0; id < n; id++ {
		deg := t.Degree(id)
		sh.inChans[id] = make([]int32, deg)
		sh.outChans[id] = make([]int32, deg)
		sh.portBase[id+1] = sh.portBase[id] + int32(deg+1)
		if deg+1 > sh.maxIn {
			sh.maxIn = deg + 1
		}
	}
	sh.numPorts = int(sh.portBase[n])

	// Directed channels: one per (from, to) adjacency.
	for id := 0; id < n; id++ {
		for _, nb := range t.Neighbors(id) {
			c := chanShape{
				from:    int32(id),
				to:      int32(nb),
				outPort: portOf(id, nb),
				inPort:  portOf(nb, id),
				latency: latOf[[2]int32{int32(id), int32(nb)}],
			}
			idx := int32(len(sh.chans))
			sh.chans = append(sh.chans, c)
			sh.outChans[id][c.outPort] = idx
			sh.inChans[nb][c.inPort] = idx
		}
	}

	// Precompute, per (src, dst) pair, the output port taken at every
	// hop of the routed path, so neither VC allocation nor injection
	// ever searches a path or a neighbor list at simulation time.
	portTo := make([][]int16, n)
	for id := range portTo {
		portTo[id] = make([]int16, n)
		for j := range portTo[id] {
			portTo[id][j] = -1
		}
	}
	for _, c := range sh.chans {
		portTo[c.from][c.to] = c.outPort
	}
	sh.pathPorts = make([][][]int16, n)
	for src := 0; src < n; src++ {
		row := make([][]int16, n)
		for dst := 0; dst < n; dst++ {
			if src == dst {
				continue
			}
			p := cfg.Routing.Path(src, dst)
			pp := make([]int16, p.Hops())
			for i := range pp {
				pp[i] = portTo[p.Tiles[i]][p.Tiles[i+1]]
				if pp[i] < 0 {
					panic("sim: routed path uses a missing channel")
				}
			}
			row[dst] = pp
		}
		sh.pathPorts[src] = row
	}

	counters.shapeBuilds.Add(1)
	return sh
}

// matches reports whether the config's topology, routing, and link
// latencies are the ones the shape was built from.
func (sh *Shape) matches(cfg *Config) error {
	if cfg.Topo != sh.topo || cfg.Routing != sh.routing {
		return fmt.Errorf("sim: config topology/routing differ from the shape's")
	}
	if !slices.Equal(cfg.LinkLatency, sh.linkLat) {
		return fmt.Errorf("sim: config link latencies differ from the shape's")
	}
	return nil
}

// Instantiate builds one simulator replica over the shared shape. The
// config's topology, routing, and link latencies must be exactly the
// shape's; everything else (load, seed, pattern, VC parameters,
// schedule, control) is free per replica.
func (sh *Shape) Instantiate(cfg Config) (*Simulator, error) {
	cfg.Defaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := sh.matches(&cfg); err != nil {
		return nil, err
	}
	return sh.instantiate(&cfg), nil
}
