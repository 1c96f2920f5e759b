// Package analytic implements the classic high-level NoC performance
// models that the paper's related-work section contrasts its toolchain
// against: closed-form zero-load latency and a channel-load bound on
// saturation throughput. These models are orders of magnitude faster
// than cycle-accurate simulation but ignore allocation conflicts,
// buffer occupancy, and flow-control effects — reproducing the
// "high-level models are fast but lack accuracy" trade-off the paper
// describes, and doubling as an independent sanity bound for the
// simulator in package sim (measured saturation can never exceed the
// channel-load bound).
package analytic

import (
	"fmt"

	"sparsehamming/internal/route"
	"sparsehamming/internal/topo"
)

// Model holds the inputs shared by the analytical estimates.
type Model struct {
	Topo    *topo.Topology
	Routing *route.Routing

	// LinkLatency in cycles per topology link (indexed like
	// Topo.Links()); nil means 1 cycle everywhere.
	LinkLatency []int

	// RouterDelay is the per-hop router pipeline depth in cycles.
	RouterDelay int

	// PacketLen is the packet length in flits (serialization term).
	PacketLen int
}

// Validate checks the model inputs.
func (m *Model) Validate() error {
	if m.Topo == nil || m.Routing == nil {
		return fmt.Errorf("analytic: missing topology or routing")
	}
	if m.Routing.Topo != m.Topo {
		return fmt.Errorf("analytic: routing built for a different topology")
	}
	if m.LinkLatency != nil && len(m.LinkLatency) != m.Topo.NumLinks() {
		return fmt.Errorf("analytic: %d link latencies for %d links",
			len(m.LinkLatency), m.Topo.NumLinks())
	}
	if m.RouterDelay < 1 || m.PacketLen < 1 {
		return fmt.Errorf("analytic: router delay and packet length must be >= 1")
	}
	return nil
}

// linkLatencies returns the latency of every link as a dense n x n
// table indexed by tile pair a*n+b, filled in both directions.
func (m *Model) linkLatencies() []int {
	n := m.Topo.NumTiles()
	lat := make([]int, n*n)
	for i, l := range m.Topo.Links() {
		v := 1
		if m.LinkLatency != nil {
			v = m.LinkLatency[i]
			if v < 1 {
				v = 1
			}
		}
		a, b := m.Topo.Index(l.A), m.Topo.Index(l.B)
		lat[a*n+b], lat[b*n+a] = v, v
	}
	return lat
}

// ZeroLoadLatency returns the average packet latency at zero load
// under uniform random traffic: for each source/destination pair, one
// router delay per hop plus one for injection, the sum of the link
// latencies along the routed path, and the serialization delay of the
// packet's remaining flits.
func (m *Model) ZeroLoadLatency() (float64, error) {
	if err := m.Validate(); err != nil {
		return 0, err
	}
	lat := m.linkLatencies()
	n := m.Topo.NumTiles()
	var sum float64
	var pairs int
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			p := m.Routing.Path(s, d)
			cycles := (p.Hops() + 1) * m.RouterDelay // per-hop routers + injection router
			for i := 0; i+1 < len(p.Tiles); i++ {
				cycles += lat[int(p.Tiles[i])*n+int(p.Tiles[i+1])]
			}
			cycles += m.PacketLen - 1 // tail flit serialization
			sum += float64(cycles)
			pairs++
		}
	}
	return sum / float64(pairs), nil
}

// ChannelLoads returns, for every directed channel (ordered pair of
// adjacent tiles), the expected number of flits per cycle crossing it
// under uniform random traffic at an injection rate of 1 flit per
// node per cycle. Scaling is linear in the injection rate.
func (m *Model) ChannelLoads() (map[[2]int]float64, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	n := m.Topo.NumTiles()
	loads := make(map[[2]int]float64)
	// Each node injects 1 flit/cycle spread over n-1 destinations.
	per := 1.0 / float64(n-1)
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			p := m.Routing.Path(s, d)
			for i := 0; i+1 < len(p.Tiles); i++ {
				loads[[2]int{int(p.Tiles[i]), int(p.Tiles[i+1])}] += per
			}
		}
	}
	return loads, nil
}

// Estimate is the combined output of one surrogate evaluation: both
// closed-form performance estimates, computed in a single pass.
type Estimate struct {
	// ZeroLoadLatency is the closed-form average packet latency at
	// zero load in cycles (identical to Model.ZeroLoadLatency).
	ZeroLoadLatency float64
	// SaturationBound is the channel-load upper bound on saturation
	// throughput in flits/node/cycle (identical to
	// Model.SaturationBound).
	SaturationBound float64
	// MaxChannelLoad is the highest directed-channel load at unit
	// injection rate — the bottleneck behind SaturationBound.
	MaxChannelLoad float64
	// AvgChannelLoad is the mean load over all directed channels at
	// unit injection rate. The gap between it and MaxChannelLoad
	// measures how unevenly the routing spreads traffic: two
	// configurations with the same bottleneck load but different
	// averages congest differently below saturation, which is why the
	// design-space surrogate ranks with a mix of both.
	AvgChannelLoad float64
}

// Estimate computes the zero-load latency and the channel-load
// saturation bound together in one sweep over the n^2 routed paths.
// ZeroLoadLatency and SaturationBound each walk every (src, dst) path
// on their own; when a caller needs both — the design-space surrogate
// scores every configuration on exactly this pair — the combined
// sweep halves the dominant cost. Results are identical to the
// separate methods (same paths, same arithmetic, only the iteration
// is shared), and bit-identical from call to call.
func (m *Model) Estimate() (Estimate, error) {
	if err := m.Validate(); err != nil {
		return Estimate{}, err
	}
	lat := m.linkLatencies()
	n := m.Topo.NumTiles()
	// Directed channel loads indexed like lat (a*n+b for channel a->b),
	// summed below in index order so every call rounds identically.
	loads := make([]float64, n*n)
	per := 1.0 / float64(n-1)
	var sum float64
	var pairs int
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			p := m.Routing.Path(s, d)
			cycles := (p.Hops() + 1) * m.RouterDelay
			for i := 0; i+1 < len(p.Tiles); i++ {
				ch := int(p.Tiles[i])*n + int(p.Tiles[i+1])
				loads[ch] += per
				cycles += lat[ch]
			}
			cycles += m.PacketLen - 1
			sum += float64(cycles)
			pairs++
		}
	}
	est := Estimate{ZeroLoadLatency: sum / float64(pairs)}
	var loadSum float64
	for _, v := range loads {
		loadSum += v
		if v > est.MaxChannelLoad {
			est.MaxChannelLoad = v
		}
	}
	if nc := 2 * m.Topo.NumLinks(); nc > 0 {
		// Every link is one directed channel per direction; channels
		// no path uses still count toward the mean.
		est.AvgChannelLoad = loadSum / float64(nc)
	}
	est.SaturationBound = 1
	if est.MaxChannelLoad > 0 && 1/est.MaxChannelLoad < 1 {
		est.SaturationBound = 1 / est.MaxChannelLoad
	}
	return est, nil
}

// SaturationBound returns the channel-load upper bound on saturation
// throughput under uniform random traffic: the injection rate (flits
// per node per cycle) at which the most loaded directed channel
// reaches one flit per cycle. Real networks with input-queued routers
// saturate below this bound because of allocation conflicts and
// head-of-line blocking — that gap is exactly the inaccuracy of
// high-level models the paper motivates its toolchain with.
func (m *Model) SaturationBound() (float64, error) {
	loads, err := m.ChannelLoads()
	if err != nil {
		return 0, err
	}
	var max float64
	for _, v := range loads {
		if v > max {
			max = v
		}
	}
	if max == 0 {
		return 1, nil
	}
	bound := 1 / max
	if bound > 1 {
		// Injection bandwidth (1 flit/node/cycle) caps throughput.
		bound = 1
	}
	return bound, nil
}

// BisectionBound returns the classic bisection-bandwidth bound on
// uniform-random throughput: half of all traffic crosses the vertical
// bisection, which provides 2*BisectionLinks flit/cycle of capacity
// (both directions), so rate * N/2 <= 2*B.
func (m *Model) BisectionBound() float64 {
	n := m.Topo.NumTiles()
	b := m.Topo.BisectionLinks()
	bound := 4 * float64(b) / float64(n)
	if bound > 1 {
		bound = 1
	}
	return bound
}

// MaxChannelLoad returns the highest directed-channel load at unit
// injection rate and the channel it occurs on.
func (m *Model) MaxChannelLoad() (load float64, from, to int, err error) {
	loads, err := m.ChannelLoads()
	if err != nil {
		return 0, 0, 0, err
	}
	for k, v := range loads {
		if v > load || (v == load && (k[0] < from || (k[0] == from && k[1] < to))) {
			load, from, to = v, k[0], k[1]
		}
	}
	return load, from, to, nil
}
