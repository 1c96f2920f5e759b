package main

// Host speed. On a shared host the CPU time of the same work moves by
// half and more from minute to minute: other machines' threads share
// this one's cores, caches and memory, and none of that shows as steal
// time. A speedMeter runs a fixed piece of reference work — this file's,
// never the program's — interleaved with the measured work and reports
// how much slower than nominal the host ran it. The end-to-end times
// divide by that factor: they are CPU seconds at the nominal speed.
//
// Contention slows kinds of work unequally, so there are two kinds of
// reference work. Arithmetic over small arrays stands for a cold
// pass, which is simulation and cost modelling. Set-ups and warm
// reruns mix such arithmetic — job keys, the cost model — with the Go
// runtime's allocation, maps, reflection and strings — spec parsing,
// cache files, JSON and CSV — and their factor is the geometric mean
// of the arithmetic's and a JSON round trip's.

import (
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"time"
)

const (
	// refQueues and refDepth shape the arithmetic reference work: ring
	// buffers of tokens, 72 KiB in all, which stay in a core's own
	// caches.
	refQueues = 1024
	refDepth  = 16
	// refSteps is one arithmetic chunk's length.
	refSteps = 25000
	// refNominal is an arithmetic chunk's CPU time at nominal speed.
	refNominal = 250 * time.Microsecond
	// refRecords is how many records a JSON chunk encodes and decodes.
	refRecords = 40
	// refJSONNominal is a JSON chunk's CPU time at nominal speed.
	refJSONNominal = 150 * time.Microsecond
	// probeEvery is how often a cold pass samples the host's speed; a
	// sample costs two arithmetic chunks, which the pass's time
	// excludes.
	probeEvery = 20 * time.Millisecond
)

// speedMeter samples how fast the host runs the reference work.
type speedMeter struct {
	withJSON bool // JSON round trips as well as arithmetic

	head, tail [refQueues]uint32
	slot       [refQueues * refDepth]uint32
	x          uint32
	records    []refRecord

	samples     []float64 // CPU seconds of each timed arithmetic chunk
	jsonSamples []float64 // and of each timed JSON round trip
	spent       time.Duration
}

// refRecord is one record of the JSON reference work.
type refRecord struct {
	Name   string         `json:"name"`
	Values []float64      `json:"values"`
	Tags   map[string]int `json:"tags"`
}

// newSpeedMeter returns a meter of arithmetic reference work, and of
// JSON round trips as well when withJSON is set.
func newSpeedMeter(withJSON bool) *speedMeter {
	m := &speedMeter{withJSON: withJSON, x: 2463534242}
	for i := 0; i < refRecords; i++ {
		m.records = append(m.records, refRecord{
			Name:   fmt.Sprintf("record-%d", i),
			Values: []float64{float64(i), 1.5 * float64(i), 0.25},
			Tags:   map[string]int{"row": i / 8, "col": i % 8},
		})
	}
	return m
}

// queues runs one chunk, refSteps steps, of the arithmetic reference
// work, the loads, stores and branches of a router pipeline: pop a
// token from a pseudo-random queue, or inject one if it is empty, and
// push it on to a queue the token chooses unless that queue is full.
func (m *speedMeter) queues() {
	x := m.x
	for i := 0; i < refSteps; i++ {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		q := x & (refQueues - 1)
		h, t := m.head[q], m.tail[q]
		if h == t {
			m.slot[q*refDepth+t%refDepth] = x
			m.tail[q] = t + 1
			continue
		}
		v := m.slot[q*refDepth+h%refDepth]
		m.head[q] = h + 1
		d := (v ^ x) & (refQueues - 1)
		if m.tail[d]-m.head[d] < refDepth {
			m.slot[d*refDepth+m.tail[d]%refDepth] = v + 1
			m.tail[d]++
		}
	}
	m.x = x
}

// roundTrip, one JSON chunk, encodes the reference records as JSON and
// decodes them.
func (m *speedMeter) roundTrip() {
	b, err := json.Marshal(m.records)
	if err == nil {
		var back []refRecord
		err = json.Unmarshal(b, &back)
	}
	if err != nil {
		panic(fmt.Sprintf("reference work: %v", err)) // fixed data: only a bug fails
	}
}

// sample runs each kind of chunk twice and times the second run: the
// first brings the reference work's state back into the caches the
// measured work used.
func (m *speedMeter) sample() {
	clk := startClock()
	m.samples = append(m.samples, timeTwice(m.queues))
	if m.withJSON {
		m.jsonSamples = append(m.jsonSamples, timeTwice(m.roundTrip))
	}
	m.spent += clk.cpuSince()
}

// timeTwice runs chunk twice and returns the CPU seconds of the second
// run.
func timeTwice(chunk func()) float64 {
	chunk()
	clk := startClock()
	chunk()
	return seconds(clk.cpuSince())
}

// factor returns how many times slower than nominal the host ran the
// chunks sampled so far (their median), or 1 for none.
func (m *speedMeter) factor() float64 {
	if len(m.samples) == 0 {
		return 1
	}
	f := median(m.samples) / seconds(refNominal)
	if m.withJSON {
		f = math.Sqrt(f * median(m.jsonSamples) / seconds(refJSONNominal))
	}
	return f
}

// probe samples every probeEvery in a goroutine of its own until the
// returned stop function is called; stop waits for the goroutine and
// returns the CPU time the samples took. On one processor the probe
// takes turns with the measured work, so it runs on the same core at
// the same moments.
func (m *speedMeter) probe() (stop func() time.Duration) {
	done := make(chan struct{})
	spent0 := m.spent
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(probeEvery)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				m.sample()
			}
		}
	}()
	var once sync.Once
	return func() time.Duration {
		once.Do(func() { close(done) })
		wg.Wait()
		return m.spent - spent0
	}
}

// atNominal scales CPU times measured while m sampled to the nominal
// speed.
func atNominal(xs []float64, m *speedMeter) []float64 {
	f := m.factor()
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x / f
	}
	return out
}
