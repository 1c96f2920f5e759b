package phys

import (
	"runtime"
	"testing"

	"sparsehamming/internal/tech"
	"sparsehamming/internal/topo"
)

// planFor builds a fully-evaluated plan for white-box inspection.
func planFor(t *testing.T, arch *tech.Arch, tp *topo.Topology) *plan {
	t.Helper()
	p := newPlan(arch, tp)
	p.sizeTiles()
	p.globalRoute()
	p.assignTracks()
	p.buildCellGrid()
	p.detailedRoute()
	return p
}

func TestCellGridGeometry(t *testing.T) {
	arch := tech.Scenario(tech.ScenarioA)
	tp, err := topo.NewSparseHamming(8, 8, topo.HammingParams{SR: []int{4}})
	if err != nil {
		t.Fatal(err)
	}
	p := planFor(t, arch, tp)

	// Channel g's cell extent equals its track count, and tiles slot
	// exactly between channels.
	x := 0
	for c := 0; c <= 8; c++ {
		if p.chanX0[c] != x {
			t.Fatalf("v-channel %d origin %d, want %d", c, p.chanX0[c], x)
		}
		x += p.vchan[c].tracks
		if c < 8 {
			if p.tileX0[c] != x {
				t.Fatalf("tile col %d origin %d, want %d", c, p.tileX0[c], x)
			}
			x += p.tileCellsX
		}
	}
	if p.cellsX != x {
		t.Fatalf("cellsX %d, want %d", p.cellsX, x)
	}
	// Tile dimensions quantize up.
	if float64(p.tileCellsX)*p.cellW < p.tileW {
		t.Error("tile cells narrower than tile")
	}
}

func TestTrackAssignmentNoOverlap(t *testing.T) {
	arch := tech.Scenario(tech.ScenarioA)
	fb, err := topo.NewFlattenedButterfly(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	p := planFor(t, arch, fb)
	// Within every channel, two runs on the same track never overlap.
	for _, ch := range append(append([]*channel{}, p.hchan...), p.vchan...) {
		for i, a := range ch.runs {
			if a.track >= ch.tracks {
				t.Fatalf("run track %d >= channel tracks %d", a.track, ch.tracks)
			}
			for _, b := range ch.runs[i+1:] {
				if a.track == b.track && a.from <= b.to && b.from <= a.to {
					t.Fatalf("overlapping runs [%d,%d] and [%d,%d] share track %d",
						a.from, a.to, b.from, b.to, a.track)
				}
			}
		}
	}
}

func TestPortSlotsDistinctPerFace(t *testing.T) {
	arch := tech.Scenario(tech.ScenarioA)
	fb, err := topo.NewFlattenedButterfly(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	p := newPlan(arch, fb)
	p.sizeTiles()
	p.globalRoute()
	p.assignTracks()
	p.buildCellGrid()
	// Allocate a dozen slots on one face: all distinct, all in range.
	seen := map[int]bool{}
	for k := 0; k < 12; k++ {
		x := p.portSlot(0, 'N')
		if x < p.tileX0[0] || x >= p.tileX0[0]+p.tileCellsX {
			t.Fatalf("slot %d outside tile face", x)
		}
		if seen[x] {
			t.Fatalf("duplicate slot %d", x)
		}
		seen[x] = true
	}
}

func TestLShapeRealization(t *testing.T) {
	// SlimNoC has non-aligned links; its routes must produce both
	// horizontal and vertical cells and stay collision-accounted.
	arch := tech.Scenario(tech.ScenarioC)
	sn, err := topo.NewSlimNoC(8, 16)
	if err != nil {
		t.Fatal(err)
	}
	p := planFor(t, arch, sn)
	sawL := false
	for _, rt := range p.routes {
		if rt.kind == lShape {
			sawL = true
			if rt.hChan < 0 || rt.vChan < 0 || rt.hRun == nil || rt.vRun == nil {
				t.Fatal("l-shape route missing channel assignment")
			}
		}
	}
	if !sawL {
		t.Fatal("slimnoc produced no L-shaped routes")
	}
	// Every link got a positive physical length and latency.
	for i := range p.linkLenMm {
		if p.linkLenMm[i] <= 0 || p.linkLatency[i] < 1 {
			t.Fatalf("link %d: length %v latency %d", i, p.linkLenMm[i], p.linkLatency[i])
		}
	}
}

func TestMarkCollisionCounting(t *testing.T) {
	arch := tech.Scenario(tech.ScenarioA)
	m, err := topo.NewMesh(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	p := newPlan(arch, m)
	p.sizeTiles()
	p.globalRoute()
	p.assignTracks()
	p.buildCellGrid()
	// Two horizontal segments over the same cells: second one collides.
	if n := p.markH(10, 14, 5); n != 5 {
		t.Fatalf("marked %d cells, want 5", n)
	}
	if cells, coll := countOccupancy(p.hSegs); cells != 5 || coll != 0 {
		t.Fatalf("after first mark: %d cells, %d collisions; want 5, 0", cells, coll)
	}
	p.markH(12, 16, 5)
	if cells, coll := countOccupancy(p.hSegs); cells != 7 || coll != 3 { // cells 12,13,14 double-claimed
		t.Errorf("after overlapping mark: %d cells, %d collisions; want 7, 3", cells, coll)
	}
	// Vertical direction is independent: crossing the horizontal
	// cells adds vertical occupancy but no collisions.
	p.markV(3, 7, 12)
	if cells, coll := countOccupancy(p.vSegs); cells != 5 || coll != 0 {
		t.Errorf("vertical mark: %d cells, %d collisions; want 5, 0", cells, coll)
	}
	if cells, coll := countOccupancy(p.hSegs); cells != 7 || coll != 3 {
		t.Errorf("vertical mark changed horizontal counts to %d cells, %d collisions", cells, coll)
	}
	// Degenerate/clamped ranges.
	if n := p.markH(5, 4, 0); n != 0 {
		t.Errorf("inverted range marked %d cells", n)
	}
	// Clamped to a single cell at the boundary; it must not panic.
	p.markV(-10, -5, 0)
	if cells, coll := countOccupancy(p.vSegs); cells != 6 || coll != 0 {
		t.Errorf("clamped mark: %d vertical cells, %d collisions; want 6, 0", cells, coll)
	}
}

// TestCountOccupancy checks the segment sweep against a dense
// per-cell count on overlapping, nested, adjacent, and duplicate
// segments spread over several lines, given in unsorted order.
func TestCountOccupancy(t *testing.T) {
	segs := []segment{
		{line: 2, lo: 4, hi: 9},
		{line: 0, lo: 0, hi: 3},
		{line: 2, lo: 5, hi: 6},   // nested
		{line: 0, lo: 4, hi: 6},   // adjacent, no overlap
		{line: 2, lo: 8, hi: 12},  // overlaps the tail
		{line: 1, lo: 3, hi: 3},   // single cell
		{line: 1, lo: 3, hi: 3},   // duplicate
		{line: 2, lo: 20, hi: 21}, // disjoint on the same line
		{line: 0, lo: 2, hi: 5},
	}
	dense := map[[2]int]int{}
	for _, s := range segs {
		for c := s.lo; c <= s.hi; c++ {
			dense[[2]int{s.line, c}]++
		}
	}
	wantCells, wantColl := 0, 0
	for _, k := range dense {
		wantCells++
		wantColl += k - 1
	}
	cells, coll := countOccupancy(segs)
	if cells != wantCells || coll != wantColl {
		t.Errorf("countOccupancy = %d cells, %d collisions; dense count gives %d, %d",
			cells, coll, wantCells, wantColl)
	}
	if cells, coll := countOccupancy(nil); cells != 0 || coll != 0 {
		t.Errorf("no segments: %d cells, %d collisions", cells, coll)
	}
}

// TestEvaluateAllocations guards the implicit cell grid: evaluating
// the densest 7x8 sparse Hamming configuration (every offset, i.e. the
// flattened butterfly) allocates in proportion to its links, not to
// its chip area of about a million unit-cells.
func TestEvaluateAllocations(t *testing.T) {
	arch := tech.Scenario(tech.ScenarioA)
	arch.Rows, arch.Cols = 7, 8
	tp, err := topo.NewSparseHamming(7, 8, topo.HammingParams{
		SR: []int{2, 3, 4, 5, 6, 7}, SC: []int{2, 3, 4, 5, 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := Evaluate(arch, tp)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.CellsX*res.CellsY < 500_000 {
		t.Fatalf("grid of %dx%d cells is too small to guard the implicit grid", res.CellsX, res.CellsY)
	}
	const limit = 512 << 10
	if got := after.TotalAlloc - before.TotalAlloc; got >= limit {
		t.Errorf("Evaluate allocated %d bytes, want < %d", got, limit)
	}
}

func TestAspectRatioChangesTileShape(t *testing.T) {
	arch := tech.Scenario(tech.ScenarioA)
	arch.TileAspect = 2 // tall tiles
	m, err := topo.NewMesh(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Evaluate(arch, m)
	if err != nil {
		t.Fatal(err)
	}
	if res.TileHeightMm <= res.TileWidthMm {
		t.Errorf("aspect 2: height %v not above width %v", res.TileHeightMm, res.TileWidthMm)
	}
	ratio := res.TileHeightMm / res.TileWidthMm
	if ratio < 1.9 || ratio > 2.1 {
		t.Errorf("aspect ratio %v, want ~2", ratio)
	}
}
