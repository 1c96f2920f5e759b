package phys

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"testing"

	"sparsehamming/internal/tech"
	"sparsehamming/internal/topo"
)

// physDigest is the SHA-256 of renderResult over the inputs of
// TestEvaluateDigest. A change to any area, power, geometry, track,
// collision, or per-link figure of any pinned input changes it. Only
// update it for a deliberate change of the cost model, and say so.
const physDigest = "00d59cd99645fca819f06f5cdf21e73f1d42a7862f650a2edf599569e7f9303f"

// renderResult writes every field of a Result: integers exactly,
// floats at nine significant digits.
func renderResult(w io.Writer, r *Result) {
	fmt.Fprintf(w, "tile=%.9g,%.9g cell=%.9g,%.9g chip=%.9g,%.9g cells=%d,%d\n",
		r.TileWidthMm, r.TileHeightMm, r.CellWidthMm, r.CellHeightMm,
		r.ChipWidthMm, r.ChipHeightMm, r.CellsX, r.CellsY)
	fmt.Fprintf(w, "router=%.9g ports=%d,%d htracks=%v vtracks=%v\n",
		r.RouterGE, r.MaxPortsIn, r.MaxPortsOut, r.HChanTracks, r.VChanTracks)
	fmt.Fprintf(w, "area=%.9g,%.9g,%.9g cells=%d,%d,%d power=%.9g,%.9g,%.9g\n",
		r.TotalAreaMm2, r.NoNoCAreaMm2, r.AreaOverhead,
		r.NLogicCells, r.NHCells, r.NVCells,
		r.TotalPowerW, r.NoNoCPowerW, r.NoCPowerW)
	fmt.Fprintf(w, "collisions=%d util=%.9g latencies=%v lengths=",
		r.Collisions, r.ChannelUtilization, r.LinkLatencies)
	for _, l := range r.LinkLengthsMm {
		fmt.Fprintf(w, "%.9g ", l)
	}
	fmt.Fprintln(w)
}

// TestEvaluateDigest pins Evaluate bit for bit on two input sets:
// every registered topology family on the grid of every preset
// architecture, and the full 6x6 sparse Hamming space (256
// configurations) under scenario a's parameters.
func TestEvaluateDigest(t *testing.T) {
	h := sha256.New()
	evaluate := func(label string, arch *tech.Arch, tp *topo.Topology) {
		t.Helper()
		res, err := Evaluate(arch, tp)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		fmt.Fprintf(h, "%s\n", label)
		renderResult(h, res)
	}

	for _, name := range tech.PresetNames() {
		arch := tech.ArchByName(name)
		for _, kind := range topo.Names() {
			fam, _ := topo.FamilyByName(kind)
			if fam.Applicable(arch.Rows, arch.Cols) != nil {
				continue
			}
			var sr, sc []int
			if kind == "sparse-hamming" {
				sr, sc = []int{2, 5}, []int{3}
			}
			tp, err := topo.ByName(kind, arch.Rows, arch.Cols, sr, sc)
			if err != nil {
				t.Fatalf("%s on %s: %v", kind, name, err)
			}
			evaluate(name+" "+kind, arch, tp)
		}
	}

	arch := tech.Scenario(tech.ScenarioA)
	arch.Rows, arch.Cols = 6, 6
	space, err := topo.HammingSpace(6, 6, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(space) != 256 {
		t.Fatalf("6x6 space has %d configurations, want 256", len(space))
	}
	for _, p := range space {
		tp, err := topo.NewSparseHamming(6, 6, p)
		if err != nil {
			t.Fatal(err)
		}
		evaluate(fmt.Sprintf("a6x6 %v %v", p.SR, p.SC), arch, tp)
	}

	if got := hex.EncodeToString(h.Sum(nil)); got != physDigest {
		t.Errorf("Evaluate digest = %s, want %s", got, physDigest)
	}
}
