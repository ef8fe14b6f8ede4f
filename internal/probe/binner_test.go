package probe

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"mobiletraffic/internal/dist"
)

// logBin is the log-domain oracle of binner.bin: the bin
// dist.Hist.BinIndex gives Log10(Max(x, 1)) on the histogram's grid.
func logBin(h *dist.Hist, x float64) int {
	return h.BinIndex(math.Log10(math.Max(x, 1)))
}

// binnerProbes returns the values on which a binner is most likely to
// be wrong: every threshold and its float neighbours, every table-cell
// boundary and its neighbours, the special values (zeros, subnormals,
// 1, the largest float, the infinities), negatives, and 10^5 draws
// log-uniform over the grid's range and a decade or two past it.
func binnerProbes(edges []float64, b *binner) []float64 {
	out := []float64{
		0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, math.Float64frombits(1<<52 - 1),
		0x1p-1022, 1, math.Nextafter(1, 0), math.Nextafter(1, 2), math.MaxFloat64,
		math.Inf(1), math.Inf(-1), -1, -0.5, -1e300, -math.MaxFloat64,
	}
	near := func(x float64) {
		if !math.IsNaN(x) { // a cell past +Inf; ingest rejects NaN
			out = append(out, x, math.Nextafter(x, math.Inf(-1)), math.Nextafter(x, math.Inf(1)))
		}
	}
	for _, e := range edges {
		near(linThr(e))
		near(math.Pow(10, e))
	}
	for k := range b.tab {
		near(math.Float64frombits(uint64(b.lo+k) << b.shift))
	}
	rng := rand.New(rand.NewSource(int64(len(edges))))
	lo, hi := edges[0]-2, edges[len(edges)-1]+2
	for range 100_000 {
		out = append(out, math.Pow(10, lo+(hi-lo)*rng.Float64()))
	}
	return out
}

// oneCompare reports whether every lookup of b finishes with one
// compare: no table cell holds two different thresholds, and every bin
// fits a table entry.
func oneCompare(b *binner) bool {
	inner := b.upper[:len(b.upper)-1]
	for j := 1; j < len(inner); j++ {
		if inner[j] != inner[j-1] && inner[j]>>b.shift == inner[j-1]>>b.shift {
			return false
		}
	}
	return len(b.upper) <= math.MaxUint16+1
}

// TestBinnerMatchesLogOracle pins the float-bits binner to the
// log-domain oracle on every value binnerProbes returns, over the
// default grids, a non-uniform grid, grids with equal thresholds
// (edges at or below 0, and unreachable edges past Log10(MaxFloat64)),
// and grids planted to force each way a lookup can need more than one
// compare: two thresholds closer than the finest table cell, and more
// bins than a table entry holds.
func TestBinnerMatchesLogOracle(t *testing.T) {
	grid := func(bins int) []float64 {
		edges := make([]float64, bins+1)
		for i := range edges {
			edges[i] = 10 * float64(i) / float64(bins)
		}
		return edges
	}
	for _, c := range []struct {
		name  string
		edges []float64
		walks bool // some lookups need more than one compare
	}{
		{"volume", DefaultVolumeEdges, false},
		{"duration", DefaultDurationEdges, false},
		{"non-uniform", []float64{0, 0.3, 1, 2.5, 5}, false},
		{"zero threshold", []float64{-1, 0, 0.5}, false},
		{"close edges", []float64{0, 2, 2.5, 2.5 + 1e-13, 5}, true},
		{"edges below 0", []float64{-2, -1, 0, 1, 2}, false},
		{"unreachable edges", []float64{0, 300, 309, 310, 311}, false},
		{"300 bins", grid(300), false},
		{"more bins than an entry holds", grid(66_000), true},
	} {
		t.Run(c.name, func(t *testing.T) {
			b := newBinner(slices.Clone(c.edges))
			if got := !oneCompare(&b); got != c.walks {
				t.Fatalf("lookups walk = %v, want %v", got, c.walks)
			}
			h := &dist.Hist{Edges: c.edges, P: make([]float64, len(c.edges)-1)}
			for _, x := range binnerProbes(c.edges, &b) {
				if got, want := b.bin(x), logBin(h, x); got != want {
					t.Fatalf("bin(%v) = %d, oracle %d", x, got, want)
				}
			}
		})
	}
}
