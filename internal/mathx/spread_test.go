package mathx

import (
	"math"
	"math/rand"
	"testing"
)

// spreadOracle is the per-slot loop the demand and throughput traces
// ran before SpreadUniform, kept verbatim (vran's form, with the slot
// width as a parameter) as the kernel's bit-identity oracle.
func spreadOracle(row []float64, start, end, rate, width float64) {
	for m := int(math.Max(start, 0) / width); m < len(row); m++ {
		lo := math.Max(start, float64(m)*width)
		hi := math.Min(end, float64(m+1)*width)
		if hi <= lo {
			break
		}
		row[m] += rate * (hi - lo)
	}
}

// randSpan draws a session interval that lands on the awkward cases
// with high probability: starts and ends exactly on slot edges,
// sub-slot lengths, starts before 0, spills past the row end and very
// long durations.
func randSpan(rng *rand.Rand, slots int, width float64) (start, end float64) {
	horizon := float64(slots) * width
	switch rng.Intn(4) {
	case 0: // on a slot edge
		start = float64(rng.Intn(slots+2)) * width
	case 1: // before the origin
		start = -rng.Float64() * 3 * width
	default:
		start = rng.Float64() * (horizon + width)
	}
	var dur float64
	switch rng.Intn(5) {
	case 0: // sub-slot
		dur = rng.Float64() * width
	case 1: // whole slots, so the end lands on an edge when start does
		dur = float64(1+rng.Intn(slots+1)) * width
	case 2: // very long
		dur = rng.Float64() * 1e6 * width
	case 3: // ends exactly on a slot edge
		k := math.Floor(math.Max(start, 0)/width) + float64(1+rng.Intn(3))
		dur = k*width - start
	default:
		dur = math.Exp(rng.NormFloat64()*1.5) * width / 2
	}
	if dur <= 0 {
		dur = width / 3
	}
	return start, start + dur
}

// TestSpreadUniformMatchesOracle feeds randomized sessions through the
// kernel and the oracle in the same order and requires every slot to
// match bit for bit.
func TestSpreadUniformMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, width := range []float64{1, 60} {
		for trial := 0; trial < 400; trial++ {
			slots := 1 + rng.Intn(60)
			got := make([]float64, slots)
			want := make([]float64, slots)
			for k := 0; k < 40; k++ {
				start, end := randSpan(rng, slots, width)
				rate := math.Exp(rng.NormFloat64() * 4)
				SpreadUniform(got, start, end, rate, width)
				spreadOracle(want, start, end, rate, width)
			}
			for m := range want {
				if math.Float64bits(got[m]) != math.Float64bits(want[m]) {
					t.Fatalf("width %v trial %d slot %d: kernel %v, oracle %v",
						width, trial, m, got[m], want[m])
				}
			}
		}
	}
}

func TestSpreadUniformEdges(t *testing.T) {
	cases := []struct {
		name       string
		start, end float64
		want       []float64
	}{
		{"interior", 30, 150, []float64{30, 60, 30, 0}},
		{"edge to edge", 60, 180, []float64{0, 60, 60, 0}},
		{"sub-slot", 70, 80, []float64{0, 10, 0, 0}},
		{"spill past end", 200, 1e9, []float64{0, 0, 0, 40}},
		{"negative start", -130, 90, []float64{60, 30, 0, 0}},
		{"ends before origin", -130, -10, []float64{0, 0, 0, 0}},
		{"starts past end", 240, 300, []float64{0, 0, 0, 0}},
		{"empty", 100, 100, []float64{0, 0, 0, 0}},
		{"NaN start", math.NaN(), 100, []float64{0, 0, 0, 0}},
		{"NaN end", 10, math.NaN(), []float64{0, 0, 0, 0}},
		{"infinite end", 10, math.Inf(1), []float64{50, 60, 60, 60}},
		{"huge start", 1e300, math.Inf(1), []float64{0, 0, 0, 0}},
	}
	for _, c := range cases {
		row := make([]float64, 4)
		SpreadUniform(row, c.start, c.end, 1, 60)
		for m := range row {
			if row[m] != c.want[m] {
				t.Errorf("%s: row = %v, want %v", c.name, row, c.want)
				break
			}
		}
	}
}

func TestIsFinite(t *testing.T) {
	for _, v := range []float64{0, -1, 1e308, math.SmallestNonzeroFloat64} {
		if !IsFinite(v) {
			t.Errorf("IsFinite(%v) = false", v)
		}
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if IsFinite(v) {
			t.Errorf("IsFinite(%v) = true", v)
		}
	}
}

// BenchmarkSpreadUniform rasterizes a day-scale population of 4096
// sessions (log-normal durations around a minute) into a two-day minute
// row; one op is the whole population.
func BenchmarkSpreadUniform(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const n = 4096
	starts := make([]float64, n)
	ends := make([]float64, n)
	for i := range starts {
		starts[i] = rng.Float64() * 86400
		ends[i] = starts[i] + math.Exp(rng.NormFloat64()*1.5)*60
	}
	row := make([]float64, 2*24*60)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := range starts {
			SpreadUniform(row, starts[k], ends[k], 1e3, 60)
		}
	}
}
