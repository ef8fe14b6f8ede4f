package mathx

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// selectInputs returns named test inputs of length n: the shapes a
// quickselect pivot rule can stumble on (sorted, reversed, organ pipe,
// heavy ties, all equal) plus heavy-tailed draws with NaNs and
// infinities mixed in.
func selectInputs(rng *rand.Rand, n int) map[string][]float64 {
	gen := func(f func(i int) float64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = f(i)
		}
		return xs
	}
	return map[string][]float64{
		"lognormal": gen(func(int) float64 { return math.Exp(rng.NormFloat64()*2 + 12) }),
		"pareto":    gen(func(int) float64 { return math.Pow(1-rng.Float64(), -1/1.1) }),
		"ties":      gen(func(int) float64 { return float64(rng.Intn(4)) }),
		"equal":     gen(func(int) float64 { return 42.5 }),
		"sorted":    gen(func(i int) float64 { return float64(i) }),
		"reversed":  gen(func(i int) float64 { return float64(n - i) }),
		"organpipe": gen(func(i int) float64 { return float64(min(i, n-i)) }),
		"sawtooth":  gen(func(i int) float64 { return float64(i % 7) }),
		"nans": gen(func(int) float64 {
			switch rng.Intn(8) {
			case 0:
				return math.NaN()
			case 1:
				return math.Inf(1)
			case 2:
				return math.Inf(-1)
			}
			return rng.NormFloat64()
		}),
		"allnan": gen(func(int) float64 { return math.NaN() }),
	}
}

// TestSelectQuantilesMatchesSort checks the selection kernel against
// its definition — sort.Float64s then QuantileSorted — bit for bit,
// for ascending, shuffled and out-of-range probabilities, and checks
// that it only permutes its input.
func TestSelectQuantilesMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	qsets := [][]float64{
		{0, 0.5, 0.9, 0.99, 1},
		{0.5, 0.9, 0.99},
		{0.99, 0.5, 1, 0, 0.9, 0.9},
		{-0.1, 0.25, 0.75, 1.5},
		{0.3},
	}
	for _, n := range []int{0, 1, 2, 3, 16, 17, 100, 1001, 100000} {
		for name, xs := range selectInputs(rng, n) {
			for _, qs := range qsets {
				sorted := append([]float64(nil), xs...)
				sort.Float64s(sorted)
				work := append([]float64(nil), xs...)
				got := SelectQuantiles(work, qs)
				for i, q := range qs {
					want := QuantileSorted(sorted, q)
					if math.Float64bits(got[i]) != math.Float64bits(want) {
						t.Fatalf("n=%d %s qs=%v: q=%v got %v (%#x), want %v (%#x)",
							n, name, qs, q, got[i], math.Float64bits(got[i]), want, math.Float64bits(want))
					}
				}
				sort.Float64s(work)
				for i := range work {
					if math.Float64bits(work[i]) != math.Float64bits(sorted[i]) {
						t.Fatalf("n=%d %s: SelectQuantiles changed the multiset at sorted index %d", n, name, i)
					}
				}
			}
		}
	}
}

// TestSelectNthMatchesSort checks the selection primitive at every
// rank of small inputs and at sampled ranks of large ones: xs[k] is
// the sorted value, nothing before it is greater, nothing after it
// smaller.
func TestSelectNthMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 2, 5, 17, 40, 5000} {
		for name, xs := range selectInputs(rng, n) {
			if name == "nans" || name == "allnan" {
				continue // selectNth takes NaN-free input
			}
			sorted := append([]float64(nil), xs...)
			sort.Float64s(sorted)
			for k := 0; k < n; k += 1 + n/50 {
				work := append([]float64(nil), xs...)
				selectNth(work, k)
				if work[k] != sorted[k] {
					t.Fatalf("n=%d %s k=%d: got %v, want %v", n, name, k, work[k], sorted[k])
				}
				for i, x := range work {
					if (i < k && x > work[k]) || (i > k && x < work[k]) {
						t.Fatalf("n=%d %s k=%d: %v at %d is on the wrong side of %v", n, name, k, x, i, work[k])
					}
				}
			}
		}
	}
}

func BenchmarkSelectQuantiles(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	src := make([]float64, 1<<20)
	for i := range src {
		src[i] = math.Exp(rng.NormFloat64()*2 + 12)
	}
	work := make([]float64, len(src))
	qs := []float64{0.5, 0.9, 0.99}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		copy(work, src)
		b.StartTimer()
		SelectQuantiles(work, qs)
	}
}
