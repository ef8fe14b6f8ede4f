// Package mathx provides the numerical substrate shared by the traffic
// characterization and modeling pipeline: descriptive statistics,
// Savitzky-Golay smoothing, numerical integration, interpolation, small
// dense linear solvers, and binning helpers.
//
// Everything is implemented on plain float64 slices with no external
// dependencies, and is deterministic given the same inputs.
package mathx

import (
	"errors"
	"math"
	"math/bits"
	"sort"
)

// ErrEmpty is returned by statistics that are undefined on empty input.
var ErrEmpty = errors.New("mathx: empty input")

// Sum returns the sum of xs. Sum of an empty slice is 0.
func Sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// Mean returns the arithmetic mean of xs. It returns NaN for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return Sum(xs) / float64(len(xs))
}

// WeightedMean returns sum(w_i*x_i)/sum(w_i). It returns NaN if the
// weights sum to zero or the lengths differ.
func WeightedMean(xs, ws []float64) float64 {
	if len(xs) != len(ws) || len(xs) == 0 {
		return math.NaN()
	}
	var sw, swx float64
	for i, x := range xs {
		sw += ws[i]
		swx += ws[i] * x
	}
	if sw == 0 {
		return math.NaN()
	}
	return swx / sw
}

// Variance returns the unbiased sample variance of xs (denominator n-1).
// It returns 0 for slices of length < 2.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(n-1)
}

// PopVariance returns the population variance of xs (denominator n).
func PopVariance(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(n)
}

// Std returns the unbiased sample standard deviation of xs.
func Std(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// CV returns the coefficient of variation (std/mean) of xs.
// It returns NaN when the mean is zero.
func CV(xs []float64) float64 {
	m := Mean(xs)
	if m == 0 {
		return math.NaN()
	}
	return Std(xs) / m
}

// Skewness returns the adjusted Fisher-Pearson sample skewness of xs.
// It returns 0 for slices of length < 3 or zero variance.
func Skewness(xs []float64) float64 {
	n := float64(len(xs))
	if n < 3 {
		return 0
	}
	m := Mean(xs)
	var m2, m3 float64
	for _, x := range xs {
		d := x - m
		m2 += d * d
		m3 += d * d * d
	}
	m2 /= n
	m3 /= n
	if m2 == 0 {
		return 0
	}
	g1 := m3 / math.Pow(m2, 1.5)
	return g1 * math.Sqrt(n*(n-1)) / (n - 2)
}

// MinMax returns the minimum and maximum of xs.
// It returns (NaN, NaN) for empty input.
func MinMax(xs []float64) (min, max float64) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN()
	}
	min, max = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max
}

// Median returns the median of xs without modifying it.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// Quantile returns the q-th quantile of xs (0 <= q <= 1) using linear
// interpolation between order statistics (type-7, the numpy default).
// The input is not modified. It returns NaN for empty input or q
// outside [0, 1].
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 || q < 0 || q > 1 {
		return math.NaN()
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	return QuantileSorted(s, q)
}

// QuantileSorted is Quantile for inputs already sorted ascending.
func QuantileSorted(s []float64, q float64) float64 {
	if len(s) == 0 || q < 0 || q > 1 {
		return math.NaN()
	}
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Percentiles returns the quantiles of xs at each probability in ps,
// sorting the data only once.
func Percentiles(xs []float64, ps []float64) []float64 {
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = QuantileSorted(s, p)
	}
	return out
}

// SelectQuantiles returns the quantiles of xs at each probability in
// qs, each bit-identical to QuantileSorted over a sorted copy of xs
// (NaNs first, as sort.Float64s orders them; like the sort, it leaves
// -0 and +0 unordered), in expected linear time instead of a sort. It
// reorders xs. For ascending qs each selection works only on the part
// of xs the previous one left above its order statistic; out-of-order
// qs restart the selection and stay correct.
func SelectQuantiles(xs, qs []float64) []float64 {
	// NaNs sort first: move them to the front so that selection never
	// meets one.
	nan := 0
	for i, x := range xs {
		if x != x {
			xs[i], xs[nan] = xs[nan], x
			nan++
		}
	}
	// xs[:fixed] holds the fixed smallest values, and every order
	// statistic placed since the last restart sits at its sorted index
	// there; selection only permutes xs[fixed:].
	fixed, prev := nan, -1
	place := func(k int) {
		if k < fixed {
			return
		}
		selectNth(xs[fixed:], k-fixed)
		fixed = k + 1
	}
	out := make([]float64, len(qs))
	for i, q := range qs {
		if len(xs) > 1 && q >= 0 && q <= 1 {
			// The order statistics QuantileSorted reads.
			pos := q * float64(len(xs)-1)
			lo, hi := int(math.Floor(pos)), int(math.Ceil(pos))
			if lo < prev {
				fixed = nan
			}
			prev = lo
			place(lo)
			place(hi)
		}
		out[i] = QuantileSorted(xs, q)
	}
	return out
}

// selectNth reorders xs, which holds no NaN, so that xs[k] is the
// value sorting would put there, with nothing greater before it and
// nothing smaller after it. It is a quickselect: the pivot is the
// median of the range's quartile elements, the partition compares
// order-preserving integer keys so its loop has no data-dependent
// branch, and a range that keeps partitioning badly is sorted instead.
func selectNth(xs []float64, k int) {
	if k == 0 {
		m := 0
		for i, x := range xs {
			if x < xs[m] {
				m = i
			}
		}
		xs[0], xs[m] = xs[m], xs[0]
		return
	}
	lo, hi := 0, len(xs)
	for depth := 2 * bits.Len(uint(len(xs))); hi-lo > 16; depth-- {
		if depth == 0 {
			sort.Float64s(xs[lo:hi])
			return
		}
		q := (hi - lo) / 4
		a, b, c := lo+q, lo+2*q, lo+3*q
		if xs[b] < xs[a] {
			a, b = b, a
		}
		if xs[c] < xs[b] {
			b = c
			if xs[b] < xs[a] {
				b = a
			}
		}
		xs[lo], xs[b] = xs[b], xs[lo]
		p := xs[lo]
		kp := orderKey(p)
		// Lomuto: xs[lo+1:j] < p <= xs[j:i].
		j := lo + 1
		for i := lo + 1; i < hi; i++ {
			x := xs[i]
			xs[i] = xs[j]
			xs[j] = x
			_, less := bits.Sub64(orderKey(x), kp, 0)
			j += int(less)
		}
		m := j - 1
		xs[lo], xs[m] = xs[m], p
		if m == lo {
			// p is the range minimum: gather its copies, so that heavy
			// ties cost one pass instead of one round per copy.
			e := lo + 1
			for i := lo + 1; i < hi; i++ {
				if x := xs[i]; x == p {
					xs[i] = xs[e]
					xs[e] = x
					e++
				}
			}
			if k < e {
				return
			}
			lo = e
			continue
		}
		switch {
		case k < m:
			hi = m
		case k > m:
			lo = m + 1
		default:
			return
		}
	}
	for i := lo + 1; i < hi; i++ {
		for j := i; j > lo && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// orderKey maps a non-NaN float64 to a uint64 with the same order
// (-0 just below +0).
func orderKey(x float64) uint64 {
	b := math.Float64bits(x)
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// Clamp limits x to the interval [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// AbsPercentageError returns |got-want|/|want| expressed as a percentage.
// When want is zero it returns 0 if got is also zero and +Inf otherwise.
func AbsPercentageError(got, want float64) float64 {
	if want == 0 {
		if got == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(got-want) / math.Abs(want) * 100
}
