package dist

import (
	"fmt"
	"math"
	"sort"
)

// KSTwoSample computes the two-sample Kolmogorov-Smirnov statistic
// between sample sets a and b — the supremum distance between their
// empirical CDFs — together with the asymptotic p-value of the null
// hypothesis that both sets come from the same distribution. It is used
// to verify that model-generated sessions are statistically
// indistinguishable from measured ones (§5.4's generator fidelity).
func KSTwoSample(a, b []float64) (d, pvalue float64, err error) {
	if len(a) == 0 || len(b) == 0 {
		return 0, 0, fmt.Errorf("dist: KS needs non-empty samples, got %d/%d", len(a), len(b))
	}
	as := append([]float64(nil), a...)
	bs := append([]float64(nil), b...)
	sort.Float64s(as)
	sort.Float64s(bs)
	na, nb := len(as), len(bs)
	var i, j int
	for i < na && j < nb {
		x := math.Min(as[i], bs[j])
		for i < na && as[i] <= x {
			i++
		}
		for j < nb && bs[j] <= x {
			j++
		}
		fa := float64(i) / float64(na)
		fb := float64(j) / float64(nb)
		if diff := math.Abs(fa - fb); diff > d {
			d = diff
		}
	}
	en := math.Sqrt(float64(na) * float64(nb) / float64(na+nb))
	pvalue = ksSurvival((en + 0.12 + 0.11/en) * d)
	return d, pvalue, nil
}

// cdfSlack is the rounding KSOneSample tolerates in a reference CDF's
// range: a mixture of CDFs summed in floating point can stray from
// [0, 1] by a few ulps.
const cdfSlack = 1e-9

// KSOneSample computes the one-sample Kolmogorov-Smirnov statistic of
// sample against a reference distribution — the supremum distance
// between the sample's empirical CDF and cdf — together with the
// asymptotic p-value of the null hypothesis that the sample was drawn
// from it. It tests simulated marginals against their analytic ground
// truth.
//
// cdf must be non-decreasing and right-continuous with values in
// [0, 1] (up to rounding); NaN values are rejected. It may jump, e.g. at a clamp boundary that collects a point
// mass: the distance just below each distinct sample value is taken
// against cdf's left limit, evaluated at the next float down, so
// samples tied on an atom are not charged its mass. With atoms the
// asymptotic p-value is conservative.
func KSOneSample(sample []float64, cdf func(float64) float64) (d, pvalue float64, err error) {
	if len(sample) == 0 {
		return 0, 0, fmt.Errorf("dist: KS needs a non-empty sample")
	}
	if cdf == nil {
		return 0, 0, fmt.Errorf("dist: KS needs a reference CDF")
	}
	xs := append([]float64(nil), sample...)
	sort.Float64s(xs)
	if math.IsNaN(xs[0]) {
		return 0, 0, fmt.Errorf("dist: KS sample contains NaN")
	}
	n := float64(len(xs))
	for i := 0; i < len(xs); {
		x := xs[i]
		j := i + 1
		for j < len(xs) && xs[j] == x {
			j++
		}
		// The empirical CDF steps from i/n to j/n at x.
		below, at := cdf(math.Nextafter(x, math.Inf(-1))), cdf(x)
		if !(below >= -cdfSlack && at <= 1+cdfSlack) {
			return 0, 0, fmt.Errorf("dist: reference CDF leaves [0, 1] at %v (%v, %v)", x, below, at)
		}
		d = math.Max(d, math.Max(float64(j)/n-at, below-float64(i)/n))
		i = j
	}
	en := math.Sqrt(n)
	return d, ksSurvival((en + 0.12 + 0.11/en) * d), nil
}

// ksSurvival evaluates the Kolmogorov distribution's survival function
// Q(lambda) = 2 sum_{k>=1} (-1)^{k-1} exp(-2 k^2 lambda^2).
func ksSurvival(lambda float64) float64 {
	if lambda <= 0 {
		return 1
	}
	var sum float64
	sign := 1.0
	l2 := -2 * lambda * lambda
	for k := 1; k <= 100; k++ {
		term := sign * math.Exp(l2*float64(k)*float64(k))
		sum += term
		if math.Abs(term) < 1e-12 {
			break
		}
		sign = -sign
	}
	p := 2 * sum
	return mathClamp(p, 0, 1)
}

func mathClamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
