package dist

import (
	"fmt"
	"math"
)

// Chi-square tests over binned counts, the categorical complement of
// the KS tests: the sampler's analytic oracle suite uses Chi2GoF to
// check its per-service share and arrival-count marginals against the
// seeded ground truth (DESIGN.md "Sampler stream and determinism").

// Chi2GoF computes Pearson's goodness-of-fit statistic of observed
// counts against expected category probabilities, with the p-value of
// the null hypothesis that the observations were drawn from them.
// probs need not be normalized. Categories with zero expected mass
// must have zero observations.
func Chi2GoF(obs, probs []float64) (stat float64, df int, pvalue float64, err error) {
	if len(obs) == 0 || len(obs) != len(probs) {
		return 0, 0, 0, fmt.Errorf("dist: chi2 needs matching non-empty counts/probs, got %d/%d", len(obs), len(probs))
	}
	var n, w float64
	for i := range obs {
		if obs[i] < 0 || probs[i] < 0 {
			return 0, 0, 0, fmt.Errorf("dist: negative count or probability at %d", i)
		}
		n += obs[i]
		w += probs[i]
	}
	if n <= 0 || w <= 0 {
		return 0, 0, 0, fmt.Errorf("dist: chi2 needs positive totals")
	}
	df = -1
	for i := range obs {
		e := n * probs[i] / w
		if e == 0 {
			if obs[i] != 0 {
				return 0, 0, 0, fmt.Errorf("dist: observations in zero-probability category %d", i)
			}
			continue
		}
		d := obs[i] - e
		stat += d * d / e
		df++
	}
	if df < 1 {
		return 0, 0, 0, fmt.Errorf("dist: chi2 needs at least two non-degenerate categories")
	}
	return stat, df, chi2Survival(stat, df), nil
}

// Chi2Homogeneity computes the two-sample chi-square statistic over
// matched category counts (Press et al.'s chstwo, valid for unequal
// sample totals) with the p-value of the null hypothesis that both
// count vectors come from one categorical distribution. Categories
// empty in both samples are skipped.
func Chi2Homogeneity(a, b []float64) (stat float64, df int, pvalue float64, err error) {
	if len(a) == 0 || len(a) != len(b) {
		return 0, 0, 0, fmt.Errorf("dist: chi2 needs matching non-empty count vectors, got %d/%d", len(a), len(b))
	}
	var na, nb float64
	for i := range a {
		if a[i] < 0 || b[i] < 0 {
			return 0, 0, 0, fmt.Errorf("dist: negative count at %d", i)
		}
		na += a[i]
		nb += b[i]
	}
	if na <= 0 || nb <= 0 {
		return 0, 0, 0, fmt.Errorf("dist: chi2 needs positive totals")
	}
	ra, rb := math.Sqrt(nb/na), math.Sqrt(na/nb)
	df = -1
	for i := range a {
		tot := a[i] + b[i]
		if tot == 0 {
			continue
		}
		t := ra*a[i] - rb*b[i]
		stat += t * t / tot
		df++
	}
	if df < 1 {
		return 0, 0, 0, fmt.Errorf("dist: chi2 needs at least two non-empty categories")
	}
	return stat, df, chi2Survival(stat, df), nil
}

// chi2Survival evaluates P(X > stat) for X ~ chi-square with df
// degrees of freedom: the upper regularized incomplete gamma
// Q(df/2, stat/2).
func chi2Survival(stat float64, df int) float64 {
	if stat <= 0 {
		return 1
	}
	return gammaQ(float64(df)/2, stat/2)
}

// gammaQ is the upper regularized incomplete gamma function Q(a, x),
// via the series expansion for x < a+1 and the Lentz continued
// fraction otherwise (Numerical Recipes gser/gcf).
func gammaQ(a, x float64) float64 {
	if x < 0 || a <= 0 {
		return math.NaN()
	}
	if x == 0 {
		return 1
	}
	lg, _ := math.Lgamma(a)
	if x < a+1 {
		// P(a, x) by series, return 1 - P.
		ap := a
		sum := 1 / a
		del := sum
		for i := 0; i < 500; i++ {
			ap++
			del *= x / ap
			sum += del
			if math.Abs(del) < math.Abs(sum)*1e-15 {
				break
			}
		}
		return 1 - sum*math.Exp(-x+a*math.Log(x)-lg)
	}
	// Q(a, x) by continued fraction.
	const tiny = 1e-300
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i < 500; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < 1e-15 {
			break
		}
	}
	return math.Exp(-x+a*math.Log(x)-lg) * h
}
