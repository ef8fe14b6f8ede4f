// Package oracle holds the analytic ground truth that the one-sample
// test suites check the samplers against: closed-form marginals of the
// session models shared by the measurement sampler (internal/netsim)
// and the released-model generator (internal/core). Every function
// takes plain parameter values, so either plane's tests can build its
// truth without this package importing the code under test.
//
// The package is test support: import it only from _test.go files.
package oracle

import (
	"math"

	"mobiletraffic/internal/dist"
)

// phi is the standard normal CDF.
var phi = dist.Normal{Mu: 0, Sigma: 1}.CDF

// mixtureOf builds the mixture of Normal components with weights w.
func mixtureOf(comps []dist.Normal, w []float64) (*dist.Mixture, error) {
	ds := make([]dist.Dist, len(comps))
	for k, c := range comps {
		ds[k] = c
	}
	return dist.NewMixture(ds, w)
}

// VolumeCDF is the CDF of log10 volume: the mixture of the Normal
// components comps with weights w, with the mass above capLog10
// collected on an atom at the cap.
func VolumeCDF(comps []dist.Normal, w []float64, capLog10 float64) (func(float64) float64, error) {
	mix, err := mixtureOf(comps, w)
	if err != nil {
		return nil, err
	}
	return func(x float64) float64 {
		if x >= capLog10 {
			return 1
		}
		return mix.CDF(x)
	}, nil
}

// PowerLaw is the duration law of a volume v:
// log10 d = (log10 v − Log10Alpha)/Beta + Noise·Z with Z standard
// normal, clamped to [1 s, 10^TopLog10 s].
type PowerLaw struct {
	Log10Alpha, Beta, Noise float64
	TopLog10                float64
}

// DurationCDF is the CDF of log10 duration for log10 volumes drawn from
// the mixture of vol with weights w, capped at capLog10, through law.
// An uncapped volume component N(μ_k, σ_k) maps to
// N((μ_k − log10 α)/β, √(σ_k²/β² + noise²)). The clamps at 1 s and the
// top collect point masses at 0 and TopLog10. Volumes capped at the
// cap map to the cap's duration instead: that correction moves the
// component's mass above the cap, so it is integrated by Simpson's
// rule once per grid point and interpolated linearly in between.
func DurationCDF(vol []dist.Normal, w []float64, capLog10 float64, law PowerLaw) (func(float64) float64, error) {
	a, beta, noise := law.Log10Alpha, law.Beta, law.Noise
	capV, top := capLog10, law.TopLog10
	capD := (capV - a) / beta
	dur := make([]dist.Normal, len(vol))
	var total float64
	for k, c := range vol {
		dur[k] = dist.Normal{Mu: (c.Mu - a) / beta, Sigma: math.Sqrt(c.Sigma*c.Sigma/(beta*beta) + noise*noise)}
		total += w[k]
	}
	mix, err := mixtureOf(dur, w)
	if err != nil {
		return nil, err
	}
	const grid, steps, span = 4096, 128, 8.0
	var corr []float64
	for k, c := range vol {
		u0 := (capV - c.Mu) / c.Sigma
		above := 1 - phi(u0)
		if above < 1e-12 {
			continue
		}
		if corr == nil {
			corr = make([]float64, grid+1)
		}
		h := span / steps
		for j := range corr {
			y := top * float64(j) / grid
			// ∫ φ(u)·Φ((y − (μ_k + σ_k·u − a)/β)/noise) du over the
			// standardized volumes above the cap.
			var acc float64
			for i := 0; i <= steps; i++ {
				u := u0 + float64(i)*h
				coef := 2.0
				switch {
				case i == 0 || i == steps:
					coef = 1
				case i%2 == 1:
					coef = 4
				}
				acc += coef * math.Exp(-u*u/2) / math.Sqrt(2*math.Pi) * phi((y-(c.Mu+c.Sigma*u-a)/beta)/noise)
			}
			corr[j] += w[k] / total * (above*phi((y-capD)/noise) - acc*h/3)
		}
	}
	return func(y float64) float64 {
		if y < 0 {
			return 0
		}
		if y >= top {
			return 1
		}
		f := mix.CDF(y)
		if corr != nil {
			pos := y / top * grid
			j := int(pos)
			if j >= grid {
				j = grid - 1 // y rounds onto the last grid point
			}
			fr := pos - float64(j)
			f += corr[j]*(1-fr) + corr[j+1]*fr
		}
		return f
	}, nil
}

// MinuteCounts returns the expected number of minutes with k session
// arrivals, for k in [0, cells), over periods repetitions of a minute
// grid whose minute m is in the daytime mode with probability phase[m].
// The last cell absorbs the upper tail. A daytime minute draws
// round(peak) and a nighttime minute round(min(off, capRate)), and
// every rate below 0.5 counts as zero, so over one period the pmf sums
// to Σ_m [phase[m]·P(round(peak) = k) + (1−phase[m])·P(round(min(off,
// capRate)) = k)].
func MinuteCounts(peak dist.Normal, off dist.Pareto, capRate float64, phase []float64, periods, cells int) []float64 {
	// P(rate < x) of each mode; a count k collects rates in
	// [k−0.5, k+0.5). Both CDFs are continuous except the Pareto's
	// atom at its clamp.
	gauss := peak.CDF
	pareto := func(x float64) float64 {
		if x > capRate {
			return 1
		}
		return off.CDF(x)
	}
	var day float64
	for _, w := range phase {
		day += w
	}
	night := float64(len(phase)) - day
	days := float64(periods)
	e := make([]float64, cells)
	var cum float64
	for k := 0; k < cells-1; k++ {
		hi := float64(k) + 0.5
		lo := hi - 1
		pk := day*(gauss(hi)-gauss(lo)) + night*(pareto(hi)-pareto(lo))
		if k == 0 {
			pk = day*gauss(hi) + night*pareto(hi)
		}
		e[k] = days * pk
		cum += e[k]
	}
	e[cells-1] = days*float64(len(phase)) - cum
	return e
}

// Pool merges adjacent cells from the left until each pooled cell
// expects at least min observations; a short remainder joins the last
// pooled cell.
func Pool(obs, exp []float64, min float64) (po, pe []float64) {
	var o, e float64
	for i := range exp {
		o += obs[i]
		e += exp[i]
		if e >= min {
			po, pe = append(po, o), append(pe, e)
			o, e = 0, 0
		}
	}
	if len(pe) == 0 {
		return []float64{o}, []float64{e}
	}
	po[len(po)-1] += o
	pe[len(pe)-1] += e
	return po, pe
}
