package core

import (
	"errors"
	"math"
	"math/rand"

	"mobiletraffic/internal/dist"
	"mobiletraffic/internal/mathx"
)

// ParetoShape is the fixed off-peak Pareto shape of §5.1: the
// measurement data across all BS load deciles is well fitted with
// b = 1.765, varying only the scale per antenna class.
const ParetoShape = 1.765

// ArrivalModel is the bi-modal per-minute session arrival model of
// §5.1 for one BS (or one BS load class): a daytime Gaussian mode and a
// nighttime Pareto mode, fitted separately so day or night traffic can
// be emulated independently.
type ArrivalModel struct {
	// PeakMu and PeakSigma parametrize the daytime Gaussian; across the
	// paper's BS deciles PeakMu spans 1.21 to 71 sessions/minute and
	// PeakSigma tracks PeakMu/10.
	PeakMu    float64 `json:"peak_mu"`
	PeakSigma float64 `json:"peak_sigma"`
	// OffShape and OffScale parametrize the nighttime Pareto; OffShape
	// is fixed to ParetoShape when fitted via FitArrivalModel.
	OffShape float64 `json:"off_shape"`
	OffScale float64 `json:"off_scale"`
}

// FitArrivalModel fits the two arrival modes from per-minute count
// samples taken during peak (daytime) and off-peak (nighttime) hours
// respectively. Following §5.1, the Gaussian is fitted by moments and
// the Pareto keeps the fixed shape 1.765 with only its scale fitted.
func FitArrivalModel(peakSamples, offSamples []float64) (*ArrivalModel, error) {
	if len(peakSamples) == 0 || len(offSamples) == 0 {
		return nil, errors.New("core: arrival fit needs samples for both modes")
	}
	n, err := dist.FitNormal(peakSamples)
	if err != nil {
		return nil, err
	}
	// Pareto scale: MLE under fixed shape uses the sample minimum, but
	// minute counts include zeros; use the positive samples only and
	// fall back to a small scale when the night is fully silent.
	var pos []float64
	for _, x := range offSamples {
		if x > 0 {
			pos = append(pos, x)
		}
	}
	scale := 0.01
	if len(pos) > 0 {
		p, err := dist.FitParetoFixedShape(pos, ParetoShape)
		if err != nil {
			return nil, err
		}
		scale = p.Scale
	}
	return &ArrivalModel{
		PeakMu:    n.Mu,
		PeakSigma: n.Sigma,
		OffShape:  ParetoShape,
		OffScale:  scale,
	}, nil
}

// SigmaRatio returns PeakSigma/PeakMu; the paper observes this ratio is
// ~1/10 across every BS load class, which lets the models set sigma
// automatically from mu.
func (m *ArrivalModel) SigmaRatio() float64 {
	if m.PeakMu == 0 {
		return math.NaN()
	}
	return m.PeakSigma / m.PeakMu
}

// AutoSigma replaces the fitted PeakSigma with the paper's automated
// setting sigma = mu/10 and returns the model for chaining.
func (m *ArrivalModel) AutoSigma() *ArrivalModel {
	m.PeakSigma = m.PeakMu / 10
	return m
}

// SampleCount draws a per-minute session count: from the daytime
// Gaussian when peak is true, from the nighttime Pareto otherwise.
// Counts are non-negative integers.
func (m *ArrivalModel) SampleCount(peak bool, rng *rand.Rand) int {
	var rate float64
	if peak {
		rate = m.PeakMu + m.PeakSigma*rng.NormFloat64()
	} else {
		rate = m.OffScale * math.Pow(1-rng.Float64(), -1/m.OffShape)
		if cap := m.PeakMu * 0.5; rate > cap {
			rate = cap
		}
	}
	n := int(math.Round(rate))
	if n < 0 {
		return 0
	}
	return n
}

// SampleCountFast is the generator's form of SampleCount on the PCG
// stream: the daytime Gaussian comes from the ziggurat sampler
// and the nighttime Pareto uses the inverse-CDF identity
// scale·(1−u)^(−1/shape) = scale·exp(E/shape) with E standard
// exponential, trading math.Pow for one math.Exp. Identically
// distributed to SampleCount, not draw-for-draw identical.
func (m *ArrivalModel) SampleCountFast(peak bool, rng *mathx.PCG) int {
	var rate float64
	if peak {
		rate = m.PeakMu + m.PeakSigma*rng.NormFloat64()
	} else {
		rate = m.OffScale * math.Exp(rng.ExpFloat64()/m.OffShape)
		if cap := m.PeakMu * 0.5; rate > cap {
			rate = cap
		}
	}
	n := int(math.Round(rate))
	if n < 0 {
		return 0
	}
	return n
}

// PeakPDF evaluates the fitted daytime Gaussian density at x.
func (m *ArrivalModel) PeakPDF(x float64) float64 {
	return dist.Normal{Mu: m.PeakMu, Sigma: m.PeakSigma}.PDF(x)
}

// OffPeakPDF evaluates the fitted nighttime Pareto density at x.
func (m *ArrivalModel) OffPeakPDF(x float64) float64 {
	return dist.Pareto{Shape: m.OffShape, Scale: m.OffScale}.PDF(x)
}

// FitArrivalModelsByClass fits one ArrivalModel per BS class from
// per-class peak and off-peak minute-count samples, returning the
// models plus the observed sigma/mu ratios (which the paper finds to
// cluster around 0.1 across all classes).
func FitArrivalModelsByClass(peakByClass, offByClass [][]float64) ([]*ArrivalModel, []float64, error) {
	if len(peakByClass) != len(offByClass) || len(peakByClass) == 0 {
		return nil, nil, errors.New("core: class arrival fit needs matching non-empty sample sets")
	}
	models := make([]*ArrivalModel, len(peakByClass))
	ratios := make([]float64, len(peakByClass))
	for i := range peakByClass {
		m, err := FitArrivalModel(peakByClass[i], offByClass[i])
		if err != nil {
			return nil, nil, err
		}
		models[i] = m
		ratios[i] = m.SigmaRatio()
	}
	return models, ratios, nil
}

// ArrivalGrowthRate fits the exponential growth of a per-class
// parameter (e.g. PeakMu or OffScale) across load classes, returning
// the per-class multiplicative factor. The paper notes mu and the
// Pareto scale grow exponentially at similar rates across deciles.
func ArrivalGrowthRate(values []float64) (float64, error) {
	if len(values) < 2 {
		return 0, errors.New("core: growth rate needs >= 2 classes")
	}
	logs := make([]float64, 0, len(values))
	for _, v := range values {
		if v <= 0 {
			return 0, errors.New("core: growth rate needs positive values")
		}
		logs = append(logs, math.Log(v))
	}
	xs := mathx.LinSpace(0, float64(len(values)-1), len(values))
	line, err := fitLine(xs, logs)
	if err != nil {
		return 0, err
	}
	return math.Exp(line), nil
}

// fitLine returns the OLS slope of ys on xs.
func fitLine(xs, ys []float64) (float64, error) {
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	det := n*sxx - sx*sx
	if det == 0 {
		return 0, errors.New("core: degenerate growth fit")
	}
	return (n*sxy - sx*sy) / det, nil
}
