// Package core implements the paper's primary contribution (§5): the
// session-level mobile traffic models. It provides
//
//   - ArrivalModel: the bi-modal per-minute session arrival model of
//     §5.1 (daytime Gaussian with sigma ~ mu/10, nighttime Pareto with
//     fixed shape 1.765) with the measurement-driven per-service
//     breakdown of Table 1;
//   - VolumeModel: the log-normal mixture model of the per-session
//     traffic volume PDF F_s(x) of §5.2, fitted with the three-step
//     main-trend / residual-peak / composition algorithm;
//   - DurationModel: the power-law duration-volume model
//     v_s(d) = alpha_s * d^beta_s of §5.3 fitted with
//     Levenberg-Marquardt;
//   - ServiceModel and Generator: the released parameter tuple
//     [mu_s, sigma_s, {k_n, mu_n, sigma_n}, alpha_s, beta_s] (§5.4) and
//     a synthetic session generator built on it.
package core

import (
	"errors"
	"fmt"
	"math"

	"mobiletraffic/internal/dist"
	"mobiletraffic/internal/fit"
)

// MaxPeaks caps the residual mixture components per service: the paper
// finds at most 3 peaks carry non-negligible weight and aligns all
// models to that bound (§5.2).
const MaxPeaks = 3

// MinPeakWeight drops residual components below this weight; the paper
// reports peaks beyond the top 3 weigh under 1e-4.
const MinPeakWeight = 1e-4

// MaxPeakSigma caps the width of a residual component: the paper
// describes the residual modes as "abrupt and marked spikes" of
// probability, i.e. low-variance log-normals. Without the cap a broad
// residual shoulder (e.g. from transient sessions) could masquerade as
// one enormous peak and blow up the mixture's byte-domain mean.
const MaxPeakSigma = 0.3

// VolumeComponent is one residual mixture component f_{s,n} of Eq. (4):
// a base-10 log-normal with weight K, center Mu (log10 bytes) and
// width Sigma (decades).
type VolumeComponent struct {
	K     float64 `json:"k"`
	Mu    float64 `json:"mu"`
	Sigma float64 `json:"sigma"`
}

// VolumeModel is the log-normal mixture model of F_s(x) (Eq. 5): a main
// log-normal trend plus up to MaxPeaks residual peaks. All parameters
// live in the log10-bytes domain.
type VolumeModel struct {
	MainMu    float64           `json:"mu"`
	MainSigma float64           `json:"sigma"`
	Peaks     []VolumeComponent `json:"peaks,omitempty"`
	// MaxVolume is the upper support of the measurement PDF the model
	// was fitted on (bytes); generation never extrapolates beyond it.
	// Zero means unbounded (falls back to MaxSampleVolume).
	MaxVolume float64 `json:"max_volume,omitempty"`
}

// totalWeight returns 1 + sum k_n, the Eq. (5) normalizer.
func (m *VolumeModel) totalWeight() float64 {
	t := 1.0
	for _, p := range m.Peaks {
		t += p.K
	}
	return t
}

// PDFLog10 evaluates the modeled density over u = log10(bytes):
// Eq. (5) restricted to the log domain.
func (m *VolumeModel) PDFLog10(u float64) float64 {
	gauss := func(mu, sigma float64) float64 {
		if sigma <= 0 {
			return 0
		}
		z := (u - mu) / sigma
		return math.Exp(-z*z/2) / (sigma * math.Sqrt(2*math.Pi))
	}
	s := gauss(m.MainMu, m.MainSigma)
	for _, p := range m.Peaks {
		s += p.K * gauss(p.Mu, p.Sigma)
	}
	return s / m.totalWeight()
}

// Hist renders the model on a log10-bytes bin grid, normalized; used to
// compare the model against a measurement PDF on the same grid.
func (m *VolumeModel) Hist(edges []float64) (*dist.Hist, error) {
	h, err := dist.NewHist(edges)
	if err != nil {
		return nil, err
	}
	norm := dist.Normal{Mu: m.MainMu, Sigma: m.MainSigma}
	for i := range h.P {
		mass := norm.CDF(h.Edges[i+1]) - norm.CDF(h.Edges[i])
		for _, p := range m.Peaks {
			pn := dist.Normal{Mu: p.Mu, Sigma: p.Sigma}
			mass += p.K * (pn.CDF(h.Edges[i+1]) - pn.CDF(h.Edges[i]))
		}
		h.P[i] = mass
	}
	if err := h.Normalize(); err != nil {
		return nil, err
	}
	return h, nil
}

// MaxSampleVolume caps generated volumes at the top of the measurement
// grid (~30 GB): the fitted mixture is only supported there.
const MaxSampleVolume = 3e10

// EMD returns the earth-mover distance between the model and a
// measurement histogram on the histogram's grid — the §5.4 quality
// metric (reported there in the 1e-5 order for all services).
func (m *VolumeModel) EMD(measured *dist.Hist) (float64, error) {
	mh, err := m.Hist(measured.Edges)
	if err != nil {
		return 0, err
	}
	return dist.EMD(measured, mh)
}

// VolumeFitOptions tunes the three-step fitting algorithm of §5.2.
type VolumeFitOptions struct {
	// Threshold is the residual-derivative threshold (default 1e-5, the
	// paper's service-independent choice).
	Threshold float64
	// MaxPeaks caps the retained components (default MaxPeaks = 3).
	// Set to -1 for the uncapped ablation.
	MaxPeaks int
	// UseFiniteDiff switches the residual differentiator from
	// Savitzky-Golay to a raw finite difference (smoothing ablation).
	UseFiniteDiff bool
}

func (o *VolumeFitOptions) withDefaults() VolumeFitOptions {
	out := VolumeFitOptions{Threshold: 1e-5, MaxPeaks: MaxPeaks}
	if o == nil {
		return out
	}
	if o.Threshold > 0 {
		out.Threshold = o.Threshold
	}
	if o.MaxPeaks > 0 || o.MaxPeaks == -1 {
		out.MaxPeaks = o.MaxPeaks
	}
	out.UseFiniteDiff = o.UseFiniteDiff
	return out
}

// FitVolumeModel runs the three-step decomposition of §5.2 on a
// measured per-session volume PDF (a histogram over log10 bytes):
//
//  1. fit the main log-normal trend f_s and subtract it, clamping the
//     residual at zero;
//  2. locate residual peaks via the thresholded Savitzky-Golay first
//     derivative, ranking intervals by contained probability;
//  3. model each retained peak as a log-normal with mu at the interval's
//     probability maximum, sigma = 0.997*span/3 and weight k equal to
//     the interval's residual mass, then compose Eq. (5).
func FitVolumeModel(measured *dist.Hist, opts *VolumeFitOptions) (*VolumeModel, error) {
	o := opts.withDefaults()
	if measured == nil || measured.Total() <= 0 {
		return nil, errors.New("core: volume fit needs a non-empty measurement histogram")
	}
	h := measured.Clone()
	if err := h.Normalize(); err != nil {
		return nil, err
	}
	centers := h.Centers()

	// The three steps of §5.2, run twice: the second pass refits the
	// main trend on the histogram with the modeled peaks subtracted, so
	// heavy characteristic peaks do not skew the main log-normal's
	// moments.
	base := h.Clone()
	var model *VolumeModel
	for pass := 0; pass < 2; pass++ {
		// Step 1: main log-normal trend. In the log10 domain the
		// histogram moments are the Gaussian MLE.
		model = &VolumeModel{MainMu: base.Mean(), MainSigma: base.Std()}
		if model.MainSigma <= 0 {
			return nil, fmt.Errorf("core: degenerate volume PDF (zero spread)")
		}
		main := dist.Normal{Mu: model.MainMu, Sigma: model.MainSigma}
		// Residual against the *measured* PDF, scaled so the main
		// component carries the base histogram's share of the mass.
		baseTotal := base.Total()
		residual := make([]float64, h.Bins())
		for i := range residual {
			expected := baseTotal * (main.CDF(h.Edges[i+1]) - main.CDF(h.Edges[i]))
			r := h.P[i] - expected
			if r > 0 {
				residual[i] = r
			}
		}

		// Step 2: peak identification on the residual.
		peaks, err := fit.DetectPeaks(residual, &fit.PeakOptions{
			Threshold:     o.Threshold,
			UseFiniteDiff: o.UseFiniteDiff,
			MinMass:       MinPeakWeight,
		})
		if err != nil {
			return nil, err
		}
		if o.MaxPeaks >= 0 && len(peaks) > o.MaxPeaks {
			peaks = peaks[:o.MaxPeaks]
		}

		// Step 3: log-normal components per retained peak.
		model.Peaks = nil
		for _, p := range peaks {
			span := h.Edges[p.Hi+1] - h.Edges[p.Lo]
			sigma := 0.997 * span / 3
			if sigma > MaxPeakSigma {
				sigma = MaxPeakSigma
			}
			if sigma <= 0 {
				continue
			}
			model.Peaks = append(model.Peaks, VolumeComponent{
				K:     p.Mass / baseTotal,
				Mu:    centers[p.Center],
				Sigma: sigma,
			})
		}
		if pass == 1 || len(model.Peaks) == 0 {
			break
		}
		// Prepare the refinement pass: subtract the modeled peak mass
		// from the measurement and refit the main trend on what is
		// left.
		base = h.Clone()
		for _, c := range model.Peaks {
			pn := dist.Normal{Mu: c.Mu, Sigma: c.Sigma}
			for i := range base.P {
				base.P[i] -= c.K * baseTotal * (pn.CDF(h.Edges[i+1]) - pn.CDF(h.Edges[i]))
				if base.P[i] < 0 {
					base.P[i] = 0
				}
			}
		}
		if base.Total() <= 0 {
			break
		}
	}
	// Record the measured support ceiling (99.99th percentile of the
	// measurement PDF) so generation does not extrapolate the fitted
	// log-normal tails past what was ever observed.
	model.MaxVolume = math.Pow(10, h.Quantile(1-1e-4))
	return model, nil
}
