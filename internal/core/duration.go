package core

import (
	"errors"
	"math"

	"mobiletraffic/internal/fit"
	"mobiletraffic/internal/mathx"
)

// DurationModel is the power-law duration-volume model of §5.3:
// v_s(d) = Alpha * d^Beta, with d in seconds and v in bytes. Beta > 1
// marks sessions whose mean throughput grows with duration (video
// streaming); Beta < 1 the opposite (interactive services); Beta = 1
// would mean duration-independent throughput Alpha.
type DurationModel struct {
	Alpha float64 `json:"alpha"`
	Beta  float64 `json:"beta"`
	R2    float64 `json:"r2"`
}

// MeanVolume returns v(d) = Alpha * d^Beta.
func (m *DurationModel) MeanVolume(duration float64) float64 {
	return m.Alpha * math.Pow(duration, m.Beta)
}

// DurationFor applies the inverse function v^{-1} to obtain a session
// duration from a traffic volume, as prescribed for generation in §5.4.
func (m *DurationModel) DurationFor(volume float64) float64 {
	if volume <= 0 || m.Alpha <= 0 || m.Beta == 0 {
		return math.NaN()
	}
	return math.Pow(volume/m.Alpha, 1/m.Beta)
}

// Throughput returns the mean throughput v(d)/d in bytes/second implied
// by the model at duration d.
func (m *DurationModel) Throughput(duration float64) float64 {
	if duration <= 0 {
		return math.NaN()
	}
	return m.MeanVolume(duration) / duration
}

// MaxSessionDuration bounds generated durations: a transport session
// served by a single BS cannot outlive the daily aggregation window of
// the measurements (§3.2).
const MaxSessionDuration = 24 * 3600.0

// MinPairSessions is the minimum session count for a duration bin to
// enter the power-law fit; sparser bins are measurement noise.
const MinPairSessions = 5

// FitDurationModel fits the power law to duration-volume pairs: the
// per-bin mean volumes values (NaN for empty bins) at the bin-center
// durations, using the log-log initialized Levenberg-Marquardt fit of
// §5.3. Following the paper, each populated bin is one equally weighted
// observation of the v_s(d) value pairs; counts (optional) only gate
// which bins are considered populated. Equal weighting keeps the
// transient-session pile-up at short durations from dominating the
// exponent.
func FitDurationModel(durations, values, counts []float64) (*DurationModel, error) {
	if len(durations) != len(values) {
		return nil, errors.New("core: duration fit needs matching durations/values")
	}
	var xs, ys []float64
	var ws []float64 // nil: uniform weights
	for i := range durations {
		// Reject non-finite observations outright: on degraded
		// measurements (probe outages, truncated exports) empty bins
		// surface as NaN and overflowed accumulators as Inf, and either
		// would poison the LM residuals.
		if math.IsNaN(values[i]) || math.IsInf(values[i], 0) || values[i] <= 0 {
			continue
		}
		if math.IsInf(durations[i], 0) || durations[i] <= 0 {
			continue
		}
		if counts != nil && counts[i] < MinPairSessions {
			continue
		}
		xs = append(xs, durations[i])
		ys = append(ys, values[i])
	}
	if len(xs) < 3 {
		return nil, errors.New("core: duration fit needs >= 3 populated bins")
	}
	// Fit in the log-log domain: the relative (multiplicative) error is
	// the right loss when volumes span many decades.
	lx := make([]float64, len(xs))
	ly := make([]float64, len(ys))
	for i := range xs {
		lx[i] = math.Log(xs[i])
		ly[i] = math.Log(ys[i])
	}
	line, err := fit.WeightedLinearFit(lx, ly, ws)
	if err != nil {
		return nil, err
	}
	if !mathx.IsFinite(line.Intercept) || !mathx.IsFinite(line.Slope) {
		return nil, errors.New("core: duration fit: non-finite log-log initialization")
	}
	model := &DurationModel{Alpha: math.Exp(line.Intercept), Beta: line.Slope}
	// Refine with LM in the log domain (equivalent to multiplicative
	// least squares on the original scale). The refinement is guarded:
	// a result with NaN/Inf parameters — possible when degraded inputs
	// leave the normal equations near-singular — is rejected and the
	// log-log initialization kept.
	logModel := func(p []float64, x float64) float64 { return p[0] + p[1]*x }
	res, err := fit.LM(logModel, lx, ly, []float64{line.Intercept, line.Slope}, &fit.LMOptions{Weights: ws})
	if err == nil && mathx.IsFinite(res.Params[0]) && mathx.IsFinite(res.Params[1]) {
		model.Alpha = math.Exp(res.Params[0])
		model.Beta = res.Params[1]
	}
	if !mathx.IsFinite(model.Alpha) || model.Alpha <= 0 || !mathx.IsFinite(model.Beta) {
		return nil, errors.New("core: duration fit produced non-finite parameters")
	}
	yhat := make([]float64, len(lx))
	for i, x := range lx {
		yhat[i] = math.Log(model.Alpha) + model.Beta*x
	}
	model.R2 = fit.RSquaredWeighted(ly, yhat, ws)
	return model, nil
}
