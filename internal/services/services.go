// Package services defines the catalog of mobile services used across
// the reproduction. Each Profile combines the published measurements of
// paper Table 1 (per-service shares of sessions and traffic with their
// coefficients of variation) with a ground-truth session-level
// behaviour model assembled from the per-service observations of §4.2
// and Fig. 10: a main base-10 log-normal traffic volume trend, up to
// three characteristic probability peaks, and a duration-volume power
// law v_s(d) = alpha_s * d^beta_s.
//
// The measurement dataset the paper works from is closed, so these
// profiles are what the network simulator (internal/netsim) uses as
// ground truth; the characterization and modeling pipeline must recover
// them from simulated measurements, which gives every experiment a
// built-in correctness oracle.
package services

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"mobiletraffic/internal/mathx"
)

// Class is the paper's macroscopic service taxonomy (§4.3): the
// clustering of normalized volume PDFs separates streaming services,
// lightweight interactive services, and a handful of outliers.
type Class int

// Service classes.
const (
	Streaming   Class = iota // audio/video streaming (cluster A)
	Interactive              // short/lightweight message exchanges (cluster B)
	Outlier                  // background sync and other atypical loads (cluster C)
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case Streaming:
		return "streaming"
	case Interactive:
		return "interactive"
	case Outlier:
		return "outlier"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// VolumePeak is one characteristic probability mode of a service's
// per-session traffic volume PDF, expressed in the log10-bytes domain.
type VolumePeak struct {
	Weight float64 // mixture weight k relative to the main component's 1
	Mu     float64 // peak location, log10 bytes
	Sigma  float64 // peak width, decades
}

// Profile is the ground-truth session-level behaviour of one service.
type Profile struct {
	Name string
	// Table 1 columns.
	SessionSharePct float64 // % of all sessions
	SessionCV       float64 // coefficient of variation of the session share
	TrafficSharePct float64 // % of all traffic volume
	TrafficCV       float64 // coefficient of variation of the traffic share
	// Macroscopic class (§4.3).
	Class Class
	// Main log-normal volume trend (log10 bytes domain, Eq. 3).
	MainMu, MainSigma float64
	// Up to three characteristic residual peaks (§5.2 caps N at 3).
	Peaks []VolumePeak
	// Duration-volume power law v(d) = Alpha() * d^Beta (§5.3); Beta > 1
	// for streaming services, < 1 for interactive ones (Fig. 10).
	Beta float64
	// TypDuration is the representative session duration in seconds; it
	// anchors Alpha so that a session of typical volume 10^MainMu lasts
	// TypDuration.
	TypDuration float64
	// DurationNoise is the log10-domain jitter (decades) applied to the
	// duration implied by the power law when synthesizing sessions.
	DurationNoise float64

	// alpha and invBeta memoize the power-law terms that are pure
	// functions of the fields above; see Precompute. Zero means
	// not-yet-computed and every accessor falls back to the closed form,
	// so hand-built Profile literals keep working unchanged.
	alpha, invBeta float64
	// Natural-log-domain terms of the sampler-v2 fast path, also set by
	// Precompute: the base-10 mixture parameters scaled by ln 10 so one
	// math.Exp replaces each math.Pow(10, ·), the ln of the power-law
	// prefactor, and the mixture weight total. mixTotal == 0 marks
	// not-yet-precomputed (it is ≥ 1 afterwards).
	lnAlpha    float64  // ln Alpha
	mainMuLn   float64  // MainMu · ln 10
	mainSigLn  float64  // MainSigma · ln 10
	durNoiseLn float64  // DurationNoise · ln 10
	mixTotal   float64  // 1 + Σ peak weights
	peaksLn    []peakLn // peaks with ln-domain location and width
}

// peakLn is a VolumePeak with its parameters pre-scaled to the
// natural-log domain.
type peakLn struct {
	w, mu, sigma float64
}

// Precompute memoizes the power-law prefactor and exponent inverse so
// the per-session sampling hot path (SampleDuration → DurationFor →
// Alpha) stops re-deriving them with two math.Pow calls per session.
// The cached values are the exact same floats the closed forms produce,
// so sampling results are bit-identical. It also derives the
// natural-log-domain terms of the sampler-v2 fast path (SampleVolumeLn,
// SampleDurationLn). Call it once per profile before concurrent use; it
// mutates the receiver and is not safe to race with readers.
func (p *Profile) Precompute() {
	p.alpha = math.Pow(10, p.MainMu) / math.Pow(p.TypDuration, p.Beta)
	p.invBeta = 1 / p.Beta
	p.lnAlpha = math.Log(p.alpha)
	p.mainMuLn = p.MainMu * math.Ln10
	p.mainSigLn = p.MainSigma * math.Ln10
	p.durNoiseLn = p.DurationNoise * math.Ln10
	p.mixTotal = 1
	p.peaksLn = make([]peakLn, len(p.Peaks))
	for i, pk := range p.Peaks {
		p.mixTotal += pk.Weight
		p.peaksLn[i] = peakLn{w: pk.Weight, mu: pk.Mu * math.Ln10, sigma: pk.Sigma * math.Ln10}
	}
}

// Alpha returns the power-law prefactor anchored at the typical
// operating point: Alpha = 10^MainMu / TypDuration^Beta.
func (p *Profile) Alpha() float64 {
	if p.alpha != 0 {
		return p.alpha
	}
	return math.Pow(10, p.MainMu) / math.Pow(p.TypDuration, p.Beta)
}

// MeanVolume returns v(d) = Alpha * d^Beta in bytes for a duration in
// seconds.
func (p *Profile) MeanVolume(duration float64) float64 {
	return p.Alpha() * math.Pow(duration, p.Beta)
}

// DurationFor inverts the power law: the duration whose mean volume is
// x bytes.
func (p *Profile) DurationFor(volume float64) float64 {
	if volume <= 0 {
		return math.NaN()
	}
	ib := p.invBeta
	if ib == 0 {
		ib = 1 / p.Beta
	}
	return math.Pow(volume/p.Alpha(), ib)
}

// SampleVolume draws one per-session traffic volume in bytes from the
// ground-truth mixture: the main log-normal with weight 1 plus the
// characteristic peaks with weights Peaks[i].Weight.
func (p *Profile) SampleVolume(rng *rand.Rand) float64 {
	total := 1.0
	for _, pk := range p.Peaks {
		total += pk.Weight
	}
	u := rng.Float64() * total
	var v float64
	switch {
	case u < 1:
		v = math.Pow(10, p.MainMu+p.MainSigma*rng.NormFloat64())
	default:
		u -= 1
		for _, pk := range p.Peaks {
			if u < pk.Weight {
				v = math.Pow(10, pk.Mu+pk.Sigma*rng.NormFloat64())
				break
			}
			u -= pk.Weight
		}
		if v == 0 {
			v = math.Pow(10, p.MainMu+p.MainSigma*rng.NormFloat64())
		}
	}
	if v > MaxSessionVolume {
		return MaxSessionVolume
	}
	return v
}

// MaxSessionVolume caps per-session traffic at ~2 GB: the measured
// per-service PDFs flatten to zero around the gigabyte mark (§4.2
// observes the last knees at 200 MB for Netflix and 800 MB for Twitch).
const MaxSessionVolume = 2e9

// SampleDuration draws the session duration in seconds for a session of
// the given volume: the power-law inverse with multiplicative
// log-normal noise, clamped to [1 s, 24 h] (a session served by one BS
// cannot outlive the daily measurement aggregation window of §3.2).
func (p *Profile) SampleDuration(volume float64, rng *rand.Rand) float64 {
	d := p.DurationFor(volume) * math.Pow(10, p.DurationNoise*rng.NormFloat64())
	switch {
	case d < 1:
		return 1
	case d > 24*3600:
		return 24 * 3600
	}
	return d
}

// lnMaxSessionVolume and lnMaxDuration are the sampler-v2 clamp
// boundaries in the natural-log domain.
var (
	lnMaxSessionVolume = math.Log(MaxSessionVolume)
	lnMaxDuration      = math.Log(24 * 3600)
)

// SampleVolumeLn is the sampler-v2 counterpart of SampleVolume: it
// draws from the same ground-truth mixture but works in the
// natural-log domain, so the whole draw costs one math.Exp instead of
// a math.Pow (which internally pays both a log and an exp). It returns
// the volume in bytes together with its natural log, which
// SampleDurationLn reuses to skip the log half of the power-law
// inversion. Requires Precompute; falls back to the closed-form terms
// (without caching them) on a raw Profile literal.
func (p *Profile) SampleVolumeLn(rng *mathx.PCG) (v, lnV float64) {
	mixTotal, peaks := p.mixTotal, p.peaksLn
	muLn, sigLn := p.mainMuLn, p.mainSigLn
	if mixTotal == 0 {
		muLn, sigLn = p.MainMu*math.Ln10, p.MainSigma*math.Ln10
		mixTotal = 1
		peaks = make([]peakLn, len(p.Peaks))
		for i, pk := range p.Peaks {
			mixTotal += pk.Weight
			peaks[i] = peakLn{w: pk.Weight, mu: pk.Mu * math.Ln10, sigma: pk.Sigma * math.Ln10}
		}
	}
	if u := rng.Float64() * mixTotal; u >= 1 {
		u -= 1
		for _, pk := range peaks {
			if u < pk.w {
				muLn, sigLn = pk.mu, pk.sigma
				break
			}
			u -= pk.w
		}
		// Rounding leftovers past the last peak keep the main component,
		// mirroring SampleVolume's fallback.
	}
	lnV = muLn + sigLn*rng.NormFloat64()
	if lnV >= lnMaxSessionVolume {
		return MaxSessionVolume, lnMaxSessionVolume
	}
	return math.Exp(lnV), lnV
}

// SampleDurationLn is the sampler-v2 counterpart of SampleDuration: the
// power-law inversion with multiplicative log-normal noise evaluated as
// a single math.Exp of invBeta·(ln v − ln Alpha) + ln10·noise·Z, with
// the [1 s, 24 h] clamp applied in the log domain (the boundary cases
// skip the Exp entirely). Requires Precompute; falls back to the
// closed-form terms on a raw Profile literal.
func (p *Profile) SampleDurationLn(lnV float64, rng *mathx.PCG) float64 {
	ib, lnA, noise := p.invBeta, p.lnAlpha, p.durNoiseLn
	if p.mixTotal == 0 {
		ib = 1 / p.Beta
		lnA = math.Log(p.Alpha())
		noise = p.DurationNoise * math.Ln10
	}
	x := ib*(lnV-lnA) + noise*rng.NormFloat64()
	switch {
	case x <= 0: // d < 1 s
		return 1
	case x >= lnMaxDuration: // d > 24 h
		return 24 * 3600
	}
	return math.Exp(x)
}

// SampleVolumeLnBatch is the columnar form of SampleVolumeLn: it fills
// v and lnV for len(v) sessions of this service in one pass, drawing
// the component-selection uniforms and the log-normal deviates as two
// whole rectangles from the lane-split batch kernels (FillFloat64 then
// FillNorm) instead of interleaving two scalar draws per session. u and
// z are caller scratch of at least len(v) elements; their contents are
// overwritten, and lnV may alias u (element i is read before it is
// written). Each element realizes exactly the SampleVolumeLn
// mixture — same component selection, same ln-domain clamp — but the
// rectangular draw layout consumes the RNG stream in a different order
// than a loop of scalar calls would (the sampler-v2 stream contract
// only pins determinism and the realized distributions, not the draw
// mapping). Requires Precompute; falls back to the closed-form terms on
// a raw Profile literal.
func (p *Profile) SampleVolumeLnBatch(rng *mathx.PCG, u, z, v, lnV []float64) {
	k := len(v)
	u, z, lnV = u[:k], z[:k], lnV[:k]
	rng.FillFloat64(u)
	rng.FillNorm(z)
	mixTotal, peaks := p.mixTotal, p.peaksLn
	muLn, sigLn := p.mainMuLn, p.mainSigLn
	if mixTotal == 0 {
		muLn, sigLn = p.MainMu*math.Ln10, p.MainSigma*math.Ln10
		mixTotal = 1
		peaks = make([]peakLn, len(p.Peaks))
		for i, pk := range p.Peaks {
			mixTotal += pk.Weight
			peaks[i] = peakLn{w: pk.Weight, mu: pk.Mu * math.Ln10, sigma: pk.Sigma * math.Ln10}
		}
	}
	if len(peaks) == 0 {
		// Single-component profile: the mixture select is vacuous (the
		// coin is still drawn, as in the scalar path) and the loop is
		// branch-free up to the clamp.
		for i := 0; i < k; i++ {
			x := muLn + sigLn*z[i]
			if x >= lnMaxSessionVolume {
				v[i], lnV[i] = MaxSessionVolume, lnMaxSessionVolume
				continue
			}
			v[i], lnV[i] = math.Exp(x), x
		}
		return
	}
	for i := 0; i < k; i++ {
		m, sg := muLn, sigLn
		if uu := u[i] * mixTotal; uu >= 1 {
			uu -= 1
			for _, pk := range peaks {
				if uu < pk.w {
					m, sg = pk.mu, pk.sigma
					break
				}
				uu -= pk.w
			}
			// Rounding leftovers past the last peak keep the main
			// component, mirroring SampleVolumeLn.
		}
		x := m + sg*z[i]
		if x >= lnMaxSessionVolume {
			v[i], lnV[i] = MaxSessionVolume, lnMaxSessionVolume
			continue
		}
		v[i], lnV[i] = math.Exp(x), x
	}
}

// SampleDurationLnBatch is the columnar form of SampleDurationLn: for
// each session volume in lnV it fills the duration in seconds (d) and
// its natural log (lnD), drawing the log-normal noise deviates as one
// FillNorm rectangle into the caller scratch z (at least len(d)
// elements, overwritten; lnD may alias z, as element i is read before
// it is written). The clamp semantics match SampleDurationLn
// exactly: x <= 0 yields (1, 0) and x >= ln 86400 yields (86400,
// ln 86400), both skipping the Exp. Requires Precompute; falls back to
// the closed-form terms on a raw Profile literal.
func (p *Profile) SampleDurationLnBatch(rng *mathx.PCG, lnV, z, d, lnD []float64) {
	k := len(d)
	lnV, z, lnD = lnV[:k], z[:k], lnD[:k]
	rng.FillNorm(z)
	ib, lnA, noise := p.invBeta, p.lnAlpha, p.durNoiseLn
	if p.mixTotal == 0 {
		ib = 1 / p.Beta
		lnA = math.Log(p.Alpha())
		noise = p.DurationNoise * math.Ln10
	}
	for i := 0; i < k; i++ {
		x := ib*(lnV[i]-lnA) + noise*z[i]
		switch {
		case x <= 0: // d < 1 s
			d[i], lnD[i] = 1, 0
		case x >= lnMaxDuration: // d > 24 h
			d[i], lnD[i] = 24*3600, lnMaxDuration
		default:
			d[i], lnD[i] = math.Exp(x), x
		}
	}
}

// VolumeLogPDF evaluates the ground-truth volume density over
// u = log10(bytes): the normalized mixture of Gaussian components.
func (p *Profile) VolumeLogPDF(u float64) float64 {
	total := 1.0
	for _, pk := range p.Peaks {
		total += pk.Weight
	}
	gauss := func(mu, sigma float64) float64 {
		z := (u - mu) / sigma
		return math.Exp(-z*z/2) / (sigma * math.Sqrt(2*math.Pi))
	}
	s := gauss(p.MainMu, p.MainSigma)
	for _, pk := range p.Peaks {
		s += pk.Weight * gauss(pk.Mu, pk.Sigma)
	}
	return s / total
}

// catalog lists the 28 services of paper Table 1 plus three additional
// modeled services (§5.4 reports 31 total). Table 1 columns are taken
// verbatim from the paper; the behavioural parameters are assembled
// from the qualitative descriptions of §4.2 (e.g. Netflix's 40 MB mode
// and 200 MB knee, Deezer's 3.5/7.6 MB song modes, Twitch's 20 MB mode
// and 800 MB knee) and the β exponent ranges of Fig. 10.
var catalog = []Profile{
	{Name: "Facebook", SessionSharePct: 36.52, SessionCV: 1.15, TrafficSharePct: 32.53, TrafficCV: 1.68,
		Class: Interactive, MainMu: 5.3, MainSigma: 0.7,
		Peaks: []VolumePeak{{Weight: 0.06, Mu: 5.8, Sigma: 0.07}},
		Beta:  0.60, TypDuration: 120, DurationNoise: 0.25},
	{Name: "Instagram", SessionSharePct: 20.52, SessionCV: 1.27, TrafficSharePct: 31.48, TrafficCV: 2.13,
		Class: Interactive, MainMu: 5.9, MainSigma: 0.75,
		Peaks: []VolumePeak{{Weight: 0.08, Mu: 6.5, Sigma: 0.08}},
		Beta:  0.72, TypDuration: 150, DurationNoise: 0.25},
	{Name: "SnapChat", SessionSharePct: 18.33, SessionCV: 1.17, TrafficSharePct: 9.52, TrafficCV: 2.12,
		Class: Interactive, MainMu: 5.6, MainSigma: 0.7,
		Peaks: []VolumePeak{{Weight: 0.07, Mu: 6.2, Sigma: 0.07}},
		Beta:  0.65, TypDuration: 90, DurationNoise: 0.25},
	{Name: "Youtube", SessionSharePct: 4.94, SessionCV: 1.14, TrafficSharePct: 0.24, TrafficCV: 1.39,
		Class: Streaming, MainMu: 6.6, MainSigma: 1.05,
		Peaks: []VolumePeak{{Weight: 0.10, Mu: 7.5, Sigma: 0.10}, {Weight: 0.04, Mu: 8.0, Sigma: 0.10}},
		Beta:  1.30, TypDuration: 480, DurationNoise: 0.15},
	{Name: "Google Maps", SessionSharePct: 2.76, SessionCV: 1.14, TrafficSharePct: 0.10, TrafficCV: 2.82,
		Class: Interactive, MainMu: 4.7, MainSigma: 0.7,
		Beta: 0.40, TypDuration: 120, DurationNoise: 0.25},
	{Name: "Netflix", SessionSharePct: 2.40, SessionCV: 1.29, TrafficSharePct: 11.10, TrafficCV: 1.66,
		Class: Streaming, MainMu: 6.5, MainSigma: 1.1,
		Peaks: []VolumePeak{{Weight: 0.18, Mu: 7.60, Sigma: 0.08}, {Weight: 0.05, Mu: 8.30, Sigma: 0.10}},
		Beta:  1.50, TypDuration: 600, DurationNoise: 0.15},
	{Name: "Waze", SessionSharePct: 1.63, SessionCV: 1.39, TrafficSharePct: 0.62, TrafficCV: 1.75,
		Class: Interactive, MainMu: 4.8, MainSigma: 0.6,
		Beta: 0.45, TypDuration: 600, DurationNoise: 0.25},
	{Name: "Twitter", SessionSharePct: 1.46, SessionCV: 1.43, TrafficSharePct: 0.45, TrafficCV: 1.49,
		Class: Interactive, MainMu: 5.0, MainSigma: 0.65,
		Beta: 0.55, TypDuration: 90, DurationNoise: 0.25},
	{Name: "Apple iCloud", SessionSharePct: 1.04, SessionCV: 1.45, TrafficSharePct: 3.24, TrafficCV: 4.20,
		Class: Outlier, MainMu: 6.0, MainSigma: 1.2,
		Peaks: []VolumePeak{{Weight: 0.10, Mu: 7.8, Sigma: 0.12}},
		Beta:  1.05, TypDuration: 300, DurationNoise: 0.30},
	{Name: "FB Live", SessionSharePct: 1.42, SessionCV: 1.17, TrafficSharePct: 1.80, TrafficCV: 1.08,
		Class: Streaming, MainMu: 7.0, MainSigma: 1.0,
		Peaks: []VolumePeak{{Weight: 0.10, Mu: 7.7, Sigma: 0.08}},
		Beta:  1.40, TypDuration: 600, DurationNoise: 0.15},
	{Name: "Spotify", SessionSharePct: 1.12, SessionCV: 1.28, TrafficSharePct: 0.12, TrafficCV: 2.54,
		Class: Streaming, MainMu: 6.2, MainSigma: 0.95,
		Peaks: []VolumePeak{{Weight: 0.10, Mu: 6.6, Sigma: 0.07}},
		Beta:  1.10, TypDuration: 400, DurationNoise: 0.20},
	{Name: "Deezer", SessionSharePct: 1.08, SessionCV: 1.91, TrafficSharePct: 1.59, TrafficCV: 1.81,
		Class: Streaming, MainMu: 6.3, MainSigma: 0.95,
		Peaks: []VolumePeak{{Weight: 0.16, Mu: 6.54, Sigma: 0.06}, {Weight: 0.08, Mu: 6.88, Sigma: 0.06}},
		Beta:  0.95, TypDuration: 420, DurationNoise: 0.20},
	{Name: "Amazon", SessionSharePct: 0.96, SessionCV: 1.17, TrafficSharePct: 0.25, TrafficCV: 1.11,
		Class: Interactive, MainMu: 5.0, MainSigma: 0.65,
		Beta: 0.50, TypDuration: 180, DurationNoise: 0.25},
	{Name: "Twitch", SessionSharePct: 0.91, SessionCV: 1.22, TrafficSharePct: 3.67, TrafficCV: 0.96,
		Class: Streaming, MainMu: 7.3, MainSigma: 1.1,
		Peaks: []VolumePeak{{Weight: 0.10, Mu: 7.3, Sigma: 0.08}, {Weight: 0.04, Mu: 8.9, Sigma: 0.10}},
		Beta:  1.80, TypDuration: 900, DurationNoise: 0.15},
	{Name: "WhatsApp", SessionSharePct: 0.85, SessionCV: 1.27, TrafficSharePct: 0.41, TrafficCV: 2.91,
		Class: Interactive, MainMu: 4.9, MainSigma: 0.75,
		Beta: 0.35, TypDuration: 60, DurationNoise: 0.30},
	{Name: "Clothes", SessionSharePct: 0.83, SessionCV: 1.23, TrafficSharePct: 0.85, TrafficCV: 1.58,
		Class: Interactive, MainMu: 5.4, MainSigma: 0.8,
		Beta: 0.55, TypDuration: 150, DurationNoise: 0.25},
	{Name: "Gmail", SessionSharePct: 0.54, SessionCV: 1.16, TrafficSharePct: 0.02, TrafficCV: 1.17,
		Class: Interactive, MainMu: 4.5, MainSigma: 0.8,
		Beta: 0.30, TypDuration: 45, DurationNoise: 0.30},
	{Name: "LinkedIn", SessionSharePct: 0.51, SessionCV: 1.23, TrafficSharePct: 0.54, TrafficCV: 1.41,
		Class: Interactive, MainMu: 5.2, MainSigma: 0.8,
		Beta: 0.50, TypDuration: 90, DurationNoise: 0.25},
	{Name: "Telegram", SessionSharePct: 0.44, SessionCV: 1.16, TrafficSharePct: 1.08, TrafficCV: 3.27,
		Class: Outlier, MainMu: 5.3, MainSigma: 1.25,
		Peaks: []VolumePeak{{Weight: 0.05, Mu: 6.9, Sigma: 0.10}},
		Beta:  0.70, TypDuration: 60, DurationNoise: 0.30},
	{Name: "Yahoo", SessionSharePct: 0.32, SessionCV: 1.18, TrafficSharePct: 0.10, TrafficCV: 2.40,
		Class: Interactive, MainMu: 4.9, MainSigma: 0.8,
		Beta: 0.45, TypDuration: 60, DurationNoise: 0.25},
	{Name: "FB Messenger", SessionSharePct: 0.23, SessionCV: 1.25, TrafficSharePct: 0.01, TrafficCV: 1.85,
		Class: Interactive, MainMu: 4.3, MainSigma: 0.8,
		Beta: 0.25, TypDuration: 30, DurationNoise: 0.30},
	{Name: "Google Meet", SessionSharePct: 0.22, SessionCV: 1.11, TrafficSharePct: 0.14, TrafficCV: 2.16,
		Class: Streaming, MainMu: 6.5, MainSigma: 1.0,
		Peaks: []VolumePeak{{Weight: 0.08, Mu: 7.2, Sigma: 0.08}},
		Beta:  1.20, TypDuration: 900, DurationNoise: 0.15},
	{Name: "Clash of Clans", SessionSharePct: 0.18, SessionCV: 1.25, TrafficSharePct: 0.09, TrafficCV: 3.31,
		Class: Interactive, MainMu: 4.7, MainSigma: 0.6,
		Beta: 0.30, TypDuration: 300, DurationNoise: 0.25},
	{Name: "Microsoft Mail", SessionSharePct: 0.11, SessionCV: 1.31, TrafficSharePct: 0.01, TrafficCV: 4.48,
		Class: Interactive, MainMu: 4.3, MainSigma: 0.8,
		Beta: 0.20, TypDuration: 40, DurationNoise: 0.30},
	{Name: "Google Docs", SessionSharePct: 0.09, SessionCV: 1.21, TrafficSharePct: 0.02, TrafficCV: 3.58,
		Class: Interactive, MainMu: 4.6, MainSigma: 0.7,
		Beta: 0.35, TypDuration: 200, DurationNoise: 0.25},
	{Name: "Uber", SessionSharePct: 0.07, SessionCV: 1.92, TrafficSharePct: 0.01, TrafficCV: 1.55,
		Class: Interactive, MainMu: 4.5, MainSigma: 0.6,
		Beta: 0.30, TypDuration: 120, DurationNoise: 0.25},
	{Name: "Wikipedia", SessionSharePct: 0.06, SessionCV: 1.30, TrafficSharePct: 0.01, TrafficCV: 3.01,
		Class: Interactive, MainMu: 4.6, MainSigma: 0.7,
		Beta: 0.40, TypDuration: 90, DurationNoise: 0.25},
	{Name: "Pokemon GO", SessionSharePct: 0.04, SessionCV: 1.21, TrafficSharePct: 0.01, TrafficCV: 2.33,
		Class: Interactive, MainMu: 4.5, MainSigma: 0.5,
		Beta: 0.10, TypDuration: 300, DurationNoise: 0.25},
	// Three additional modeled services beyond Table 1 (§5.4 covers 31).
	{Name: "App Store", SessionSharePct: 0.12, SessionCV: 1.40, TrafficSharePct: 0.90, TrafficCV: 2.80,
		Class: Outlier, MainMu: 6.8, MainSigma: 1.2,
		Peaks: []VolumePeak{{Weight: 0.09, Mu: 7.9, Sigma: 0.10}},
		Beta:  1.00, TypDuration: 240, DurationNoise: 0.25},
	{Name: "Web Browsing", SessionSharePct: 0.25, SessionCV: 1.20, TrafficSharePct: 0.20, TrafficCV: 1.60,
		Class: Interactive, MainMu: 5.1, MainSigma: 0.9,
		Beta: 0.50, TypDuration: 120, DurationNoise: 0.25},
	{Name: "Microsoft Teams", SessionSharePct: 0.15, SessionCV: 1.18, TrafficSharePct: 0.25, TrafficCV: 2.00,
		Class: Streaming, MainMu: 6.4, MainSigma: 1.0,
		Peaks: []VolumePeak{{Weight: 0.07, Mu: 7.1, Sigma: 0.08}},
		Beta:  1.15, TypDuration: 1200, DurationNoise: 0.15},
}

// All returns the full catalog, ordered by descending session share.
// The returned slice is freshly allocated; its Profile values share no
// state with the package.
func All() []Profile {
	out := make([]Profile, len(catalog))
	copy(out, catalog)
	sort.SliceStable(out, func(i, j int) bool {
		return out[i].SessionSharePct > out[j].SessionSharePct
	})
	return out
}

// Table1 returns only the 28 services listed in paper Table 1, ordered
// by descending session share.
func Table1() []Profile {
	all := All()
	out := out28(all)
	return out
}

func out28(all []Profile) []Profile {
	extra := map[string]bool{"App Store": true, "Web Browsing": true, "Microsoft Teams": true}
	out := make([]Profile, 0, len(all)-len(extra))
	for _, p := range all {
		if !extra[p.Name] {
			out = append(out, p)
		}
	}
	return out
}

// ByName returns the profile with the given name.
func ByName(name string) (Profile, error) {
	for _, p := range catalog {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("services: unknown service %q", name)
}

// Names returns the service names ordered by descending session share.
func Names() []string {
	all := All()
	out := make([]string, len(all))
	for i, p := range all {
		out[i] = p.Name
	}
	return out
}

// SessionShareProbs returns the catalog ordered by descending session
// share together with the normalized probability that a newly
// established session belongs to each service — the measurement-driven
// arrival breakdown of paper §5.1 (Table 1 shares used as assignment
// probabilities).
func SessionShareProbs() ([]Profile, []float64) {
	all := All()
	probs := make([]float64, len(all))
	var total float64
	for _, p := range all {
		total += p.SessionSharePct
	}
	for i, p := range all {
		probs[i] = p.SessionSharePct / total
	}
	return all, probs
}
