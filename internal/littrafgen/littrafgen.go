// Package littrafgen implements the literature traffic models the paper
// compares against in §6 ([42] Tsompanidis et al., [31] Navarro-Ortiz
// et al.): mobile traffic described at the level of three broad service
// categories — Interactive Web (IW), Casual Streaming (CS) and Movie
// Streaming (MS) — with independent per-category session size and
// duration distributions and no per-service structure.
//
// These category-level models are the benchmarks bm_a/bm_b of §6.1 and
// bm_a/bm_b/bm_c of §6.2; their lack of session-level per-service
// statistics is exactly what the paper shows to produce unreliable
// performance evaluations.
package littrafgen

import (
	"fmt"
	"math"

	"mobiletraffic/internal/mathx"
	"mobiletraffic/internal/services"
)

// Category is one of the three literature service categories.
type Category int

// Literature service categories.
const (
	IW Category = iota // Interactive Web
	CS                 // Casual Streaming
	MS                 // Movie Streaming
	numCategories
)

// String implements fmt.Stringer.
func (c Category) String() string {
	switch c {
	case IW:
		return "IW"
	case CS:
		return "CS"
	case MS:
		return "MS"
	default:
		return fmt.Sprintf("Category(%d)", int(c))
	}
}

// NumCategories is the number of literature categories.
const NumCategories = int(numCategories)

// CategoryModel is the literature description of one category: base-10
// log-normal session volume and session duration, drawn independently
// (the models provide "throughput and session size/duration" per
// category with no duration-volume coupling).
type CategoryModel struct {
	Name string
	// Volume: log10-bytes location/width.
	VolMu, VolSigma float64
	// Duration: log10-seconds location/width.
	DurMu, DurSigma float64
}

// Models returns the three category models with representative
// parameters from the surveyed literature: short light interactive-web
// sessions, mid-sized casual streams, and long heavy movie streams.
func Models() [NumCategories]CategoryModel {
	return [NumCategories]CategoryModel{
		IW: {Name: "IW", VolMu: 5.7, VolSigma: 0.4, DurMu: 1.5, DurSigma: 0.3},
		CS: {Name: "CS", VolMu: 7.3, VolSigma: 0.4, DurMu: 2.4, DurSigma: 0.3},
		MS: {Name: "MS", VolMu: 8.6, VolSigma: 0.35, DurMu: 3.2, DurSigma: 0.25},
	}
}

// Session is one category-level synthetic session.
type Session struct {
	Category   Category
	Volume     float64 // bytes
	Duration   float64 // seconds
	Throughput float64 // bytes/second
}

// MeanVolume returns the analytic mean session volume in bytes.
func (m *CategoryModel) MeanVolume() float64 {
	s := m.VolSigma * math.Ln10
	return math.Pow(10, m.VolMu) * math.Exp(s*s/2)
}

// MeanThroughput returns the analytic mean of volume/duration under the
// independence assumption: E[V] * E[1/D].
func (m *CategoryModel) MeanThroughput() float64 {
	s := m.DurSigma * math.Ln10
	invD := math.Pow(10, -m.DurMu) * math.Exp(s*s/2)
	return m.MeanVolume() * invD
}

// CategoryOf maps a catalog service to its literature category: video
// streaming services to MS, audio/casual streaming to CS, everything
// else to IW — the 28-to-3 mapping of §6.2.2.
func CategoryOf(p services.Profile) Category {
	if p.Class != services.Streaming {
		return IW
	}
	// Movie/video streaming: the heavyweight super-linear services.
	switch p.Name {
	case "Netflix", "Twitch", "FB Live", "Youtube":
		return MS
	}
	return CS
}

// BMAShares returns the category session shares of benchmark bm_a in
// §6.1: the three categories with shares derived from aggregating the
// corresponding Table 1 values (IW 49.30%, CS 48.46%, MS 2.24%).
func BMAShares() [NumCategories]float64 {
	return [NumCategories]float64{IW: 0.4930, CS: 0.4846, MS: 0.0224}
}

// BMBShares returns the category session shares of benchmark bm_b in
// §6.1, taken from the literature (IW 50%, CS 42.11%, MS 7.89%).
func BMBShares() [NumCategories]float64 {
	return [NumCategories]float64{IW: 0.50, CS: 0.4211, MS: 0.0789}
}

// Generator draws category-level sessions with the configured shares —
// the complete benchmark workload generator. It samples both
// log-normals in the natural-log domain on a PCG stream with
// precomputed constants.
type Generator struct {
	Shares [NumCategories]float64
	Models [NumCategories]CategoryModel
	// VolumeScale rescales sampled volumes (and hence throughputs);
	// bm_b and bm_c of §6.2 use it to normalize the generated traffic
	// against the measurement totals. Index by category; zero values
	// mean no scaling.
	VolumeScale [NumCategories]float64
	pcg         mathx.PCG
	// seed is the master seed, kept for deriving substreams.
	seed uint64
	// Per-category log-normal constants folded into natural log so a
	// draw is one Gaussian variate and one math.Exp per marginal.
	volMuLn, volSigLn [NumCategories]float64
	durMuLn, durSigLn [NumCategories]float64
}

// NewGenerator builds a benchmark generator with the given shares.
func NewGenerator(shares [NumCategories]float64, seed int64) *Generator {
	g := &Generator{Shares: shares, Models: Models(), seed: uint64(seed)}
	g.pcg.SeedStream(uint64(seed), 0x117, 3)
	for c := 0; c < NumCategories; c++ {
		g.volMuLn[c] = g.Models[c].VolMu * math.Ln10
		g.volSigLn[c] = g.Models[c].VolSigma * math.Ln10
		g.durMuLn[c] = g.Models[c].DurMu * math.Ln10
		g.durSigLn[c] = g.Models[c].DurSigma * math.Ln10
	}
	return g
}

// benchmarkDomain salts the benchmark generator's substream family so
// its (a, b) cells can never coincide with the core generation plane's
// campaign or client substreams, nor with the measurement sampler's
// unsalted netsim substreams, under a shared master seed (see DESIGN.md
// "Generation engine streams").
const benchmarkDomain uint64 = 0xBE4C_6D67_656E03BD

// Substream returns an independent benchmark generator on the (a, b)
// cell of this generator's stream family — same shares, models and
// scales, its own PCG seeded SeedStream(master^benchmarkDomain, a, b).
// Cells are pure functions of (master seed, a, b), so parallel
// benchmark generation keyed by (BS, day) is deterministic under any
// schedule.
func (g *Generator) Substream(a, b uint64) *Generator {
	sub := &Generator{
		Shares:      g.Shares,
		Models:      g.Models,
		VolumeScale: g.VolumeScale,
		seed:        g.seed,
		volMuLn:     g.volMuLn,
		volSigLn:    g.volSigLn,
		durMuLn:     g.durMuLn,
		durSigLn:    g.durSigLn,
	}
	sub.pcg.SeedStream(g.seed^benchmarkDomain, a, b)
	return sub
}

// Sample draws one session: a cumulative compare over the three
// shares (an alias table buys nothing at n = 3), then both log-normal
// marginals in the natural-log domain.
func (g *Generator) Sample() Session {
	u := g.pcg.Float64() * (g.Shares[IW] + g.Shares[CS] + g.Shares[MS])
	cat := MS
	if u < g.Shares[IW] {
		cat = IW
	} else if u < g.Shares[IW]+g.Shares[CS] {
		cat = CS
	}
	return g.SampleCategory(cat)
}

// SampleCategory draws one session of a forced category on the
// generator's own stream — the §6.2.3 shared-attribution form of
// Sample, where the category is fixed by a shared arrival realization
// instead of the generator's share pick.
func (g *Generator) SampleCategory(cat Category) Session {
	vol := math.Exp(g.volMuLn[cat] + g.volSigLn[cat]*g.pcg.NormFloat64())
	x := g.durMuLn[cat] + g.durSigLn[cat]*g.pcg.NormFloat64()
	dur := 1.0
	if x > 0 {
		dur = math.Exp(x)
	}
	if sc := g.VolumeScale[cat]; sc > 0 && sc != 1 {
		vol *= sc
	}
	return Session{Category: cat, Volume: vol, Duration: dur, Throughput: vol / dur}
}

// NormalizeTotal configures per-category volume scaling so the
// generator's expected total traffic matches wantMean (bytes per
// session on average across categories) — the bm_b normalization of
// §6.2.2. It returns the common scale factor applied.
func (g *Generator) NormalizeTotal(wantMeanVolume float64) float64 {
	var mean float64
	total := g.Shares[IW] + g.Shares[CS] + g.Shares[MS]
	for c := 0; c < NumCategories; c++ {
		mean += g.Shares[c] / total * g.Models[c].MeanVolume()
	}
	if mean <= 0 || wantMeanVolume <= 0 {
		return 1
	}
	scale := wantMeanVolume / mean
	for c := 0; c < NumCategories; c++ {
		g.VolumeScale[c] = scale
	}
	return scale
}

// NormalizePerCategory configures volume scaling per category so each
// category's mean session volume matches the measured value — the bm_c
// normalization of §6.2.2 (infeasible without session-level
// measurements, included as the strongest benchmark).
func (g *Generator) NormalizePerCategory(wantMean [NumCategories]float64) [NumCategories]float64 {
	var scales [NumCategories]float64
	for c := 0; c < NumCategories; c++ {
		m := g.Models[c].MeanVolume()
		if m > 0 && wantMean[c] > 0 {
			scales[c] = wantMean[c] / m
		} else {
			scales[c] = 1
		}
		g.VolumeScale[c] = scales[c]
	}
	return scales
}
