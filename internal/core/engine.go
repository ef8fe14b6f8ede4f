package core

import (
	"fmt"
	"math"

	"mobiletraffic/internal/mathx"
)

// Engine names a generation-engine stream version. One version
// remains, GenV2; the type and constant survive only so
// NewGeneratorEngine keeps its signature (see there).
type Engine string

// GenV2 is the table-driven generation engine: stack-resident PCG,
// Walker alias tables for the Table 1 service pick and the
// mixture-component pick, and single-Exp log-domain volume and
// duration draws (see DESIGN.md "Generation engine streams").
const GenV2 Engine = "v2"

// Substream key domains of the generation plane. A substream is a
// mathx.PCG seeded SeedStream(master^domain, a, b); the domain salt
// partitions the one master seed into disjoint stream families so a
// generation substream can never coincide with the measurement
// sampler's netsim substream of the same (seed, BS, day) — netsim
// seeds SeedStream(seed, bs, day) with no salt — nor with each other.
// See DESIGN.md "Generation engine streams" for the full keying table.
const (
	// genCampaignDomain keys the per-(BS, day) campaign substreams:
	// a = the BS key (topology index unless overridden), b = the day.
	genCampaignDomain uint64 = 0xB5DA_6E67_656E01CA
	// genClientDomain keys the server-facing per-(client, stream id)
	// substreams handed out by Generator.Substream.
	genClientDomain uint64 = 0xC11E_5467_656E02AB
)

// lnMaxDuration is the [1 s, 24 h] duration ceiling in the natural-log
// domain, shared by every duration draw.
var lnMaxDuration = math.Log(MaxSessionDuration)

// genPlan is the precomputed generation plan of one ModelSet, built
// once per Generator so the per-session hot path performs no parameter
// derivation, no name lookups and no O(n) scans.
type genPlan struct {
	// svcPick is the Walker/Vose alias table over the normalized
	// session shares: the Table 1 service attribution in O(1).
	svcPick *mathx.AliasTable
	svcs    []svcPlan
}

// svcPlan is one service's precomputed sampling parameters in the
// natural-log domain: each volume draw is one Gaussian variate and one
// math.Exp, each duration draw one more of each.
type svcPlan struct {
	// comp picks the mixture component (column 0 = main trend, then
	// the residual peaks in order); nil when the model has no peaks.
	comp *mathx.AliasTable
	// muLn and sigLn hold the per-component location/width scaled by
	// ln 10, main component first.
	muLn  []float64
	sigLn []float64
	// lnCap / maxVol are the volume support ceiling (MaxVolume, or
	// MaxSampleVolume when the model is unbounded) in both domains.
	lnCap  float64
	maxVol float64
	// Power-law inversion terms: d = exp(invBeta·(ln v − lnAlpha) +
	// noiseLn·Z), clamped to [1 s, MaxSessionDuration] in the log
	// domain.
	invBeta float64
	lnAlpha float64
	noiseLn float64
	// degenerate marks an uninvertible power law (alpha <= 0 or
	// beta == 0): durations pin at the 1 s floor.
	degenerate bool
}

// newGenPlan compiles the generation plan from the model set and its
// normalized session shares.
func newGenPlan(set *ModelSet, shares []float64) (*genPlan, error) {
	svcPick, err := mathx.NewAliasTable(shares)
	if err != nil {
		return nil, fmt.Errorf("core: generation plan service table: %w", err)
	}
	plan := &genPlan{svcPick: svcPick, svcs: make([]svcPlan, len(set.Services))}
	for i := range set.Services {
		m := &set.Services[i]
		sp := &plan.svcs[i]
		ncomp := 1 + len(m.Volume.Peaks)
		sp.muLn = make([]float64, ncomp)
		sp.sigLn = make([]float64, ncomp)
		sp.muLn[0] = m.Volume.MainMu * math.Ln10
		sp.sigLn[0] = m.Volume.MainSigma * math.Ln10
		if len(m.Volume.Peaks) > 0 {
			weights := make([]float64, ncomp)
			weights[0] = 1
			for j, p := range m.Volume.Peaks {
				weights[j+1] = p.K
				sp.muLn[j+1] = p.Mu * math.Ln10
				sp.sigLn[j+1] = p.Sigma * math.Ln10
			}
			comp, err := mathx.NewAliasTable(weights)
			if err != nil {
				return nil, fmt.Errorf("core: generation plan for %s: %w", m.Name, err)
			}
			sp.comp = comp
		}
		sp.maxVol = m.Volume.MaxVolume
		if sp.maxVol <= 0 {
			sp.maxVol = MaxSampleVolume
		}
		sp.lnCap = math.Log(sp.maxVol)
		if m.Duration.Alpha <= 0 || m.Duration.Beta == 0 ||
			math.IsNaN(m.Duration.Alpha) || math.IsNaN(m.Duration.Beta) {
			sp.degenerate = true
		} else {
			sp.invBeta = 1 / m.Duration.Beta
			sp.lnAlpha = math.Log(m.Duration.Alpha)
		}
		sp.noiseLn = m.DurationNoise * math.Ln10
	}
	return plan, nil
}

// sampleVolumeLn draws one volume from the log-normal mixture in the
// natural-log domain: component via the alias table, variate via the
// ziggurat Gaussian, one math.Exp. Returns the volume and its natural
// log so the duration draw can skip the log half of the power-law
// inversion.
func (sp *svcPlan) sampleVolumeLn(rng *mathx.PCG) (v, lnV float64) {
	ci := 0
	if sp.comp != nil {
		ci = sp.comp.Pick(rng.Float64())
	}
	lnV = sp.muLn[ci] + sp.sigLn[ci]*rng.NormFloat64()
	if lnV >= sp.lnCap {
		return sp.maxVol, sp.lnCap
	}
	return math.Exp(lnV), lnV
}

// sampleDurationLn draws the session duration for a volume with the
// given natural log: the power-law inversion plus optional log-normal
// jitter evaluated as a single math.Exp, with the [1 s, 24 h] clamps
// applied in the log domain (boundary cases skip the Exp entirely).
func (sp *svcPlan) sampleDurationLn(lnV float64, rng *mathx.PCG) float64 {
	if sp.degenerate {
		return 1
	}
	x := sp.invBeta * (lnV - sp.lnAlpha)
	if sp.noiseLn > 0 {
		x += sp.noiseLn * rng.NormFloat64()
	}
	switch {
	case x <= 0: // d < 1 s
		return 1
	case x >= lnMaxDuration:
		return MaxSessionDuration
	}
	return math.Exp(x)
}
