package services

import (
	"math"
	"math/rand"
	"testing"

	"mobiletraffic/internal/dist"
	"mobiletraffic/internal/mathx"
)

// Construction validation and exact-marginal invariants of the alias
// table itself live in internal/mathx/alias_test.go next to the
// implementation; the tests here cover the services-package use: the
// catalog share draw and the log-domain profile samplers.

// PickService draws a service index according to the probabilities
// returned by SessionShareProbs by a cumulative linear scan: the
// alias table's test oracle.
func PickService(probs []float64, rng *rand.Rand) int {
	u := rng.Float64()
	var acc float64
	for i, p := range probs {
		acc += p
		if u < acc {
			return i
		}
	}
	return len(probs) - 1
}

// TestAliasVsLinearScanChi2 is the categorical-draw equivalence check:
// the alias table fed by the PCG uniform stream and the PickService
// cumulative scan fed by math/rand must draw
// the catalog's session shares from the same distribution. Both streams
// are fixed-seed, so the chi-square p-values are deterministic.
func TestAliasVsLinearScanChi2(t *testing.T) {
	_, probs := SessionShareProbs()
	tab, err := NewAliasTable(probs)
	if err != nil {
		t.Fatal(err)
	}
	const n = 400000
	aliasCounts := make([]float64, len(probs))
	scanCounts := make([]float64, len(probs))
	var pcg mathx.PCG
	pcg.SeedStream(99, 0, 0)
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < n; i++ {
		aliasCounts[tab.Pick(pcg.Float64())]++
		scanCounts[PickService(probs, rng)]++
	}
	// Each sampler against the exact catalog probabilities...
	for name, counts := range map[string][]float64{"alias": aliasCounts, "scan": scanCounts} {
		stat, df, p, err := dist.Chi2GoF(counts, probs)
		if err != nil {
			t.Fatalf("%s GoF: %v", name, err)
		}
		if p < 1e-3 {
			t.Errorf("%s sampler deviates from catalog shares: chi2=%.1f df=%d p=%.2e", name, stat, df, p)
		}
	}
	// ...and against each other.
	stat, df, p, err := dist.Chi2Homogeneity(aliasCounts, scanCounts)
	if err != nil {
		t.Fatal(err)
	}
	if p < 1e-3 {
		t.Errorf("alias and linear-scan draws differ: chi2=%.1f df=%d p=%.2e", stat, df, p)
	}
}

// TestLnSamplersMatchPowSamplers checks the log-domain volume/duration
// samplers realize the same distributions as the historical math.Pow
// forms: matched-size samples from each pair must pass a two-sample KS
// test, and the hard clamps must land on identical boundary values.
func TestLnSamplersMatchPowSamplers(t *testing.T) {
	for _, name := range []string{"Facebook", "Netflix", "Pokemon GO"} {
		p, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		p.Precompute()
		const n = 200000
		volPow := make([]float64, n)
		durPow := make([]float64, n)
		rng := rand.New(rand.NewSource(7))
		for i := range volPow {
			v := p.SampleVolume(rng)
			volPow[i] = math.Log10(v)
			durPow[i] = math.Log10(p.SampleDuration(v, rng))
		}
		volLn := make([]float64, n)
		durLn := make([]float64, n)
		var pcg mathx.PCG
		pcg.SeedStream(7, 1, 2)
		for i := range volLn {
			v, lnV := p.SampleVolumeLn(&pcg)
			volLn[i] = math.Log10(v)
			durLn[i] = math.Log10(p.SampleDurationLn(lnV, &pcg))
		}
		for mName, pair := range map[string][2][]float64{
			"volume":   {volPow, volLn},
			"duration": {durPow, durLn},
		} {
			d, pv, err := dist.KSTwoSample(pair[0], pair[1])
			if err != nil {
				t.Fatal(err)
			}
			if pv < 1e-3 {
				t.Errorf("%s %s: ln-domain sampler differs from pow sampler: D=%.4f p=%.2e", name, mName, d, pv)
			}
		}
	}
}

// TestLnSamplersClampBoundaries checks the log-domain clamps return the
// exact historical boundary constants.
func TestLnSamplersClampBoundaries(t *testing.T) {
	// A degenerate profile whose volume always exceeds the cap.
	p := Profile{Name: "huge", MainMu: 12, MainSigma: 0.01, Beta: 1, TypDuration: 1e9, DurationNoise: 0.01}
	p.Precompute()
	var pcg mathx.PCG
	pcg.SeedStream(1, 0, 0)
	for i := 0; i < 100; i++ {
		v, lnV := p.SampleVolumeLn(&pcg)
		if v != MaxSessionVolume {
			t.Fatalf("volume %v not clamped to MaxSessionVolume", v)
		}
		if lnV != math.Log(MaxSessionVolume) {
			t.Fatalf("lnV %v not clamped to ln(MaxSessionVolume)", lnV)
		}
	}
	// Tiny volumes against a slow power law force the 1 s floor; huge
	// ones against TypDuration >> 24 h force the ceiling.
	small := Profile{Name: "tiny", MainMu: 0.5, MainSigma: 0.01, Beta: 1, TypDuration: 1, DurationNoise: 0.01}
	small.Precompute()
	if d := small.SampleDurationLn(math.Log(1e-3), &pcg); d != 1 {
		t.Fatalf("duration %v not clamped to 1 s floor", d)
	}
	big := Profile{Name: "slow", MainMu: 6, MainSigma: 0.01, Beta: 0.1, TypDuration: 600, DurationNoise: 0.01}
	big.Precompute()
	if d := big.SampleDurationLn(math.Log(1e18), &pcg); d != 24*3600 {
		t.Fatalf("duration %v not clamped to 24 h ceiling", d)
	}
}

// TestSampleLnFallbackWithoutPrecompute checks the raw-literal fallback
// path: a Profile that never saw Precompute must still draw from the
// full mixture (peaks included), not just the main component.
func TestSampleLnFallbackWithoutPrecompute(t *testing.T) {
	p, err := ByName("Netflix") // two strong peaks at 7.6 and 8.3
	if err != nil {
		t.Fatal(err)
	}
	// No Precompute call: mixTotal stays zero.
	var pcg mathx.PCG
	pcg.SeedStream(3, 0, 0)
	const n = 100000
	inPeak := 0
	for i := 0; i < n; i++ {
		_, lnV := p.SampleVolumeLn(&pcg)
		u := lnV / math.Ln10
		if u > 7.3 && u < 7.9 {
			inPeak++
		}
	}
	// The 7.6 peak carries weight 0.18/1.23 ~ 15% of sessions; the main
	// lognormal alone puts ~10% in that window. Anything above 12%
	// proves the peaks are drawn.
	if frac := float64(inPeak) / n; frac < 0.12 {
		t.Errorf("fallback path ignores mixture peaks: %.3f of mass in the 7.6-decade window", frac)
	}
	if d := p.SampleDurationLn(math.Log(4e7), &pcg); d <= 1 || d >= 24*3600 {
		t.Errorf("fallback duration %v outside open interval", d)
	}
}
