package netsim

import (
	"math"
	"testing"

	"mobiletraffic/internal/dist"
	"mobiletraffic/internal/oracle"
	"mobiletraffic/internal/services"
)

// The one-sample oracle suite tests the sampler against the analytic
// ground truth it is seeded with, rather than against another sampler:
// every marginal below is computed in closed form by internal/oracle
// from the reference simulator's catalog, topology and per-BS share
// vectors, and a campaign's sessions must be a plausible draw from it. The campaigns
// run at fixed seeds, so every p-value is a constant; the 1e-3 floor
// keeps the suite deterministic while failing loudly on a systematic
// shift, which the planted-shift controls prove it can see.

const (
	oracleBS     = 20
	oracleDays   = 2
	oracleMinP   = 1e-3
	oracleMinExp = 20 // pooled chi-square cells hold at least this expectation
)

// oracleServices are the four highest-share catalog services (over 80%
// of sessions, Youtube adding a multi-peak streaming profile): the
// services whose volume and duration marginals the suite tests.
var oracleServices = []int{0, 1, 2, 3}

// campaignSample is what the oracle suite reads off one campaign.
type campaignSample struct {
	perBS     []float64 // sessions per BS over the campaign
	svcCounts []float64
	logVol    [][]float64 // log10 bytes per oracle service
	logDur    [][]float64 // log10 seconds per oracle service
	// minuteHist[bs][k] counts the (minute, day) slots of the BS that
	// saw exactly k session arrivals.
	minuteHist [][]float64
	durations  []float64 // every session's served duration
	truncated  int
}

// sampleCampaign runs every (BS, day) cell of the campaign through
// SampleDayColumns, the sampler's production entry point.
func sampleCampaign(t *testing.T, sim *Simulator) *campaignSample {
	t.Helper()
	nBS := len(sim.Topo.BSs)
	out := &campaignSample{
		perBS:      make([]float64, nBS),
		svcCounts:  make([]float64, len(sim.Services)),
		logVol:     make([][]float64, len(oracleServices)),
		logDur:     make([][]float64, len(oracleServices)),
		minuteHist: make([][]float64, nBS),
	}
	slot := map[int32]int{}
	for k, sv := range oracleServices {
		slot[int32(sv)] = k
	}
	var cols DayColumns
	cols.SkipStart = true
	for day := 0; day < sim.Config.Days; day++ {
		for bs := 0; bs < nBS; bs++ {
			if err := sim.SampleDayColumns(bs, day, &cols); err != nil {
				t.Fatal(err)
			}
			out.perBS[bs] += float64(cols.N())
			for _, c := range cols.Counts {
				for len(out.minuteHist[bs]) <= int(c) {
					out.minuteHist[bs] = append(out.minuteHist[bs], 0)
				}
				out.minuteHist[bs][c]++
			}
			for i := 0; i < cols.N(); i++ {
				sv, g := cols.Svc[i], cols.Slot[i]
				out.svcCounts[sv]++
				if k, ok := slot[sv]; ok {
					out.logVol[k] = append(out.logVol[k], math.Log10(cols.Volume[g]))
					out.logDur[k] = append(out.logDur[k], math.Log10(cols.Duration[g]))
				}
				out.durations = append(out.durations, cols.Duration[g])
				if cols.Truncated[i] {
					out.truncated++
				}
			}
		}
	}
	return out
}

// groundTruth evaluates the analytic marginals of a reference
// simulator.
type groundTruth struct{ sim *Simulator }

// serviceExpect returns the expected per-service session counts given
// the per-BS session totals: Σ_bs n_bs·bsProbs[bs].
func (o groundTruth) serviceExpect(perBS []float64) []float64 {
	e := make([]float64, len(o.sim.Services))
	for bs, n := range perBS {
		for sv, p := range o.sim.bsProbs[bs] {
			e[sv] += n * p
		}
	}
	return e
}

// volumeMixture returns a profile's log10-volume components and their
// weights: the main Normal with weight 1, then the peaks.
func volumeMixture(p *services.Profile) ([]dist.Normal, []float64) {
	comps, w := []dist.Normal{{Mu: p.MainMu, Sigma: p.MainSigma}}, []float64{1}
	for _, pk := range p.Peaks {
		comps = append(comps, dist.Normal{Mu: pk.Mu, Sigma: pk.Sigma})
		w = append(w, pk.Weight)
	}
	return comps, w
}

// volumeCDF is the CDF of log10 volume: the Normal mixture, with the
// mass above the 2 GB cap collected on the cap.
func (o groundTruth) volumeCDF(t *testing.T, sv int) func(float64) float64 {
	t.Helper()
	comps, w := volumeMixture(&o.sim.Services[sv])
	cdf, err := oracle.VolumeCDF(comps, w, math.Log10(services.MaxSessionVolume))
	if err != nil {
		t.Fatal(err)
	}
	return cdf
}

// durationCDF is the CDF of log10 duration: the volume mixture through
// the profile's power law and noise, clamped to [1 s, 24 h].
func (o groundTruth) durationCDF(t *testing.T, sv int) func(float64) float64 {
	t.Helper()
	p := &o.sim.Services[sv]
	vol, w := volumeMixture(p)
	cdf, err := oracle.DurationCDF(vol, w, math.Log10(services.MaxSessionVolume), oracle.PowerLaw{
		Log10Alpha: math.Log10(p.Alpha()),
		Beta:       p.Beta,
		Noise:      p.DurationNoise,
		TopLog10:   math.Log10(24 * 3600),
	})
	if err != nil {
		t.Fatal(err)
	}
	return cdf
}

// minuteExpect returns the expected number of the BS's (minute, day)
// slots with k arrivals, for k in [0, cells), the last cell absorbing
// the upper tail: a minute with phase weight w_m draws round(N(μ, μ/10))
// with probability w_m and round(min(Pareto, μ/2)) otherwise.
func (o groundTruth) minuteExpect(bs, cells int) []float64 {
	b := &o.sim.Topo.BSs[bs]
	return oracle.MinuteCounts(
		dist.Normal{Mu: b.PeakRate, Sigma: b.PeakRate / 10},
		dist.Pareto{Shape: OffPeakParetoShape, Scale: b.OffPeakScale},
		b.PeakRate*0.5, o.sim.phase, o.sim.Config.Days, cells)
}

// marginalPValues runs every one-sample test of the campaign against
// the reference ground truth and returns the p-values by marginal:
// "services", "minutes", and "volume/<name>" and "duration/<name>"
// per oracle service.
func marginalPValues(t *testing.T, ref *Simulator, got *campaignSample) map[string]float64 {
	t.Helper()
	o := groundTruth{sim: ref}
	ps := map[string]float64{}

	stat, df, p, err := dist.Chi2GoF(got.svcCounts, o.serviceExpect(got.perBS))
	if err != nil {
		t.Fatalf("service chi2: %v", err)
	}
	ps["services"] = p
	t.Logf("services: chi2=%.1f df=%d p=%.3g", stat, df, p)

	// One goodness-of-fit test over every BS's pooled count cells: the
	// expectations are counts, so Chi2GoF's normalization leaves them
	// as they are. It counts one degree of freedom per cell but one
	// fewer overall, not per BS, which only makes the test
	// conservative. A cell past the largest observed count collects
	// each BS's upper tail.
	var mObs, mExp []float64
	for bs, hist := range got.minuteHist {
		obs := make([]float64, len(hist)+1)
		copy(obs, hist)
		po, pe := oracle.Pool(obs, o.minuteExpect(bs, len(obs)), oracleMinExp)
		mObs, mExp = append(mObs, po...), append(mExp, pe...)
	}
	stat, df, p, err = dist.Chi2GoF(mObs, mExp)
	if err != nil {
		t.Fatalf("minute-count chi2: %v", err)
	}
	ps["minutes"] = p
	t.Logf("minutes: chi2=%.1f df=%d p=%.3g", stat, df, p)

	for k, sv := range oracleServices {
		name := ref.Services[sv].Name
		for _, m := range []struct {
			kind   string
			sample []float64
			cdf    func(float64) float64
		}{
			{"volume", got.logVol[k], o.volumeCDF(t, sv)},
			{"duration", got.logDur[k], o.durationCDF(t, sv)},
		} {
			d, p, err := dist.KSOneSample(m.sample, m.cdf)
			if err != nil {
				t.Fatalf("%s/%s KS: %v", m.kind, name, err)
			}
			ps[m.kind+"/"+name] = p
			t.Logf("%s/%s: D=%.4f n=%d p=%.3g", m.kind, name, d, len(m.sample), p)
		}
	}
	return ps
}

// truncationPValue z-tests a mobility campaign's truncated-session
// count against its expectation Σ_i MoveProb·(1 − e^(−d_i/MeanDwell))
// over the sessions with d_i > 1 s, where the d_i are the durations of
// the same campaign with mobility off: the mobility rectangle is drawn
// after the volume and duration rectangles, so both campaigns realize
// the same sessions before truncation.
func truncationPValue(t *testing.T, ref SimConfig, noMobility, mobile *campaignSample) float64 {
	t.Helper()
	if len(noMobility.durations) != len(mobile.durations) {
		t.Fatalf("campaigns differ in size: %d vs %d sessions", len(noMobility.durations), len(mobile.durations))
	}
	var mean, variance float64
	for _, d := range noMobility.durations {
		if d <= 1 {
			continue
		}
		p := ref.MoveProb * (1 - math.Exp(-d/ref.MeanDwell))
		mean += p
		variance += p * (1 - p)
	}
	z := (float64(mobile.truncated) - mean) / math.Sqrt(variance)
	p := math.Erfc(math.Abs(z) / math.Sqrt2)
	t.Logf("truncation: observed %d expected %.1f z=%.2f p=%.3g", mobile.truncated, mean, z, p)
	return p
}

// oracleSim builds a campaign simulator over the oracle topology. The
// edit hooks plant parameter shifts in the topology and catalog.
func oracleSim(t *testing.T, moveProb float64, editTopo func(*Topology), editCatalog func([]services.Profile)) *Simulator {
	t.Helper()
	topo, err := NewTopology(TopologyConfig{NumBS: oracleBS, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if editTopo != nil {
		editTopo(topo)
	}
	catalog := services.All()
	if editCatalog != nil {
		editCatalog(catalog)
	}
	sim, err := NewSimulatorWithCatalog(topo, SimConfig{Days: oracleDays, Seed: 42, MoveProb: moveProb, Weekend: 1}, catalog)
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

// TestSamplerV2StatEquivalence is the sampler's distributional
// contract: a 20-BS × 2-day campaign is a plausible draw from the seeded
// ground truth on every tested marginal — per-service session counts,
// per-BS minute arrival counts, the log10 volume and duration of the top
// four services, and the mobility truncation rate.
func TestSamplerV2StatEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	ref := oracleSim(t, -1, nil, nil)
	got := sampleCampaign(t, ref)
	for name, p := range marginalPValues(t, ref, got) {
		if p < oracleMinP {
			t.Errorf("%s departs from the ground truth: p=%.3g", name, p)
		}
	}
	mobile := oracleSim(t, 0, nil, nil)
	if p := truncationPValue(t, mobile.Config, got, sampleCampaign(t, mobile)); p < oracleMinP {
		t.Errorf("truncation rate departs from the ground truth: p=%.3g", p)
	}
}

// TestAnalyticOracleRejectsPlantedShifts is the suite's negative
// control: a campaign simulated with one parameter shifted by 5% must
// be rejected (p < 1e-3) on every marginal the parameter touches, when
// tested against the unshifted ground truth.
func TestAnalyticOracleRejectsPlantedShifts(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	ref := oracleSim(t, -1, nil, nil)
	var top []string
	for _, sv := range oracleServices {
		top = append(top, ref.Services[sv].Name)
	}
	prefixed := func(kind string) []string {
		var out []string
		for _, name := range top {
			out = append(out, kind+"/"+name)
		}
		return out
	}
	shiftTop := func(f func(*services.Profile)) func([]services.Profile) {
		return func(c []services.Profile) {
			for _, sv := range oracleServices {
				f(&c[sv])
			}
		}
	}
	cases := []struct {
		name        string
		editTopo    func(*Topology)
		editCatalog func([]services.Profile)
		rejects     []string
	}{
		{
			// The main volume trend moves the volume mixture and, through
			// the re-anchored power law, the peaks' durations.
			name:        "MainMu",
			editCatalog: shiftTop(func(p *services.Profile) { p.MainMu *= 1.05 }),
			rejects:     append(prefixed("volume"), prefixed("duration")...),
		},
		{
			// The exponent rescales every duration component's spread.
			name:        "Beta",
			editCatalog: shiftTop(func(p *services.Profile) { p.Beta *= 1.05 }),
			rejects:     prefixed("duration"),
		},
		{
			name:        "share",
			editCatalog: func(c []services.Profile) { c[3].SessionSharePct *= 1.05 },
			rejects:     []string{"services"},
		},
		{
			name: "PeakRate",
			editTopo: func(topo *Topology) {
				for i := range topo.BSs {
					topo.BSs[i].PeakRate *= 1.05
				}
			},
			rejects: []string{"minutes"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			shifted := oracleSim(t, -1, tc.editTopo, tc.editCatalog)
			ps := marginalPValues(t, ref, sampleCampaign(t, shifted))
			for _, name := range tc.rejects {
				if p, ok := ps[name]; !ok || p >= oracleMinP {
					t.Errorf("planted %s shift not rejected on %s: p=%.3g", tc.name, name, p)
				}
			}
		})
	}
	t.Run("MoveProb", func(t *testing.T) {
		noMobility := sampleCampaign(t, ref)
		mobile := oracleSim(t, 0, nil, nil)
		shifted := oracleSim(t, mobile.Config.MoveProb*1.05, nil, nil)
		if p := truncationPValue(t, mobile.Config, noMobility, sampleCampaign(t, shifted)); p >= oracleMinP {
			t.Errorf("planted MoveProb shift not rejected on truncation: p=%.3g", p)
		}
	})
}
