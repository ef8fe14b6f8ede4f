package core_test

import (
	"fmt"
	"math"
	"testing"

	"mobiletraffic/internal/core"
	"mobiletraffic/internal/dist"
	"mobiletraffic/internal/oracle"
)

// The generator's one-sample suite tests core.Generator against the
// ModelSet it is built from, rather than against another generator:
// every marginal below is computed in closed form by internal/oracle
// from the released parameters — the per-service log-normal volume
// mixtures, the duration power law with DurationNoise, the per-class
// Gaussian/Pareto arrival counts and the session shares — and a
// generated sample must be a plausible draw from it. Both production
// draw paths are tested: the serial MinuteAppend stream and the
// campaign fold. The seeds are fixed, so every p-value is a constant;
// the 1e-3 floor keeps the suite deterministic while failing loudly on
// a systematic shift, which the planted-shift controls prove it can
// see.

const (
	genMinP   = 1e-3
	genMinExp = 20 // pooled chi-square cells hold at least this expectation
	// genSerialMinutes covers 10 000 daytime and 30 000 nighttime
	// minutes per arrival class on the serial path: the nighttime
	// Pareto carries little information per minute.
	genSerialMinutes = 80000
	// genCampaignDays sizes the campaign fold to a comparable number
	// of nighttime minutes per class under genPhase.
	genCampaignDays = 28
)

// genPhase is the campaign's phase-weight profile: three minutes in
// four mostly nighttime, so the fold draws fractional phases while
// most minutes test the nighttime mode.
var genPhase = []float64{0.9, 0.1, 0.1, 0.1}

// truthSet is the suite's released-model fixture: a capped multi-peak
// mixture, a bare log-normal and a single-peak mixture whose upper
// tail reaches the default volume ceiling, each with duration noise,
// and two arrival classes whose nighttime Pareto spreads over several
// count cells.
func truthSet() *core.ModelSet {
	return &core.ModelSet{
		Services: []core.ServiceModel{
			{
				Name:         "video",
				SessionShare: 0.22,
				Volume: core.VolumeModel{MainMu: 6.5, MainSigma: 1.1, MaxVolume: 2e9,
					Peaks: []core.VolumeComponent{{K: 0.18, Mu: 7.6, Sigma: 0.08}, {K: 0.05, Mu: 8.3, Sigma: 0.1}}},
				Duration:      core.DurationModel{Alpha: 3000, Beta: 1.5},
				DurationNoise: 0.15,
			},
			{
				Name:          "web",
				SessionShare:  0.6,
				Volume:        core.VolumeModel{MainMu: 5.3, MainSigma: 0.7},
				Duration:      core.DurationModel{Alpha: 800, Beta: 0.6},
				DurationNoise: 0.25,
			},
			{
				Name:         "sync",
				SessionShare: 0.18,
				Volume: core.VolumeModel{MainMu: 6.0, MainSigma: 1.2,
					Peaks: []core.VolumeComponent{{K: 0.1, Mu: 7.8, Sigma: 0.12}}},
				Duration:      core.DurationModel{Alpha: 1200, Beta: 1.05},
				DurationNoise: 0.3,
			},
		},
		Arrivals: []*core.ArrivalModel{
			{PeakMu: 6, PeakSigma: 0.6, OffShape: core.ParetoShape, OffScale: 0.8},
			{PeakMu: 12, PeakSigma: 1.2, OffShape: core.ParetoShape, OffScale: 1.2},
		},
	}
}

// genSample is what the suite reads off one generator run.
type genSample struct {
	svcCounts      []float64
	logVol, logDur [][]float64 // log10 bytes and seconds per service
	// hist[c][k] counts the minutes of arrival class c that saw
	// exactly k sessions.
	hist [][]float64
	// phase[c] is one period of class c's per-minute daytime weight,
	// repeated periods times.
	phase   [][]float64
	periods int
}

func newGenSample(set *core.ModelSet) *genSample {
	n := len(set.Services)
	return &genSample{
		svcCounts: make([]float64, n),
		logVol:    make([][]float64, n),
		logDur:    make([][]float64, n),
		hist:      make([][]float64, len(set.Arrivals)),
		phase:     make([][]float64, len(set.Arrivals)),
	}
}

// add records one generated session.
func (s *genSample) add(svc int, volume, duration float64) {
	s.svcCounts[svc]++
	s.logVol[svc] = append(s.logVol[svc], math.Log10(volume))
	s.logDur[svc] = append(s.logDur[svc], math.Log10(duration))
}

// minute records one minute of class c with n arrivals.
func (s *genSample) minute(c, n int) {
	for len(s.hist[c]) <= n {
		s.hist[c] = append(s.hist[c], 0)
	}
	s.hist[c][n]++
}

// serialSample draws genSerialMinutes minutes through MinuteAppend,
// alternating the arrival classes; one minute in four of each class is
// in the daytime mode.
func serialSample(t *testing.T, set *core.ModelSet, seed int64) *genSample {
	t.Helper()
	g, err := core.NewGenerator(set, seed)
	if err != nil {
		t.Fatal(err)
	}
	s := newGenSample(set)
	s.periods = 1
	svc := map[string]int{}
	for i, m := range set.Services {
		svc[m.Name] = i
	}
	var buf []core.GenSession
	for m := 0; m < genSerialMinutes; m++ {
		class := m % len(set.Arrivals)
		peak := (m/2)%4 == 0
		if buf, err = g.MinuteAppend(buf[:0], class, peak); err != nil {
			t.Fatal(err)
		}
		w := 0.0
		if peak {
			w = 1
		}
		s.phase[class] = append(s.phase[class], w)
		s.minute(class, len(buf))
		for _, sess := range buf {
			s.add(svc[sess.Service], sess.Volume, sess.Duration)
		}
	}
	return s
}

// campaignSample folds a genCampaignDays-day campaign with one BS per
// arrival class over the genPhase profile.
func campaignSample(t *testing.T, set *core.ModelSet, seed int64) *genSample {
	t.Helper()
	g, err := core.NewGenerator(set, seed)
	if err != nil {
		t.Fatal(err)
	}
	s := newGenSample(set)
	s.periods = genCampaignDays
	day := make([]float64, 24*60)
	for m := range day {
		day[m] = genPhase[m%len(genPhase)]
	}
	for c := range s.phase {
		s.phase[c] = day
	}
	spec := core.CampaignSpec{Arrivals: set.Arrivals, Days: genCampaignDays, PhaseWeights: genPhase, Workers: 2}
	err = g.GenerateCampaignFold(spec, func(blk *core.DayBlock) error {
		for m := 0; m+1 < len(blk.Offsets); m++ {
			lo, hi := blk.MinuteRange(m)
			s.minute(blk.BS, hi-lo)
		}
		for i := 0; i < blk.Sessions(); i++ {
			s.add(int(blk.Svc[i]), blk.Volume[i], blk.Duration[i])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// volumeMixture returns a model's log10-volume components and their
// weights: the main Normal with weight 1, then the peaks.
func volumeMixture(m *core.VolumeModel) ([]dist.Normal, []float64) {
	comps, w := []dist.Normal{{Mu: m.MainMu, Sigma: m.MainSigma}}, []float64{1}
	for _, pk := range m.Peaks {
		comps = append(comps, dist.Normal{Mu: pk.Mu, Sigma: pk.Sigma})
		w = append(w, pk.K)
	}
	return comps, w
}

// volumeCap is the generator's volume ceiling in log10 bytes.
func volumeCap(m *core.VolumeModel) float64 {
	if m.MaxVolume > 0 {
		return math.Log10(m.MaxVolume)
	}
	return math.Log10(core.MaxSampleVolume)
}

// genTruth is the analytic ground truth of a ModelSet. The per-service
// CDFs are built once per test: the duration CDF's cap correction is
// the costly part.
type genTruth struct {
	set            *core.ModelSet
	volCDF, durCDF []func(float64) float64
}

func newGenTruth(t *testing.T, set *core.ModelSet) *genTruth {
	t.Helper()
	o := &genTruth{set: set}
	for i := range set.Services {
		m := &set.Services[i]
		comps, w := volumeMixture(&m.Volume)
		volCDF, err := oracle.VolumeCDF(comps, w, volumeCap(&m.Volume))
		if err != nil {
			t.Fatal(err)
		}
		durCDF, err := oracle.DurationCDF(comps, w, volumeCap(&m.Volume), oracle.PowerLaw{
			Log10Alpha: math.Log10(m.Duration.Alpha),
			Beta:       m.Duration.Beta,
			Noise:      m.DurationNoise,
			TopLog10:   math.Log10(core.MaxSessionDuration),
		})
		if err != nil {
			t.Fatal(err)
		}
		o.volCDF = append(o.volCDF, volCDF)
		o.durCDF = append(o.durCDF, durCDF)
	}
	return o
}

// genPValues runs every one-sample test of a generated sample against
// the truth and returns the p-values by marginal: "services",
// "minutes/<class>", and "volume/<name>" and "duration/<name>" per
// service.
func genPValues(t *testing.T, o *genTruth, got *genSample) map[string]float64 {
	t.Helper()
	truth := o.set
	ps := map[string]float64{}

	shares := make([]float64, len(truth.Services))
	for i, m := range truth.Services {
		shares[i] = m.SessionShare
	}
	stat, df, p, err := dist.Chi2GoF(got.svcCounts, shares)
	if err != nil {
		t.Fatalf("service chi2: %v", err)
	}
	ps["services"] = p
	t.Logf("services: chi2=%.1f df=%d p=%.3g", stat, df, p)

	for c, a := range truth.Arrivals {
		obs := make([]float64, len(got.hist[c])+1)
		copy(obs, got.hist[c])
		exp := oracle.MinuteCounts(
			dist.Normal{Mu: a.PeakMu, Sigma: a.PeakSigma},
			dist.Pareto{Shape: a.OffShape, Scale: a.OffScale},
			a.PeakMu*0.5, got.phase[c], got.periods, len(obs))
		po, pe := oracle.Pool(obs, exp, genMinExp)
		stat, df, p, err := dist.Chi2GoF(po, pe)
		if err != nil {
			t.Fatalf("class %d minute-count chi2: %v", c, err)
		}
		name := fmt.Sprintf("minutes/%d", c)
		ps[name] = p
		t.Logf("%s: chi2=%.1f df=%d p=%.3g", name, stat, df, p)
	}

	for i, m := range truth.Services {
		for _, k := range []struct {
			kind   string
			sample []float64
			cdf    func(float64) float64
		}{
			{"volume", got.logVol[i], o.volCDF[i]},
			{"duration", got.logDur[i], o.durCDF[i]},
		} {
			d, p, err := dist.KSOneSample(k.sample, k.cdf)
			if err != nil {
				t.Fatalf("%s/%s KS: %v", k.kind, m.Name, err)
			}
			ps[k.kind+"/"+m.Name] = p
			t.Logf("%s/%s: D=%.4f n=%d p=%.3g", k.kind, m.Name, d, len(k.sample), p)
		}
	}
	return ps
}

// genSources are the generator's two production draw paths.
var genSources = []struct {
	name   string
	sample func(*testing.T, *core.ModelSet, int64) *genSample
}{
	{"MinuteAppend", serialSample},
	{"campaign", campaignSample},
}

// TestGenV2StatEquivalence is the generator's distributional contract:
// on both draw paths, a fixed-seed sample is a plausible draw from the
// ModelSet's analytic ground truth on every tested marginal — service
// attribution, per-class minute arrival counts, and each service's
// log10 volume and duration.
func TestGenV2StatEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("generation-heavy")
	}
	truth := newGenTruth(t, truthSet())
	for _, src := range genSources {
		t.Run(src.name, func(t *testing.T) {
			for name, p := range genPValues(t, truth, src.sample(t, truthSet(), 4321)) {
				if p < genMinP {
					t.Errorf("%s departs from the ground truth: p=%.3g", name, p)
				}
			}
		})
	}
}

// TestGeneratorOracleRejectsPlantedShifts is the suite's negative
// control: a sample generated with one parameter shifted by 5% must be
// rejected (p < 1e-3) on every marginal the parameter touches, when
// tested against the unshifted ground truth.
func TestGeneratorOracleRejectsPlantedShifts(t *testing.T) {
	if testing.Short() {
		t.Skip("generation-heavy")
	}
	truth := newGenTruth(t, truthSet())
	perService := func(kind string) []string {
		var out []string
		for _, m := range truth.set.Services {
			out = append(out, kind+"/"+m.Name)
		}
		return out
	}
	var minutes []string
	for c := range truth.set.Arrivals {
		minutes = append(minutes, fmt.Sprintf("minutes/%d", c))
	}
	everyService := func(f func(*core.ServiceModel)) func(*core.ModelSet) {
		return func(set *core.ModelSet) {
			for i := range set.Services {
				f(&set.Services[i])
			}
		}
	}
	everyClass := func(f func(*core.ArrivalModel)) func(*core.ModelSet) {
		return func(set *core.ModelSet) {
			for _, a := range set.Arrivals {
				f(a)
			}
		}
	}
	cases := []struct {
		name    string
		edit    func(*core.ModelSet)
		rejects []string
	}{
		{
			// The main trend moves the volume mixture and, through the
			// power law, the durations.
			name:    "MainMu",
			edit:    everyService(func(m *core.ServiceModel) { m.Volume.MainMu *= 1.05 }),
			rejects: append(perService("volume"), perService("duration")...),
		},
		{
			name:    "Beta",
			edit:    everyService(func(m *core.ServiceModel) { m.Duration.Beta *= 1.05 }),
			rejects: perService("duration"),
		},
		{
			name:    "share",
			edit:    func(set *core.ModelSet) { set.Services[2].SessionShare *= 1.05 },
			rejects: []string{"services"},
		},
		{
			name:    "PeakMu",
			edit:    everyClass(func(a *core.ArrivalModel) { a.PeakMu *= 1.05 }),
			rejects: minutes,
		},
		{
			name:    "ParetoShape",
			edit:    everyClass(func(a *core.ArrivalModel) { a.OffShape *= 1.05 }),
			rejects: minutes,
		},
	}
	for _, src := range genSources {
		for _, tc := range cases {
			t.Run(src.name+"/"+tc.name, func(t *testing.T) {
				shifted := truthSet()
				tc.edit(shifted)
				ps := genPValues(t, truth, src.sample(t, shifted, 4321))
				for _, name := range tc.rejects {
					if p, ok := ps[name]; !ok || p >= genMinP {
						t.Errorf("planted %s shift not rejected on %s: p=%.3g", tc.name, name, p)
					}
				}
			})
		}
	}
}
