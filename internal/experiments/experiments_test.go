package experiments

import (
	"math"
	"strings"
	"sync"
	"testing"

	"mobiletraffic/internal/littrafgen"
	"mobiletraffic/internal/services"
)

var (
	envOnce sync.Once
	envVal  *Env
	envErr  error

	staticOnce sync.Once
	staticVal  *Env
	staticErr  error
)

// sharedEnv builds one moderately sized environment reused by every
// experiment test.
func sharedEnv(t *testing.T) *Env {
	t.Helper()
	envOnce.Do(func() {
		envVal, envErr = NewEnv(Config{NumBS: 20, Days: 7, Seed: 1})
	})
	if envErr != nil {
		t.Fatal(envErr)
	}
	return envVal
}

// staticEnv is a no-mobility environment: with no transient-session
// truncation, fitted parameters are directly comparable with the
// seeded ground truth.
func staticEnv(t *testing.T) *Env {
	t.Helper()
	staticOnce.Do(func() {
		staticVal, staticErr = NewEnv(Config{NumBS: 20, Days: 3, Seed: 2, MoveProb: -1})
	})
	if staticErr != nil {
		t.Fatal(staticErr)
	}
	return staticVal
}

func TestNewEnvDefaults(t *testing.T) {
	env := sharedEnv(t)
	if len(env.Topo.BSs) != 20 {
		t.Errorf("BSs = %d", len(env.Topo.BSs))
	}
	if len(env.Models.Services) < 20 {
		t.Errorf("only %d services modeled", len(env.Models.Services))
	}
	if len(env.Arrivals) != 10 {
		t.Errorf("arrival classes = %d", len(env.Arrivals))
	}
}

func TestExpFig3Shape(t *testing.T) {
	env := sharedEnv(t)
	r, err := ExpFig3(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Deciles) != 10 {
		t.Fatalf("deciles = %d", len(r.Deciles))
	}
	// The paper's regularities: sigma/mu ~ 0.1 everywhere, arrival
	// rates growing exponentially from ~1.21 to ~71.
	for _, d := range r.Deciles {
		if ratio := d.Model.SigmaRatio(); ratio < 0.02 || ratio > 0.4 {
			t.Errorf("decile %d sigma/mu = %v", d.Decile, ratio)
		}
	}
	if r.Deciles[9].Model.PeakMu < 10*r.Deciles[0].Model.PeakMu {
		t.Errorf("rate growth too small: %v -> %v",
			r.Deciles[0].Model.PeakMu, r.Deciles[9].Model.PeakMu)
	}
	if r.MuGrowth <= 1 || r.ScaleGrowth <= 1 {
		t.Errorf("growth factors = %v, %v", r.MuGrowth, r.ScaleGrowth)
	}
	// Night mode well below day mode in every decile.
	for _, d := range r.Deciles {
		if d.EmpiricalOffMean >= d.EmpiricalPeakMean/2 {
			t.Errorf("decile %d: night %v not well below day %v",
				d.Decile, d.EmpiricalOffMean, d.EmpiricalPeakMean)
		}
	}
	if s := r.Table().Render(); !strings.Contains(s, "Fig. 3") {
		t.Error("table render")
	}
}

func TestExpFig4ExponentialLaw(t *testing.T) {
	env := sharedEnv(t)
	r, err := ExpFig4(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Names) != len(env.Catalog) {
		t.Fatalf("ranked %d services", len(r.Names))
	}
	// Shares sorted descending.
	for i := 1; i < len(r.SessionFrac); i++ {
		if r.SessionFrac[i] > r.SessionFrac[i-1]+1e-12 {
			t.Fatalf("ranking not descending at %d", i)
		}
	}
	// Paper: negative exponential with R² = 0.97; top-20 > 78%.
	if r.ExpB >= 0 {
		t.Errorf("exponent B = %v, want negative", r.ExpB)
	}
	if r.R2 < 0.85 {
		t.Errorf("exponential fit R2 = %v, want > 0.85", r.R2)
	}
	if r.Top20Percent < 0.78 {
		t.Errorf("top-20 share = %v, want > 0.78", r.Top20Percent)
	}
	if !strings.Contains(r.Table().Render(), "rank") {
		t.Error("table render")
	}
}

func TestExpFig5ServiceContrasts(t *testing.T) {
	env := sharedEnv(t)
	r, err := ExpFig5(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Services) != 6 {
		t.Fatalf("services = %d", len(r.Services))
	}
	byName := map[string]ServicePDFSummary{}
	for _, s := range r.Services {
		byName[s.Name] = s
	}
	// Streaming services carry heavier sessions and super-linear beta.
	if byName["Netflix"].Mean <= byName["Amazon"].Mean {
		t.Error("Netflix sessions must outweigh Amazon's")
	}
	if byName["Netflix"].PairBeta <= 1 {
		t.Errorf("Netflix beta = %v, want super-linear", byName["Netflix"].PairBeta)
	}
	if byName["Waze"].PairBeta >= 1 {
		t.Errorf("Waze beta = %v, want sub-linear", byName["Waze"].PairBeta)
	}
	// Workday/weekend invariance (§4.4).
	for name, s := range byName {
		if s.WorkdayWeekendEMD > 0.12 {
			t.Errorf("%s workday/weekend EMD = %v, want small", name, s.WorkdayWeekendEMD)
		}
	}
}

func TestExpFig6Clustering(t *testing.T) {
	env := sharedEnv(t)
	r, err := ExpFig6(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Names) < 10 {
		t.Fatalf("clustered %d services", len(r.Names))
	}
	if len(r.LabelsK3) != len(r.Names) {
		t.Fatal("label shape")
	}
	// Exactly 3 clusters at the paper's cut.
	seen := map[int]bool{}
	for _, l := range r.LabelsK3 {
		seen[l] = true
	}
	if len(seen) != 3 {
		t.Errorf("clusters at k=3 = %d", len(seen))
	}
	if len(r.Silhouette) < 3 {
		t.Errorf("silhouette profile length = %d", len(r.Silhouette))
	}
	// The streaming/lightweight dichotomy must show through.
	if r.StreamingPairAgreement < 0.6 {
		t.Errorf("pair agreement = %v, want >= 0.6", r.StreamingPairAgreement)
	}
	if !strings.Contains(r.Table().Render(), "cluster") {
		t.Error("table render")
	}
}

func TestExpFig7FacebookContrast(t *testing.T) {
	env := sharedEnv(t)
	r, err := ExpFig7(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Services) != 2 {
		t.Fatalf("services = %d", len(r.Services))
	}
	var live, fb ServicePDFSummary
	for _, s := range r.Services {
		if s.Name == "FB Live" {
			live = s
		} else {
			fb = s
		}
	}
	// Fig. 7: same user base, opposite behaviours.
	if live.PairBeta <= 1 || fb.PairBeta >= 1 {
		t.Errorf("betas: FB Live %v (want > 1), Facebook %v (want < 1)", live.PairBeta, fb.PairBeta)
	}
	if live.Mean <= fb.Mean {
		t.Error("FB Live sessions must be heavier than Facebook's")
	}
}

func TestExpFig8Invariance(t *testing.T) {
	env := sharedEnv(t)
	r, err := ExpFig8(env)
	if err != nil {
		t.Fatal(err)
	}
	find := func(stats []BoxStats, tag string) BoxStats {
		for _, b := range stats {
			if b.Tag == tag {
				return b
			}
		}
		t.Fatalf("missing tag %s", tag)
		return BoxStats{}
	}
	apps := find(r.EMD, "Apps")
	if apps.N == 0 {
		t.Fatal("no Apps distances")
	}
	// The paper's headline: within-service dimensions yield distances
	// far below inter-service ones.
	for _, tag := range []string{"Days", "Regions", "Cities", "RATs"} {
		b := find(r.EMD, tag)
		if b.N == 0 {
			continue
		}
		if b.Median >= apps.Median/2 {
			t.Errorf("EMD %s median %v not well below Apps median %v", tag, b.Median, apps.Median)
		}
	}
	appsSED := find(r.SED, "Apps")
	for _, tag := range []string{"Days", "Regions", "Cities", "RATs"} {
		b := find(r.SED, tag)
		if b.N == 0 {
			continue
		}
		if b.Median >= appsSED.Median/2 {
			t.Errorf("SED %s median %v not well below Apps median %v", tag, b.Median, appsSED.Median)
		}
	}
	// Apps distances stable across RATs (paper: 'Apps (4G)'/'Apps (5G)'
	// match 'Apps').
	for _, tag := range []string{"Apps (4G)", "Apps (5G)"} {
		b := find(r.EMD, tag)
		if b.N == 0 {
			continue
		}
		if b.Median < apps.Median/3 || b.Median > apps.Median*3 {
			t.Errorf("EMD %s median %v inconsistent with Apps %v", tag, b.Median, apps.Median)
		}
	}
	if !strings.Contains(r.Table().Render(), "Apps") {
		t.Error("table render")
	}
}

func TestExpFig9Decomposition(t *testing.T) {
	env := sharedEnv(t)
	r, err := ExpFig9(env, "")
	if err != nil {
		t.Fatal(err)
	}
	if r.Service != "Netflix" {
		t.Errorf("default service = %s", r.Service)
	}
	if math.Abs(r.MainMu-r.SeededMainMu) > 0.5 {
		t.Errorf("main mu = %v, seeded %v", r.MainMu, r.SeededMainMu)
	}
	// Adding the residual components must improve the fit.
	if r.FinalEMD >= r.MainOnlyEMD {
		t.Errorf("mixture EMD %v did not improve on main-only %v", r.FinalEMD, r.MainOnlyEMD)
	}
	if len(r.Peaks) == 0 || len(r.Peaks) > 3 {
		t.Errorf("peaks = %d", len(r.Peaks))
	}
	if _, err := ExpFig9(env, "NoSuchService"); err == nil {
		t.Error("unknown service must error")
	}
	if !strings.Contains(r.Table().Render(), "main") {
		t.Error("table render")
	}
}

func TestExpFig10BetaRecoveryNoMobility(t *testing.T) {
	// Without transient-session truncation the fitted exponents must
	// recover the seeded ground truth closely.
	env := staticEnv(t)
	r, err := ExpFig10(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) < 20 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if math.Abs(row.Beta-row.SeededBeta) > 0.25 {
			t.Errorf("%s: beta %v, seeded %v", row.Name, row.Beta, row.SeededBeta)
		}
	}
}

func TestExpFig10ShapeWithMobility(t *testing.T) {
	// With the realistic transient-session share, absolute exponents
	// compress toward 1 (truncation preserves throughput), but the
	// Fig. 10 dichotomy must survive: streaming super-linear,
	// interactive sub-linear.
	env := sharedEnv(t)
	r, err := ExpFig10(env)
	if err != nil {
		t.Fatal(err)
	}
	var superStreaming, streaming, subInteractive, interactive int
	for _, row := range r.Rows {
		switch row.Class {
		case services.Streaming:
			streaming++
			if row.Beta > 1 {
				superStreaming++
			}
		case services.Interactive:
			interactive++
			if row.Beta < 1 {
				subInteractive++
			}
		}
	}
	if superStreaming < streaming*2/3 {
		t.Errorf("only %d/%d streaming services super-linear", superStreaming, streaming)
	}
	if subInteractive < interactive*9/10 {
		t.Errorf("only %d/%d interactive services sub-linear", subInteractive, interactive)
	}
}

func TestExpQuality(t *testing.T) {
	env := sharedEnv(t)
	r, err := ExpQuality(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) < 20 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	var emds []float64
	for _, row := range r.Rows {
		emds = append(emds, row.VolumeEMD)
		if row.PeakCount > 3 {
			t.Errorf("%s: %d peaks", row.Name, row.PeakCount)
		}
	}
	// §5.4 shape: the typical model error sits far below inter-service
	// distances (the paper reports one order of magnitude).
	sortFloats(emds)
	median := emds[len(emds)/2]
	if r.MedianInterServiceEMD > 0 && median > r.MedianInterServiceEMD/2.5 {
		t.Errorf("median model EMD %v not well below inter-service median %v",
			median, r.MedianInterServiceEMD)
	}
	if worst := emds[len(emds)-1]; r.MedianInterServiceEMD > 0 && worst > 2*r.MedianInterServiceEMD {
		t.Errorf("worst model EMD %v above 2x inter-service median %v", worst, r.MedianInterServiceEMD)
	}
	if !strings.Contains(r.Table().Render(), "volume EMD") {
		t.Error("table render")
	}
}

func TestExpTable1Shares(t *testing.T) {
	env := sharedEnv(t)
	r, err := ExpTable1(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != len(env.Catalog) {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.SeededSessionPct > 1 { // only check the stable heavy services
			if math.Abs(row.SessionPct-row.SeededSessionPct) > 2 {
				t.Errorf("%s: measured %v%%, seeded %v%%", row.Name, row.SessionPct, row.SeededSessionPct)
			}
		}
	}
	if !strings.Contains(r.Table().Render(), "sessions %") {
		t.Error("table render")
	}
}

func TestAblations(t *testing.T) {
	env := sharedEnv(t)

	t.Run("peak cap", func(t *testing.T) {
		r, err := ExpAblationPeakCap(env)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Rows) != 3 {
			t.Fatalf("rows = %d", len(r.Rows))
		}
		// Uncapped fits comparably or better, at the cost of more
		// components (the two-pass main-trend refinement makes the
		// comparison non-monotone within a few percent).
		if r.Rows[2].Value > r.Rows[1].Value*1.1 {
			t.Errorf("uncapped EMD %v clearly worse than cap=3 %v", r.Rows[2].Value, r.Rows[1].Value)
		}
		if r.Rows[2].Extra < r.Rows[0].Extra {
			t.Errorf("uncapped components %v below cap=1 %v", r.Rows[2].Extra, r.Rows[0].Extra)
		}
	})

	t.Run("smoothing", func(t *testing.T) {
		r, err := ExpAblationSmoothing(env)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Rows) != 2 {
			t.Fatalf("rows = %d", len(r.Rows))
		}
	})

	t.Run("duration family", func(t *testing.T) {
		r, err := ExpAblationDurationFamily(env)
		if err != nil {
			t.Fatal(err)
		}
		byName := map[string]float64{}
		for _, row := range r.Rows {
			byName[row.Config] = row.Value
		}
		// §5.3: the power law wins the family comparison.
		pl := byName["power law (paper)"]
		for name, v := range byName {
			if name == "power law (paper)" {
				continue
			}
			if v > pl+1e-9 {
				t.Errorf("%s R2 %v beats power law %v", name, v, pl)
			}
		}
	})

	t.Run("arrival fit", func(t *testing.T) {
		r, err := ExpAblationArrivalFit(env)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Rows) != 2 {
			t.Fatalf("rows = %d", len(r.Rows))
		}
		// The bi-modal model must beat the single Gaussian.
		if r.Rows[0].Value >= r.Rows[1].Value {
			t.Errorf("bi-modal EMD %v not below single-gaussian %v",
				r.Rows[0].Value, r.Rows[1].Value)
		}
	})
}

func TestExpTable2SlicingOrdering(t *testing.T) {
	env := sharedEnv(t)
	r, err := ExpTable2(env, SlicingConfig{Antennas: 4, Days: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Strategies) != 3 {
		t.Fatalf("strategies = %d", len(r.Strategies))
	}
	byName := map[string]StrategyResult{}
	for _, s := range r.Strategies {
		byName[s.Name] = s
	}
	model := byName["session-level models"]
	// Paper Table 2 shape: the session-level model meets the SLA and
	// beats both benchmarks.
	if model.MeanSatisfied < 0.90 {
		t.Errorf("model satisfaction = %v, want >= 0.90", model.MeanSatisfied)
	}
	for _, bm := range []string{"bm_a", "bm_b"} {
		if byName[bm].MeanSatisfied > model.MeanSatisfied {
			t.Errorf("%s (%v) beats the session-level model (%v)",
				bm, byName[bm].MeanSatisfied, model.MeanSatisfied)
		}
	}
	if !strings.Contains(r.Table().Render(), "Table 2") {
		t.Error("table render")
	}
}

func TestExpFig12Timeline(t *testing.T) {
	env := sharedEnv(t)
	r, err := ExpFig12(env, SlicingConfig{Antennas: 1, Days: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.HourlyPeakDemand) != 48 {
		t.Fatalf("hours = %d", len(r.HourlyPeakDemand))
	}
	var maxPeak, meanSum float64
	var meanN int
	for h, v := range r.HourlyPeakDemand {
		if v > maxPeak {
			maxPeak = v
		}
		if hod := h % 24; hod >= 8 && hod < 22 {
			meanSum += r.HourlyMeanDemand[h]
			meanN++
		}
	}
	// Fig. 12 shape: the allocation follows the 95th percentile, so it
	// sits near or below the demand peaks (never inflated to cover
	// every burst) while remaining above the typical load, and the SLA
	// holds.
	if r.Capacity > maxPeak*1.05 {
		t.Errorf("capacity %v well above peak demand %v", r.Capacity, maxPeak)
	}
	if meanN > 0 && r.Capacity <= meanSum/float64(meanN) {
		t.Errorf("capacity %v not above mean peak-hour demand %v", r.Capacity, meanSum/float64(meanN))
	}
	if r.Satisfied < 0.85 {
		t.Errorf("satisfaction = %v", r.Satisfied)
	}
	if !strings.Contains(r.Table().Render(), "Fig. 12") {
		t.Error("table render")
	}
}

func TestExpFig13VRANOrdering(t *testing.T) {
	env := sharedEnv(t)
	r, err := ExpFig13(env, VRANConfig{ESs: 4, RUsPerES: 5, Hours: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Strategies) != 4 {
		t.Fatalf("strategies = %d", len(r.Strategies))
	}
	byName := map[string]VRANStrategy{}
	for _, s := range r.Strategies {
		byName[s.Name] = s
	}
	model := byName["session-level models"]
	// Fig. 13b shape: the session-level model's APE is small while the
	// benchmarks are off by a large factor (paper: <5% vs 100-1000%).
	if model.PowerAPE.Median > 20 {
		t.Errorf("model power APE median = %v%%, want small", model.PowerAPE.Median)
	}
	if byName["bm_a"].PowerAPE.Median < 50 {
		t.Errorf("bm_a power APE = %v%%, want benchmark-scale error", byName["bm_a"].PowerAPE.Median)
	}
	if byName["bm_a"].PowerAPE.Median < model.PowerAPE.Median*3 {
		t.Errorf("bm_a power APE %v not well above model %v",
			byName["bm_a"].PowerAPE.Median, model.PowerAPE.Median)
	}
	// Power series present for Fig. 13c.
	for _, key := range []string{"measurement", "model", "bm_c"} {
		if len(r.PowerSeries[key]) == 0 {
			t.Errorf("missing power series %q", key)
		}
	}
	if !strings.Contains(r.Table().Render(), "Fig. 13b") {
		t.Error("table render")
	}
	if !strings.Contains(r.Fig13cTable().Render(), "Fig. 13c") {
		t.Error("fig13c render")
	}
}

// TestExpFig13BmBDistinctFromBmA guards the bm_b construction: the
// benchmark must be built from the literature BMB share vector, not
// bm_a's measured shares (a regression once aliased the two, skewing
// bm_b's NormalizeTotal weighting).
func TestExpFig13BmBDistinctFromBmA(t *testing.T) {
	// The share vectors weight NormalizeTotal differently, so the same
	// volume target must produce different scales.
	ga := littrafgen.NewGenerator(littrafgen.BMAShares(), 1)
	gb := littrafgen.NewGenerator(littrafgen.BMBShares(), 1)
	const wantMean = 5e7
	if sa, sb := ga.NormalizeTotal(wantMean), gb.NormalizeTotal(wantMean); sa == sb {
		t.Errorf("BMA- and BMB-share normalization scales identical (%v)", sa)
	}
	env := sharedEnv(t)
	r, err := ExpFig13(env, VRANConfig{ESs: 4, RUsPerES: 5, Hours: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]VRANStrategy{}
	for _, s := range r.Strategies {
		byName[s.Name] = s
	}
	a, b := byName["bm_a"], byName["bm_b"]
	if a.MeanPowerW == b.MeanPowerW && a.PowerAPE.Median == b.PowerAPE.Median {
		t.Error("bm_a and bm_b produced identical Fig. 13b rows")
	}
}

func sortFloats(xs []float64) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

func TestTableRender(t *testing.T) {
	tb := &Table{Title: "t", Header: []string{"a", "bb"}}
	tb.AddRow(1, 2.5)
	tb.AddRow("x", 1e9)
	tb.Notes = append(tb.Notes, "n")
	s := tb.Render()
	for _, want := range []string{"== t ==", "a", "bb", "2.5", "1.000e+09", "note: n"} {
		if !strings.Contains(s, want) {
			t.Errorf("render missing %q:\n%s", want, s)
		}
	}
}

func TestTableCSV(t *testing.T) {
	tb := &Table{Title: "t", Header: []string{"a", "b,c"}}
	tb.AddRow("x\"y", 1.5)
	tb.Notes = append(tb.Notes, "n")
	s := tb.CSV()
	for _, want := range []string{`a,"b,c"`, `"x""y",1.5`, "# n"} {
		if !strings.Contains(s, want) {
			t.Errorf("CSV missing %q:\n%s", want, s)
		}
	}
}

// NewEnv must be deterministic under parallel collection: two builds
// with the same seed produce identical released parameters.
func TestNewEnvParallelDeterministic(t *testing.T) {
	a, err := NewEnv(Config{NumBS: 14, Days: 2, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewEnv(Config{NumBS: 14, Days: 2, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	ja, err := a.Models.ToJSON()
	if err != nil {
		t.Fatal(err)
	}
	jb, err := b.Models.ToJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(ja) != string(jb) {
		t.Error("parallel collection is not deterministic")
	}
}

// TestExpTable2WorkersBitIdentical pins the parallel-plane contract at
// the experiment level: the Table 2 study is bit-identical for every
// worker count, because antennas and day cells draw from keyed
// substreams and fold in index order.
func TestExpTable2WorkersBitIdentical(t *testing.T) {
	env := sharedEnv(t)
	base := SlicingConfig{Antennas: 4, Days: 2, Seed: 3}
	cfg1 := base
	cfg1.Workers = 1
	ref, err := ExpTable2(env, cfg1)
	if err != nil {
		t.Fatal(err)
	}
	cfg4 := base
	cfg4.Workers = 4
	got, err := ExpTable2(env, cfg4)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Strategies) != len(got.Strategies) {
		t.Fatal("strategy counts differ")
	}
	for i := range ref.Strategies {
		if ref.Strategies[i] != got.Strategies[i] {
			t.Errorf("strategy %q differs between 1 and 4 workers:\n  %+v\n  %+v",
				ref.Strategies[i].Name, ref.Strategies[i], got.Strategies[i])
		}
	}
}

// TestExpFig13WorkersBitIdentical does the same for the vRAN study's
// parallel strategy-series builds.
func TestExpFig13WorkersBitIdentical(t *testing.T) {
	env := sharedEnv(t)
	base := VRANConfig{ESs: 4, RUsPerES: 5, Hours: 1, Seed: 7}
	cfg1 := base
	cfg1.Workers = 1
	ref, err := ExpFig13(env, cfg1)
	if err != nil {
		t.Fatal(err)
	}
	cfg3 := base
	cfg3.Workers = 3
	got, err := ExpFig13(env, cfg3)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Strategies) != len(got.Strategies) {
		t.Fatal("strategy counts differ")
	}
	for i := range ref.Strategies {
		if ref.Strategies[i] != got.Strategies[i] {
			t.Errorf("strategy %q differs between 1 and 3 workers", ref.Strategies[i].Name)
		}
	}
	for _, key := range []string{"model", "bm_c"} {
		a, b := ref.PowerSeries[key], got.PowerSeries[key]
		if len(a) != len(b) {
			t.Fatalf("power series %q lengths differ", key)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("power series %q differs at %d", key, i)
			}
		}
	}
}
