package core

import (
	"math"
	"testing"

	"mobiletraffic/internal/netsim"
	"mobiletraffic/internal/probe"
	"mobiletraffic/internal/services"
)

// buildMeasurement simulates a small network and collects its
// measurements, returning the pieces the pipeline needs.
func buildMeasurement(t *testing.T, cfg netsim.SimConfig, numBS int) (*probe.Collector, *netsim.Simulator) {
	t.Helper()
	topo, err := netsim.NewTopology(netsim.TopologyConfig{NumBS: numBS, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := netsim.NewSimulator(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	coll, err := probe.NewCollector(len(sim.Services))
	if err != nil {
		t.Fatal(err)
	}
	observeAll(t, sim, coll, nil)
	return coll, sim
}

// observeAll samples every (BS, day) cell of the simulator's campaign
// into coll through the columnar ingest, skipping the BSs in dark.
func observeAll(t *testing.T, sim *netsim.Simulator, coll *probe.Collector, dark map[int]bool) {
	t.Helper()
	var cols netsim.DayColumns
	for day := 0; day < sim.Config.Days; day++ {
		for bs := range sim.Topo.BSs {
			if dark[bs] {
				continue
			}
			if err := sim.SampleDayColumns(bs, day, &cols); err != nil {
				t.Fatal(err)
			}
			if err := coll.ObserveColumns(bs, day, &cols); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestPipelineRecoversGroundTruth is the central oracle test of the
// reproduction: models fitted on simulated measurements must recover
// the seeded per-service ground truth.
func TestPipelineRecoversGroundTruth(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	// MoveProb 0 keeps sessions untruncated so fitted parameters are
	// directly comparable with the seeded ones.
	coll, sim := buildMeasurement(t, netsim.SimConfig{Days: 2, Seed: 17, MoveProb: 1e-12}, 20)
	sim.Config.MoveProb = 0
	set, err := FitServiceModels(coll, sim.Services, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Services) < 10 {
		t.Fatalf("only %d services modeled", len(set.Services))
	}
	// Per-service checks for the heavy hitters.
	for _, name := range []string{"Facebook", "Instagram", "SnapChat", "Netflix"} {
		m, err := set.ByName(name)
		if err != nil {
			t.Fatalf("%s not modeled", name)
		}
		var truth *netsimProfile
		for i := range sim.Services {
			if sim.Services[i].Name == name {
				truth = &netsimProfile{
					mu: sim.Services[i].MainMu, beta: sim.Services[i].Beta,
					share: 0,
				}
			}
		}
		if truth == nil {
			t.Fatalf("no ground truth for %s", name)
		}
		if math.Abs(m.Volume.MainMu-truth.mu) > 0.4 {
			t.Errorf("%s: fitted mu %v, seeded %v", name, m.Volume.MainMu, truth.mu)
		}
		if math.Abs(m.Duration.Beta-truth.beta) > 0.2 {
			t.Errorf("%s: fitted beta %v, seeded %v", name, m.Duration.Beta, truth.beta)
		}
		if m.Duration.R2 < 0.5 {
			t.Errorf("%s: duration R2 = %v (paper reports >= ~0.5)", name, m.Duration.R2)
		}
	}
}

type netsimProfile struct {
	mu, beta, share float64
}

func TestFitServiceModelsSessionShares(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	coll, sim := buildMeasurement(t, netsim.SimConfig{Days: 1, Seed: 23}, 15)
	set, err := FitServiceModels(coll, sim.Services, nil)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := set.ByName("Facebook")
	if err != nil {
		t.Fatal(err)
	}
	// Table 1: Facebook ~36.5% of sessions (of the normalized catalog).
	if fb.SessionShare < 0.30 || fb.SessionShare > 0.42 {
		t.Errorf("Facebook share = %v", fb.SessionShare)
	}
}

func TestFitServiceModelsValidation(t *testing.T) {
	if _, err := FitServiceModels(nil, nil, nil); err == nil {
		t.Error("nil collector must error")
	}
	coll, _ := probe.NewCollector(3)
	if _, err := FitServiceModels(coll, nil, nil); err == nil {
		t.Error("catalog mismatch must error")
	}
}

func TestFitArrivalsByDecile(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	coll, sim := buildMeasurement(t, netsim.SimConfig{Days: 1, Seed: 31}, 40)
	models, err := FitArrivalsByDecile(coll, sim.Topo)
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 10 {
		t.Fatalf("models = %d", len(models))
	}
	// Arrival rates must grow monotonically (modulo jitter) from the
	// first to the last decile and match the seeded extremes.
	if models[9].PeakMu < models[0].PeakMu*10 {
		t.Errorf("decile growth too small: %v -> %v", models[0].PeakMu, models[9].PeakMu)
	}
	if models[0].PeakMu < 0.5 || models[0].PeakMu > 3 {
		t.Errorf("first decile mu = %v, seeded ~1.21", models[0].PeakMu)
	}
	if models[9].PeakMu < 50 || models[9].PeakMu > 95 {
		t.Errorf("last decile mu = %v, seeded ~71", models[9].PeakMu)
	}
	// sigma ~ mu/10 across classes.
	for d, m := range models {
		if r := m.SigmaRatio(); r < 0.03 || r > 0.3 {
			t.Errorf("decile %d sigma ratio = %v", d, r)
		}
	}
	if _, err := FitArrivalsByDecile(nil, nil); err == nil {
		t.Error("nil inputs must error")
	}
}

// degradedCollector builds a hand-crafted measurement with one healthy
// service, one degenerate service (all sessions identical, so both the
// mixture and the power-law fits fail), and one service below the
// session floor.
func degradedCollector(t *testing.T) (*probe.Collector, []string) {
	t.Helper()
	coll, err := probe.NewCollector(3)
	if err != nil {
		t.Fatal(err)
	}
	obs := func(svc int, minute int, vol, dur float64) {
		t.Helper()
		err := coll.Observe(netsim.Session{
			Service: svc, BS: 0, Day: 0, Minute: minute % netsim.MinutesPerDay,
			Start: float64(minute) * 60, Volume: vol, Duration: dur,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// Healthy: volumes spread over decades, durations over many bins.
	for i := 0; i < 600; i++ {
		dur := math.Pow(10, float64(i%40)/10) // 1 s .. ~8000 s
		obs(0, i, 2e4*math.Pow(dur, 1.2)*(1+0.1*float64(i%7)), dur)
	}
	// Degenerate: every session identical -> zero-spread volume PDF and
	// a single populated duration bin.
	for i := 0; i < 400; i++ {
		obs(1, i, 1e6, 30)
	}
	// Starved: below the default 100-session aggregation floor.
	for i := 0; i < 20; i++ {
		obs(2, i, 5e5, 60)
	}
	return coll, []string{"healthy", "degenerate", "starved"}
}

func TestFitServiceModelsReportGracefulDegradation(t *testing.T) {
	coll, names := degradedCollector(t)
	catalog := make([]services.Profile, len(names))
	for i, n := range names {
		catalog[i] = services.Profile{Name: n}
	}
	set, report, err := FitServiceModelsReport(coll, catalog, nil)
	if err != nil {
		t.Fatalf("graceful pipeline aborted: %v", err)
	}
	if len(set.Services) != 2 {
		t.Fatalf("modeled %d services, want 2 (healthy + degenerate fallback)", len(set.Services))
	}
	if report.Fitted != 2 {
		t.Errorf("report.Fitted = %d", report.Fitted)
	}
	if !report.Degraded() {
		t.Fatal("report must flag degradation")
	}
	// The starved service is skipped at the sessions stage.
	foundSkip := false
	for _, s := range report.Skipped {
		if s.Service == "starved" && s.Stage == "sessions" {
			foundSkip = true
		}
	}
	if !foundSkip {
		t.Errorf("starved service not reported as skipped: %+v", report.Skipped)
	}
	// The degenerate service is fitted via both fallbacks.
	stages := map[string]string{}
	for _, f := range report.Fallbacks {
		if f.Service == "degenerate" {
			stages[f.Stage] = f.Fallback
		}
	}
	if stages["volume"] == "" || stages["duration"] == "" {
		t.Fatalf("degenerate service fallbacks missing: %+v", report.Fallbacks)
	}
	m, err := set.ByName("degenerate")
	if err != nil {
		t.Fatal(err)
	}
	if m.Volume.MainSigma < FallbackVolumeSigmaFloor {
		t.Errorf("fallback sigma %v below floor", m.Volume.MainSigma)
	}
	if m.Duration.Beta != 1 {
		t.Errorf("fallback beta = %v, want 1 (constant throughput)", m.Duration.Beta)
	}
	// alpha = mean throughput = 1e6 bytes / ~30 s bin center.
	if m.Duration.Alpha <= 0 {
		t.Errorf("fallback alpha = %v", m.Duration.Alpha)
	}
	got := report.DegradedServices()
	want := []string{"degenerate", "starved"}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("DegradedServices() = %v, want %v", got, want)
	}
	if err := set.Validate(); err != nil {
		t.Errorf("degraded but fitted set must still validate: %v", err)
	}
	// The legacy wrapper returns the same partial set without aborting.
	legacy, err := FitServiceModels(coll, catalog, nil)
	if err != nil || len(legacy.Services) != 2 {
		t.Errorf("legacy wrapper: set=%v err=%v", legacy, err)
	}
}

func TestFitServiceModelsReportAllUnusable(t *testing.T) {
	coll, err := probe.NewCollector(1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ { // below the session floor
		err := coll.Observe(netsim.Session{Service: 0, Minute: i, Volume: 1e5, Duration: 10})
		if err != nil {
			t.Fatal(err)
		}
	}
	set, report, err := FitServiceModelsReport(coll, []services.Profile{{Name: "only"}}, nil)
	if err == nil || set != nil {
		t.Fatal("fit with zero modelable services must error")
	}
	if report == nil || len(report.Skipped) != 1 {
		t.Fatalf("report must still account for the skip: %+v", report)
	}
}

func TestFitArrivalsByDecileReportBackfillsDarkClasses(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	topo, err := netsim.NewTopology(netsim.TopologyConfig{NumBS: 40, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := netsim.NewSimulator(topo, netsim.SimConfig{Days: 1, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	// Probes of the two lowest load classes are dark for the whole
	// campaign: their cells never reach the collector.
	dark := map[int]bool{}
	for _, d := range []int{0, 1} {
		for _, bs := range topo.ByDecile(d) {
			dark[bs] = true
		}
	}
	coll, err := probe.NewCollector(len(sim.Services))
	if err != nil {
		t.Fatal(err)
	}
	observeAll(t, sim, coll, dark)
	models, report, err := FitArrivalsByDecileReport(coll, topo)
	if err != nil {
		t.Fatalf("dark classes must not abort the arrival fit: %v", err)
	}
	if len(models) != 10 {
		t.Fatalf("models = %d", len(models))
	}
	for d, m := range models {
		if m == nil {
			t.Fatalf("decile %d left nil", d+1)
		}
	}
	if len(report.Fallbacks) != 2 {
		t.Fatalf("expected 2 backfilled classes, got %+v", report.Fallbacks)
	}
	// Backfilled classes borrow the nearest fitted decile's model.
	if models[0].PeakMu != models[2].PeakMu || models[1].PeakMu != models[2].PeakMu {
		t.Errorf("backfill did not use the nearest class: %v %v vs %v",
			models[0].PeakMu, models[1].PeakMu, models[2].PeakMu)
	}
	// The legacy wrapper stays usable too.
	if _, err := FitArrivalsByDecile(coll, topo); err != nil {
		t.Errorf("legacy wrapper errored: %v", err)
	}
}

func TestFitDurationModelRejectsNonFinite(t *testing.T) {
	durations := []float64{1, 10, 100, 1000}
	// Only two finite bins survive the guard -> must error, not fit Inf.
	values := []float64{1e5, math.Inf(1), math.NaN(), 1e7}
	if _, err := FitDurationModel(durations, values, nil); err == nil {
		t.Error("fit over non-finite pairs must error")
	}
	// With three finite bins the Inf bin is ignored and the fit succeeds.
	values = []float64{1e5, math.Inf(1), 1e6, 1e7}
	durations = []float64{1, 10, 100, 1000}
	m, err := FitDurationModel(durations, values, nil)
	if err != nil {
		t.Fatalf("guarded fit failed: %v", err)
	}
	if math.IsNaN(m.Alpha) || math.IsNaN(m.Beta) || m.Alpha <= 0 {
		t.Errorf("guarded fit returned non-finite model: %+v", m)
	}
}
