package mobiletraffic

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

func TestFitFromSimulationAndGenerate(t *testing.T) {
	set, err := FitFromSimulation(SimulationConfig{NumBS: 12, Days: 3, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Services) < 15 {
		t.Fatalf("modeled %d services", len(set.Services))
	}
	if len(set.Arrivals) != 10 {
		t.Fatalf("arrival classes = %d", len(set.Arrivals))
	}
	g, err := NewGenerator(set, 1)
	if err != nil {
		t.Fatal(err)
	}
	sessions, err := g.Minute(9, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sessions {
		if s.Volume <= 0 || s.Duration < 1 || s.Throughput <= 0 {
			t.Fatalf("invalid generated session %+v", s)
		}
	}
}

func TestSaveLoadModelsRoundTrip(t *testing.T) {
	set, err := FitFromSimulation(SimulationConfig{NumBS: 12, Days: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveModels(set, &buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadModels(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Services) != len(set.Services) {
		t.Fatalf("round trip lost services: %d vs %d", len(back.Services), len(set.Services))
	}
	fb, err := back.ByName("Facebook")
	if err != nil {
		t.Fatal(err)
	}
	orig, _ := set.ByName("Facebook")
	if fb.Volume.MainMu != orig.Volume.MainMu || fb.Duration.Beta != orig.Duration.Beta {
		t.Error("round-tripped parameters differ")
	}
	if _, err := ParseModels([]byte("nope")); err == nil {
		t.Error("malformed input must error")
	}
}

func TestServicesCatalog(t *testing.T) {
	all := Services()
	if len(all) != 31 {
		t.Fatalf("catalog = %d services", len(all))
	}
	if all[0].Name != "Facebook" {
		t.Errorf("top service = %s", all[0].Name)
	}
}

func TestFitFromObservations(t *testing.T) {
	// Synthesize sessions of two artificial services with known
	// behaviour and check the fitted models recover it.
	rng := rand.New(rand.NewSource(7))
	var obs []SessionObservation
	for i := 0; i < 4000; i++ {
		// "heavy": log-normal volume around 10^7, beta = 1.4.
		vol := math.Pow(10, 7+0.5*rng.NormFloat64())
		dur := math.Pow(vol/3000, 1/1.4) * math.Pow(10, 0.1*rng.NormFloat64())
		obs = append(obs, SessionObservation{
			Service: "heavy", BS: i % 4, Day: i % 2, Minute: i % 1440,
			Volume: vol, Duration: math.Max(dur, 1),
		})
		// "light": volume around 10^5, beta = 0.5.
		vol = math.Pow(10, 5+0.4*rng.NormFloat64())
		dur = math.Pow(vol/2000, 1/0.5) * math.Pow(10, 0.1*rng.NormFloat64())
		obs = append(obs, SessionObservation{
			Service: "light", BS: i % 4, Day: i % 2, Minute: (i * 7) % 1440,
			Volume: vol, Duration: math.Max(dur, 1),
		})
	}
	set, err := FitFromObservations(obs, 0)
	if err != nil {
		t.Fatal(err)
	}
	heavy, err := set.ByName("heavy")
	if err != nil {
		t.Fatal(err)
	}
	light, err := set.ByName("light")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(heavy.Volume.MainMu-7) > 0.2 {
		t.Errorf("heavy mu = %v, want ~7", heavy.Volume.MainMu)
	}
	if math.Abs(heavy.Duration.Beta-1.4) > 0.15 {
		t.Errorf("heavy beta = %v, want ~1.4", heavy.Duration.Beta)
	}
	if math.Abs(light.Duration.Beta-0.5) > 0.1 {
		t.Errorf("light beta = %v, want ~0.5", light.Duration.Beta)
	}
	// Session shares ~50/50.
	if math.Abs(heavy.SessionShare-0.5) > 0.01 {
		t.Errorf("heavy share = %v", heavy.SessionShare)
	}
}

func TestFitFromObservationsValidation(t *testing.T) {
	if _, err := FitFromObservations(nil, 0); err == nil {
		t.Error("empty observations must error")
	}
	bad := []SessionObservation{{Service: "x", Minute: -1, Volume: 1, Duration: 1}}
	if _, err := FitFromObservations(bad, 0); err == nil {
		t.Error("invalid minute must error")
	}
	bad[0] = SessionObservation{Service: "x", Minute: 0, Volume: 0, Duration: 1}
	if _, err := FitFromObservations(bad, 0); err == nil {
		t.Error("zero volume must error")
	}
}

// TestFitFromObservationsRejectsNonFinite checks that a NaN or
// infinite volume or duration is reported as an error naming the
// observation, never a panic or a silently poisoned fit.
func TestFitFromObservationsRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name             string
		volume, duration float64
	}{
		{"NaN volume", nan, 10},
		{"NaN duration", 1e6, nan},
		{"+Inf volume", inf, 10},
		{"+Inf duration", 1e6, inf},
		{"-Inf volume", -inf, 10},
		{"-Inf duration", 1e6, -inf},
	} {
		t.Run(tc.name, func(t *testing.T) {
			obs := []SessionObservation{
				{Service: "x", Minute: 1, Volume: 1e5, Duration: 5},
				{Service: "x", Minute: 2, Volume: tc.volume, Duration: tc.duration},
			}
			_, err := FitFromObservations(obs, 0)
			if err == nil {
				t.Fatal("non-finite observation must error")
			}
			if !strings.Contains(err.Error(), "observation 1") {
				t.Errorf("error does not name the observation: %v", err)
			}
		})
	}
}

// sparseObservations builds a two-service campaign over three BSs
// carrying the given identifiers.
func sparseObservations(ids [3]int) []SessionObservation {
	rng := rand.New(rand.NewSource(11))
	var obs []SessionObservation
	for i := 0; i < 600; i++ {
		for _, svc := range []struct {
			name      string
			mu, alpha float64
		}{{"heavy", 7, 3000}, {"light", 5, 2000}} {
			vol := math.Pow(10, svc.mu+0.5*rng.NormFloat64())
			dur := math.Pow(vol/svc.alpha, 1/1.2) * math.Pow(10, 0.1*rng.NormFloat64())
			obs = append(obs, SessionObservation{
				Service: svc.name, BS: ids[i%3], Day: i % 2, Minute: (i * 7) % 1440,
				Volume: vol, Duration: math.Max(dur, 1),
			})
		}
	}
	return obs
}

// TestFitFromObservationsSparseBSIDs checks that BS identifiers are
// remapped to dense indices: real cell IDs such as 7e9 fit exactly
// like 0..2, and do not size the collector by the largest identifier.
func TestFitFromObservationsSparseBSIDs(t *testing.T) {
	fit := func(ids [3]int) ([]byte, uint64) {
		t.Helper()
		obs := sparseObservations(ids)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		set, err := FitFromObservations(obs, 0)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		data, err := set.ToJSON()
		if err != nil {
			t.Fatal(err)
		}
		return data, after.TotalAlloc - before.TotalAlloc
	}
	dense, denseBytes := fit([3]int{0, 1, 2})
	sparse, sparseBytes := fit([3]int{1e9, 3e9, 7e9})
	if !bytes.Equal(dense, sparse) {
		t.Errorf("sparse BS ids fit differently from dense ids:\n%s\n%s", dense, sparse)
	}
	// A collector sized by the largest identifier would need
	// gigabytes; the remapped one costs what the dense fit costs.
	if limit := 2*denseBytes + 8<<20; sparseBytes > limit {
		t.Errorf("sparse-id fit allocated %d B, dense fit %d B (limit %d B)", sparseBytes, denseBytes, limit)
	}
}

func TestFitFromSimulationFaulty(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	set, report, err := FitFromSimulationFaulty(
		SimulationConfig{NumBS: 12, Days: 3, Seed: 3},
		FaultConfig{
			OutageProb: 0.2, TruncatedDayProb: 0.1, FlowLossProb: 0.05,
			FlowDupProb: 0.02, SignalGapProb: 0.03, MisclassProb: 0.02, Seed: 9,
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Services) == 0 {
		t.Fatal("no services fitted under acceptance faults")
	}
	if report == nil || report.Fitted == 0 {
		t.Fatalf("report = %+v", report)
	}
	if err := set.Validate(); err != nil {
		t.Errorf("fault-fitted set must still validate: %v", err)
	}
	// A pristine fault config must reproduce FitFromSimulation exactly.
	clean, cleanReport, err := FitFromSimulationFaulty(SimulationConfig{NumBS: 12, Days: 3, Seed: 3}, FaultConfig{})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := FitFromSimulation(SimulationConfig{NumBS: 12, Days: 3, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(clean.Services) != len(direct.Services) {
		t.Fatalf("zero-fault fit modeled %d services, direct fit %d", len(clean.Services), len(direct.Services))
	}
	for i := range clean.Services {
		a, b := clean.Services[i], direct.Services[i]
		if a.Name != b.Name || a.Volume.MainMu != b.Volume.MainMu || a.Duration.Beta != b.Duration.Beta {
			t.Fatalf("zero-fault fit differs from direct fit at %s", a.Name)
		}
	}
	if cleanReport.Degraded() {
		t.Errorf("pristine campaign reported degradation: %s", cleanReport.Summary())
	}
}

// TestFitFromSimulationDigests pins the facade's simulated fits — a
// pristine campaign and one under the acceptance fault mix — to the
// sha256 of their ModelSet JSON, recorded before the facade's serial
// collection loop was replaced by the parallel columnar collector.
func TestFitFromSimulationDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	cfg := SimulationConfig{NumBS: 20, Days: 2}
	chaos := FaultConfig{
		OutageProb: 0.2, TruncatedDayProb: 0.1, FlowLossProb: 0.05,
		FlowDupProb: 0.02, SignalGapProb: 0.03, MisclassProb: 0.02, Seed: 9,
	}
	clean, err := FitFromSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	faulty, _, err := FitFromSimulationFaulty(cfg, chaos)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		set  *ModelSet
		want string
	}{
		{"clean", clean, "75da6d70f8bae8f718474ed9a8acfdca5c4a351b1c7c68208f527cea21f1b4ba"},
		{"chaos", faulty, "c69e7e3c461ab84a422db10e3130f8720aa292e6cebdfc93707c748e2e326cb6"},
	} {
		data, err := tc.set.ToJSON()
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != tc.want {
			t.Errorf("%s ModelSet digest = %s, want %s", tc.name, got, tc.want)
		}
	}
}
