package core

import (
	"math"
	"math/rand"
	"testing"

	"mobiletraffic/internal/mathx"
)

func TestFitDurationModelRecoversPowerLaw(t *testing.T) {
	// Clean v(d) = 2000 * d^1.5 over log-spaced duration bins.
	durations := mathx.LogSpace(0, 4, 40)
	values := make([]float64, len(durations))
	counts := make([]float64, len(durations))
	for i, d := range durations {
		values[i] = 2000 * math.Pow(d, 1.5)
		counts[i] = 100
	}
	m, err := FitDurationModel(durations, values, counts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Beta-1.5) > 1e-6 || math.Abs(m.Alpha-2000)/2000 > 1e-6 {
		t.Errorf("model = %+v", m)
	}
	if m.R2 < 0.999 {
		t.Errorf("R2 = %v", m.R2)
	}
}

func TestFitDurationModelSkipsEmptyBins(t *testing.T) {
	durations := mathx.LogSpace(0, 3, 20)
	values := make([]float64, len(durations))
	counts := make([]float64, len(durations))
	for i, d := range durations {
		if i%3 == 0 {
			values[i] = math.NaN() // empty bin
			counts[i] = 0
			continue
		}
		values[i] = 5e4 * math.Pow(d, 0.6)
		counts[i] = 10
	}
	m, err := FitDurationModel(durations, values, counts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Beta-0.6) > 0.01 {
		t.Errorf("beta = %v", m.Beta)
	}
}

func TestFitDurationModelNoisy(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	durations := mathx.LogSpace(0, 4, 50)
	values := make([]float64, len(durations))
	counts := make([]float64, len(durations))
	for i, d := range durations {
		values[i] = 300 * math.Pow(d, 1.1) * math.Exp(0.15*rng.NormFloat64())
		counts[i] = float64(10 + rng.Intn(1000))
	}
	m, err := FitDurationModel(durations, values, counts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Beta-1.1) > 0.08 {
		t.Errorf("beta = %v, want ~1.1", m.Beta)
	}
	if m.R2 < 0.7 {
		t.Errorf("R2 = %v, the paper's typical range is 0.7-0.9", m.R2)
	}
}

func TestFitDurationModelValidation(t *testing.T) {
	if _, err := FitDurationModel([]float64{1, 2}, []float64{1}, nil); err == nil {
		t.Error("length mismatch must error")
	}
	nan := math.NaN()
	if _, err := FitDurationModel([]float64{1, 2, 3}, []float64{nan, nan, nan}, nil); err == nil {
		t.Error("all-NaN values must error")
	}
	if _, err := FitDurationModel([]float64{1, 2}, []float64{10, 20}, nil); err == nil {
		t.Error("fewer than 3 populated bins must error")
	}
}

func TestDurationModelInverse(t *testing.T) {
	m := &DurationModel{Alpha: 1000, Beta: 1.4}
	for _, d := range []float64{1, 10, 300, 5000} {
		v := m.MeanVolume(d)
		if got := m.DurationFor(v); math.Abs(got-d)/d > 1e-9 {
			t.Errorf("DurationFor(MeanVolume(%v)) = %v", d, got)
		}
	}
	if !math.IsNaN(m.DurationFor(0)) {
		t.Error("zero volume must give NaN duration")
	}
	if !math.IsNaN((&DurationModel{Alpha: 1, Beta: 0}).DurationFor(5)) {
		t.Error("zero beta must give NaN duration")
	}
}

func TestDurationModelThroughputScaling(t *testing.T) {
	super := &DurationModel{Alpha: 100, Beta: 1.5}
	sub := &DurationModel{Alpha: 100, Beta: 0.5}
	// Super-linear: throughput grows with duration (§5.3's video
	// streaming signature); sub-linear: decays.
	if super.Throughput(100) <= super.Throughput(10) {
		t.Error("super-linear throughput must grow with duration")
	}
	if sub.Throughput(100) >= sub.Throughput(10) {
		t.Error("sub-linear throughput must decay with duration")
	}
	if !math.IsNaN(super.Throughput(0)) {
		t.Error("zero-duration throughput must be NaN")
	}
}

// planFor compiles the generation plan of a one-service model set.
func planFor(t *testing.T, m ServiceModel) *svcPlan {
	t.Helper()
	m.Name, m.SessionShare = "svc", 1
	plan, err := newGenPlan(&ModelSet{Services: []ServiceModel{m}}, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	return &plan.svcs[0]
}

func TestSampleDuration(t *testing.T) {
	law := DurationModel{Alpha: 1000, Beta: 1.0}
	var rng mathx.PCG
	rng.Seed(5, 1)
	// Deterministic mode: exactly the inverse.
	exact := planFor(t, ServiceModel{Duration: law})
	if got := exact.sampleDurationLn(math.Log(5000), &rng); math.Abs(got-5) > 1e-9 {
		t.Errorf("deterministic duration = %v, want 5", got)
	}
	// Noise mode centers on the inverse.
	noisy := planFor(t, ServiceModel{Duration: law, DurationNoise: 0.2})
	var logs []float64
	for i := 0; i < 20000; i++ {
		logs = append(logs, math.Log10(noisy.sampleDurationLn(math.Log(1e6), &rng)))
	}
	if got := mathx.Mean(logs); math.Abs(got-3) > 0.02 {
		t.Errorf("mean log duration = %v, want 3", got)
	}
	// A sub-second inverse floors at 1 s.
	if got := exact.sampleDurationLn(math.Log(1e-9), &rng); got != 1 {
		t.Errorf("sub-second duration = %v, want 1", got)
	}
}
