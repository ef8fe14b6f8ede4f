package dist

import (
	"math"
	"math/rand"
	"testing"
)

func TestKSTwoSampleSameDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 3000
	a := make([]float64, n)
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		a[i] = rng.NormFloat64()
		b[i] = rng.NormFloat64()
	}
	d, p, err := KSTwoSample(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if d > 0.05 {
		t.Errorf("same-distribution KS d = %v", d)
	}
	if p < 0.01 {
		t.Errorf("same-distribution p-value = %v, want not rejected", p)
	}
}

func TestKSTwoSampleDifferentDistributions(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 3000
	a := make([]float64, n)
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		a[i] = rng.NormFloat64()
		b[i] = rng.NormFloat64() + 0.5 // shifted
	}
	d, p, err := KSTwoSample(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if d < 0.1 {
		t.Errorf("shifted-distribution KS d = %v, want large", d)
	}
	if p > 1e-6 {
		t.Errorf("shifted-distribution p-value = %v, want rejected", p)
	}
}

func TestKSTwoSampleIdenticalSamples(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	d, p, err := KSTwoSample(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Errorf("identical-sample d = %v", d)
	}
	if p < 0.99 {
		t.Errorf("identical-sample p = %v", p)
	}
}

func TestKSTwoSampleValidation(t *testing.T) {
	if _, _, err := KSTwoSample(nil, []float64{1}); err == nil {
		t.Error("empty sample must error")
	}
}

func TestKSTwoSampleUnequalSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := make([]float64, 200)
	b := make([]float64, 5000)
	for i := range a {
		a[i] = rng.ExpFloat64()
	}
	for i := range b {
		b[i] = rng.ExpFloat64()
	}
	d, p, err := KSTwoSample(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if d > 0.12 || p < 0.01 {
		t.Errorf("unequal-size same-dist: d=%v p=%v", d, p)
	}
}

func TestKSOneSampleMatchesAndRejects(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sample := make([]float64, 5000)
	for i := range sample {
		sample[i] = rng.NormFloat64()
	}
	std := Normal{Mu: 0, Sigma: 1}.CDF
	d, p, err := KSOneSample(sample, std)
	if err != nil {
		t.Fatal(err)
	}
	if p < 0.01 {
		t.Errorf("true-CDF KS: D=%v p=%v, want not rejected", d, p)
	}
	// A tenth-of-a-sigma location error is visible at this sample size
	// (expected D ~ 0.04 against a 1e-4 critical value near 0.03).
	d, p, err = KSOneSample(sample, Normal{Mu: 0.1, Sigma: 1}.CDF)
	if err != nil {
		t.Fatal(err)
	}
	if p > 1e-4 {
		t.Errorf("mis-scaled CDF KS: D=%v p=%v, want rejected", d, p)
	}
}

// TestKSOneSampleExactStatistic checks D against a hand-computed
// value: samples {0.1, 0.4, 0.7} against Uniform(0, 1) have
// D = max(1/3-0.1, 0.4-1/3, 2/3-0.4, 0.7-2/3, 1-0.7) = 0.3.
func TestKSOneSampleExactStatistic(t *testing.T) {
	d, _, err := KSOneSample([]float64{0.7, 0.1, 0.4}, Uniform{Lo: 0, Hi: 1}.CDF)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d-0.3) > 1e-15 {
		t.Errorf("D = %v, want 0.3", d)
	}
}

// TestKSOneSamplePointMass checks that samples tied on an atom of the
// reference CDF are measured against its left limit: a standard normal
// clamped at 1 matches a sample clamped the same way, while a CDF
// without the atom is rejected.
func TestKSOneSamplePointMass(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	sample := make([]float64, 20000)
	for i := range sample {
		sample[i] = math.Min(rng.NormFloat64(), 1)
	}
	std := Normal{Mu: 0, Sigma: 1}.CDF
	clamped := func(x float64) float64 {
		if x >= 1 {
			return 1
		}
		return std(x)
	}
	d, p, err := KSOneSample(sample, clamped)
	if err != nil {
		t.Fatal(err)
	}
	if p < 0.01 {
		t.Errorf("clamped CDF: D=%v p=%v, want not rejected", d, p)
	}
	if d, p, _ := KSOneSample(sample, std); p > 1e-6 {
		t.Errorf("CDF without the atom: D=%v p=%v, want rejected", d, p)
	}
}

func TestKSOneSampleValidation(t *testing.T) {
	std := Normal{Mu: 0, Sigma: 1}.CDF
	if _, _, err := KSOneSample(nil, std); err == nil {
		t.Error("empty sample must error")
	}
	if _, _, err := KSOneSample([]float64{1}, nil); err == nil {
		t.Error("nil CDF must error")
	}
	if _, _, err := KSOneSample([]float64{1, math.NaN()}, std); err == nil {
		t.Error("NaN sample must error")
	}
	if _, _, err := KSOneSample([]float64{1}, func(float64) float64 { return 2 }); err == nil {
		t.Error("CDF above 1 must error")
	}
}
