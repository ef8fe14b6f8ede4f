package mobiletraffic

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation. Each benchmark regenerates the corresponding result from
// a simulated measurement campaign and asserts its headline shape, so
// `go test -bench=. -benchmem` both times the pipeline and re-verifies
// the reproduction. cmd/experiments prints the full rows/series.

import (
	"math/rand"
	"sync"
	"testing"

	"mobiletraffic/internal/core"
	"mobiletraffic/internal/dist"
	"mobiletraffic/internal/experiments"
	"mobiletraffic/internal/mathx"
	"mobiletraffic/internal/netsim"
	"mobiletraffic/internal/probe"
)

var (
	benchEnvOnce sync.Once
	benchEnv     *experiments.Env
	benchEnvErr  error
)

func benchEnvironment(b *testing.B) *experiments.Env {
	b.Helper()
	benchEnvOnce.Do(func() {
		benchEnv, benchEnvErr = experiments.NewEnv(experiments.Config{NumBS: 20, Days: 7, Seed: 1})
	})
	if benchEnvErr != nil {
		b.Fatal(benchEnvErr)
	}
	return benchEnv
}

func BenchmarkFig3ArrivalFits(b *testing.B) {
	env := benchEnvironment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.ExpFig3(env)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Deciles) != 10 || r.MuGrowth <= 1 {
			b.Fatalf("unexpected Fig. 3 shape: %+v", r)
		}
	}
}

func BenchmarkFig4ServiceRanking(b *testing.B) {
	env := benchEnvironment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.ExpFig4(env)
		if err != nil {
			b.Fatal(err)
		}
		if r.R2 < 0.85 || r.Top20Percent < 0.78 {
			b.Fatalf("exponential law degraded: R2=%v top20=%v", r.R2, r.Top20Percent)
		}
	}
}

func BenchmarkFig5ServicePDFs(b *testing.B) {
	env := benchEnvironment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.ExpFig5(env)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Services) != 6 {
			b.Fatalf("services = %d", len(r.Services))
		}
	}
}

func BenchmarkFig6Clustering(b *testing.B) {
	env := benchEnvironment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.ExpFig6(env)
		if err != nil {
			b.Fatal(err)
		}
		if r.StreamingPairAgreement < 0.6 {
			b.Fatalf("dichotomy lost: agreement %v", r.StreamingPairAgreement)
		}
	}
}

func BenchmarkFig7FacebookContrast(b *testing.B) {
	env := benchEnvironment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.ExpFig7(env)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Services) != 2 {
			b.Fatalf("services = %d", len(r.Services))
		}
	}
}

func BenchmarkFig8Invariance(b *testing.B) {
	env := benchEnvironment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.ExpFig8(env)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.EMD) == 0 || len(r.SED) == 0 {
			b.Fatal("empty invariance result")
		}
	}
}

func BenchmarkFig9MixtureDecomposition(b *testing.B) {
	env := benchEnvironment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.ExpFig9(env, "Netflix")
		if err != nil {
			b.Fatal(err)
		}
		if r.FinalEMD >= r.MainOnlyEMD {
			b.Fatalf("mixture did not improve: %v >= %v", r.FinalEMD, r.MainOnlyEMD)
		}
	}
}

func BenchmarkFig10PowerLawExponents(b *testing.B) {
	env := benchEnvironment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.ExpFig10(env)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Rows) < 20 {
			b.Fatalf("rows = %d", len(r.Rows))
		}
	}
}

func BenchmarkFig11ModelQuality(b *testing.B) {
	env := benchEnvironment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.ExpQuality(env)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Rows) < 20 {
			b.Fatalf("rows = %d", len(r.Rows))
		}
	}
}

func BenchmarkTable1Shares(b *testing.B) {
	env := benchEnvironment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.ExpTable1(env)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Rows) != 31 {
			b.Fatalf("rows = %d", len(r.Rows))
		}
	}
}

func BenchmarkTable2Slicing(b *testing.B) {
	env := benchEnvironment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.ExpTable2(env, experiments.SlicingConfig{Antennas: 4, Days: 2, Seed: 3})
		if err != nil {
			b.Fatal(err)
		}
		model := r.Strategies[0]
		if model.Name != "session-level models" || model.MeanSatisfied < 0.9 {
			b.Fatalf("unexpected Table 2 shape: %+v", model)
		}
	}
}

func BenchmarkFig12SliceTimeline(b *testing.B) {
	env := benchEnvironment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.ExpFig12(env, experiments.SlicingConfig{Antennas: 1, Days: 2, Seed: 5})
		if err != nil {
			b.Fatal(err)
		}
		if r.Satisfied < 0.85 {
			b.Fatalf("slice satisfaction %v", r.Satisfied)
		}
	}
}

func BenchmarkFig13bVRANErrors(b *testing.B) {
	env := benchEnvironment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.ExpFig13(env, experiments.VRANConfig{ESs: 4, RUsPerES: 5, Hours: 1, Seed: 7})
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Strategies) != 4 {
			b.Fatalf("strategies = %d", len(r.Strategies))
		}
	}
}

func BenchmarkFig13cPowerSeries(b *testing.B) {
	env := benchEnvironment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.ExpFig13(env, experiments.VRANConfig{ESs: 4, RUsPerES: 5, Hours: 1, Seed: 9})
		if err != nil {
			b.Fatal(err)
		}
		if len(r.PowerSeries["measurement"]) == 0 || len(r.PowerSeries["bm_c"]) == 0 {
			b.Fatal("missing power series")
		}
	}
}

func BenchmarkAblationPeakCap(b *testing.B) {
	env := benchEnvironment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ExpAblationPeakCap(env); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationSmoothing(b *testing.B) {
	env := benchEnvironment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ExpAblationSmoothing(env); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationDurationFamily(b *testing.B) {
	env := benchEnvironment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ExpAblationDurationFamily(env); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationArrivalFit(b *testing.B) {
	env := benchEnvironment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ExpAblationArrivalFit(env); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Micro-benchmarks of the pipeline's hot paths --------------------

func BenchmarkSimulateBSDay(b *testing.B) {
	b.ReportAllocs()
	env := benchEnvironment(b)
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		if err := env.Sim.GenerateDay(0, i, func(netsim.Session) { n++ }); err != nil {
			b.Fatal(err)
		}
	}
	_ = n
}

func BenchmarkVolumeModelFit(b *testing.B) {
	b.ReportAllocs()
	env := benchEnvironment(b)
	svc := 0
	h, _, err := env.Coll.AggregateVolume(probe.ForService(svc))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.FitVolumeModel(h, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGeneratorMinute(b *testing.B) {
	b.ReportAllocs()
	env := benchEnvironment(b)
	gen, err := core.NewGenerator(env.Models, 1)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]core.GenSession, 0, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = buf[:0]
		if buf, err = gen.MinuteAppend(buf, 9, true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEMD(b *testing.B) {
	b.ReportAllocs()
	edges := mathx.LinSpace(2, 10.5, 171)
	x, _ := dist.NewHist(edges)
	y, _ := dist.NewHist(edges)
	rng := rand.New(rand.NewSource(1))
	for i := range x.P {
		x.P[i] = rng.Float64()
		y.P[i] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dist.EMD(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtensionAppLayer(b *testing.B) {
	env := benchEnvironment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.ExpAppLayer(env, 0)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Rows) < 2 {
			b.Fatalf("rows = %d", len(r.Rows))
		}
	}
}

func BenchmarkExtensionStability(b *testing.B) {
	env := benchEnvironment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.ExpStability(env)
		if err != nil {
			b.Fatal(err)
		}
		if r.Comparison.MedianDeltaBeta > 0.1 {
			b.Fatalf("day-range drift too large: %v", r.Comparison.MedianDeltaBeta)
		}
	}
}

func BenchmarkExtensionFidelity(b *testing.B) {
	env := benchEnvironment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.ExpFidelity(env, []string{"Netflix", "Facebook"}, 5000)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range r.Rows {
			if row.KSVolume > 0.15 {
				b.Fatalf("%s volume fidelity degraded: %v", row.Name, row.KSVolume)
			}
		}
	}
}

func BenchmarkExtensionDiurnal(b *testing.B) {
	env := benchEnvironment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.ExpDiurnal(env)
		if err != nil {
			b.Fatal(err)
		}
		if r.DayNightAll < 3 {
			b.Fatalf("circadian ratio degraded: %v", r.DayNightAll)
		}
	}
}

func BenchmarkExtensionDrift(b *testing.B) {
	env := benchEnvironment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.ExpDrift(env)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Comparison.OnlyInB) == 0 {
			b.Fatal("new service not detected")
		}
	}
}

// BenchmarkExtensionChaos exercises the fault-injection sweep at the
// acceptance intensities (20% BS-day outage, 10% truncated days, 5%
// flow loss, 2% duplication, 3% signaling gaps, 2% misclassification)
// and asserts the graceful pipeline recovers the seeded models: a
// non-empty ModelSet at every level and median |dBeta| within the same
// 0.1 tolerance the stability extension holds day-split fits to.
func BenchmarkExtensionChaos(b *testing.B) {
	env := benchEnvironment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.ExpChaos(env, experiments.ChaosConfig{})
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range r.Rows {
			if row.Modeled == 0 {
				b.Fatalf("intensity %v returned an empty ModelSet", row.Intensity)
			}
		}
		if drift := r.WorstBetaDrift(); drift > 0.1 {
			b.Fatalf("beta drift under faults too large: %v", drift)
		}
	}
}
