package netsim

import (
	"math"
	"testing"

	"mobiletraffic/internal/mathx"
)

func TestNewTopologyDefaults(t *testing.T) {
	topo, err := NewTopology(TopologyConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(topo.BSs) != 100 {
		t.Fatalf("default BS count = %d, want 100", len(topo.BSs))
	}
	// Even decile split: 10 per decile.
	for d := 0; d < 10; d++ {
		if got := len(topo.ByDecile(d)); got != 10 {
			t.Errorf("decile %d has %d BSs, want 10", d, got)
		}
	}
	// IDs match slice positions after shuffling.
	for i, b := range topo.BSs {
		if b.ID != i {
			t.Fatalf("BS at %d has ID %d", i, b.ID)
		}
	}
}

func TestNewTopologyValidation(t *testing.T) {
	if _, err := NewTopology(TopologyConfig{NumBS: 5}); err == nil {
		t.Error("fewer than 10 BSs must error")
	}
}

func TestTopologyGroupsCoverAll(t *testing.T) {
	topo, err := NewTopology(TopologyConfig{NumBS: 200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(topo.ByRegion(Urban)) + len(topo.ByRegion(SemiUrban)) + len(topo.ByRegion(Rural)); got != 200 {
		t.Errorf("region partition covers %d", got)
	}
	if got := len(topo.ByRAT(RAT4G)) + len(topo.ByRAT(RAT5G)); got != 200 {
		t.Errorf("RAT partition covers %d", got)
	}
	// Roughly 30% 5G.
	frac := float64(len(topo.ByRAT(RAT5G))) / 200
	if frac < 0.15 || frac > 0.45 {
		t.Errorf("5G fraction = %v", frac)
	}
	// All urban BSs belong to one of the 5 cities; others to none.
	for _, i := range topo.ByRegion(Urban) {
		if c := topo.BSs[i].City; c < 0 || c >= 5 {
			t.Errorf("urban BS %d city = %d", i, c)
		}
	}
	for _, i := range topo.ByRegion(Rural) {
		if topo.BSs[i].City != NoCity {
			t.Errorf("rural BS %d has city %d", i, topo.BSs[i].City)
		}
	}
	// City lookups partition the urban set.
	var cityTotal int
	for c := 0; c < 5; c++ {
		cityTotal += len(topo.ByCity(c))
	}
	if cityTotal != len(topo.ByRegion(Urban)) {
		t.Errorf("city partition = %d, urban = %d", cityTotal, len(topo.ByRegion(Urban)))
	}
}

func TestDecileRatesMatchPaperEndpoints(t *testing.T) {
	if got := DecilePeakRate(0); got != FirstDecilePeakRate {
		t.Errorf("decile 0 rate = %v", got)
	}
	if got := DecilePeakRate(9); math.Abs(got-LastDecilePeakRate) > 1e-9 {
		t.Errorf("decile 9 rate = %v", got)
	}
	// Exponential growth: constant ratio between consecutive deciles.
	r := DecilePeakRate(1) / DecilePeakRate(0)
	for d := 2; d < 10; d++ {
		got := DecilePeakRate(d) / DecilePeakRate(d-1)
		if math.Abs(got-r) > 1e-9 {
			t.Errorf("ratio at decile %d = %v, want %v", d, got, r)
		}
	}
	if DecileOffPeakScale(9) <= DecileOffPeakScale(0) {
		t.Error("off-peak scale must grow across deciles")
	}
}

func TestDayWeightShape(t *testing.T) {
	if w := DayWeight(3 * 60); w > 0.05 {
		t.Errorf("3am weight = %v, want ~0", w)
	}
	if w := DayWeight(14 * 60); w < 0.95 {
		t.Errorf("2pm weight = %v, want ~1", w)
	}
	// Monotone rise through the morning transition.
	prev := DayWeight(5 * 60)
	for m := 5*60 + 10; m <= 10*60; m += 10 {
		w := DayWeight(m)
		if w < prev-1e-9 {
			t.Errorf("day weight not rising at %d: %v < %v", m, w, prev)
		}
		prev = w
	}
}

func TestArrivalCountBimodal(t *testing.T) {
	bs := &BS{PeakRate: 40, OffPeakScale: 2}
	var rng mathx.PCG
	rng.SeedStream(3, 0, 0)
	wDay, wNight := DayWeight(14*60), DayWeight(3*60)
	var day, night []float64
	for trial := 0; trial < 4000; trial++ {
		day = append(day, float64(arrivalCountFast(bs, wDay, &rng)))
		night = append(night, float64(arrivalCountFast(bs, wNight, &rng)))
	}
	dm, nm := mathx.Mean(day), mathx.Mean(night)
	if math.Abs(dm-40) > 2 {
		t.Errorf("daytime mean = %v, want ~40", dm)
	}
	if nm >= dm/3 {
		t.Errorf("night mean %v not clearly below day mean %v", nm, dm)
	}
	// Daytime deviation ~ mu/10.
	if ds := mathx.Std(day); ds < 2.5 || ds > 6.5 {
		t.Errorf("daytime std = %v, want ~4", ds)
	}
	// Counts never negative.
	min, _ := mathx.MinMax(night)
	if min < 0 {
		t.Errorf("negative count %v", min)
	}
}

func TestPeakMinuteHelpers(t *testing.T) {
	if !IsPeakMinute(12*60) || IsPeakMinute(2*60) {
		t.Error("IsPeakMinute misclassifies")
	}
	if !IsOffPeakMinute(3*60) || IsOffPeakMinute(12*60) {
		t.Error("IsOffPeakMinute misclassifies")
	}
	// Transition band excluded from both.
	if IsPeakMinute(7*60+30) || IsOffPeakMinute(7*60+30) {
		t.Error("transition minute classified as peak or off-peak")
	}
}

func newTestSim(t *testing.T, cfg SimConfig) *Simulator {
	t.Helper()
	topo, err := NewTopology(TopologyConfig{NumBS: 20, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSimulator(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

func TestGenerateDayDeterministic(t *testing.T) {
	sim := newTestSim(t, SimConfig{Seed: 42})
	collect := func() []Session {
		var out []Session
		if err := sim.GenerateDay(3, 1, func(s Session) { out = append(out, s) }); err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := collect(), collect()
	if len(a) == 0 {
		t.Fatal("no sessions generated")
	}
	if len(a) != len(b) {
		t.Fatalf("non-deterministic session count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("session %d differs between runs", i)
		}
	}
}

func TestGenerateDayValidation(t *testing.T) {
	sim := newTestSim(t, SimConfig{Seed: 1})
	if err := sim.GenerateDay(-1, 0, func(Session) {}); err == nil {
		t.Error("negative BS index must error")
	}
	if err := sim.GenerateDay(999, 0, func(Session) {}); err == nil {
		t.Error("out-of-range BS index must error")
	}
	if err := sim.GenerateDay(0, -1, func(Session) {}); err == nil {
		t.Error("negative day must error")
	}
}

func TestSessionFieldsSane(t *testing.T) {
	sim := newTestSim(t, SimConfig{Seed: 5})
	var n, truncated int
	err := sim.GenerateDay(0, 0, func(s Session) {
		n++
		if s.Volume <= 0 || s.Duration < 1 {
			t.Fatalf("invalid session %+v", s)
		}
		if s.Minute < 0 || s.Minute >= MinutesPerDay {
			t.Fatalf("minute out of range: %+v", s)
		}
		if s.Start < float64(s.Minute)*60 || s.Start >= float64(s.Minute+1)*60 {
			t.Fatalf("start not within minute: %+v", s)
		}
		if s.Service < 0 || s.Service >= len(sim.Services) {
			t.Fatalf("service out of range: %+v", s)
		}
		if s.Truncated {
			truncated++
		}
		if tp := s.Throughput(); tp <= 0 {
			t.Fatalf("throughput %v", tp)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no sessions")
	}
	// With MoveProb 0.25 a visible share of sessions is transient.
	frac := float64(truncated) / float64(n)
	if frac < 0.02 || frac > 0.35 {
		t.Errorf("truncated fraction = %v", frac)
	}
}

func TestMoveProbZeroDisablesTruncation(t *testing.T) {
	topo, err := NewTopology(TopologyConfig{NumBS: 10, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSimulator(topo, SimConfig{Seed: 2, MoveProb: -1})
	if err != nil {
		t.Fatal(err)
	}
	// MoveProb <= 0 falls back to the default, so explicitly test with
	// a tiny positive epsilon standing in for "no mobility".
	sim.Config.MoveProb = 0
	err = sim.GenerateDay(0, 0, func(s Session) {
		if s.Truncated {
			t.Fatal("truncated session with MoveProb = 0")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestServiceSharesRecovered(t *testing.T) {
	sim := newTestSim(t, SimConfig{Seed: 11})
	counts := make([]float64, len(sim.Services))
	var total float64
	for day := 0; day < 2; day++ {
		for b := 0; b < len(sim.Topo.BSs); b++ {
			err := sim.GenerateDay(b, day, func(s Session) {
				counts[s.Service]++
				total++
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	// Facebook (heaviest) share must land near Table 1's 36.52% of the
	// normalized catalog.
	fbIdx, err := sim.ServiceIndex("Facebook")
	if err != nil {
		t.Fatal(err)
	}
	_, probs := sharesForTest(sim)
	got := counts[fbIdx] / total
	if math.Abs(got-probs[fbIdx]) > 0.01 {
		t.Errorf("Facebook share = %v, want ~%v", got, probs[fbIdx])
	}
}

// sharesForTest exposes the simulator's base probabilities.
func sharesForTest(s *Simulator) ([]string, []float64) {
	names := make([]string, len(s.Services))
	for i, p := range s.Services {
		names[i] = p.Name
	}
	return names, s.baseProbs
}

func TestIsWeekend(t *testing.T) {
	// Day 0 is Monday.
	for d := 0; d < 5; d++ {
		if IsWeekend(d) {
			t.Errorf("day %d flagged weekend", d)
		}
	}
	if !IsWeekend(5) || !IsWeekend(6) || !IsWeekend(12) {
		t.Error("weekend days misclassified")
	}
}

func TestNewSimulatorValidation(t *testing.T) {
	if _, err := NewSimulator(nil, SimConfig{}); err == nil {
		t.Error("nil topology must error")
	}
	if _, err := NewSimulator(&Topology{}, SimConfig{}); err == nil {
		t.Error("empty topology must error")
	}
}

func TestRATStringRegionString(t *testing.T) {
	if RAT4G.String() != "4G" || RAT5G.String() != "5G" {
		t.Error("RAT strings")
	}
	if Urban.String() != "urban" || SemiUrban.String() != "semi-urban" || Rural.String() != "rural" {
		t.Error("Region strings")
	}
}

func TestWeekendScaling(t *testing.T) {
	topo, err := NewTopology(TopologyConfig{NumBS: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSimulator(topo, SimConfig{Seed: 3, Weekend: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	count := func(day int) int {
		n := 0
		for bs := 0; bs < 10; bs++ {
			if err := sim.GenerateDay(bs, day, func(Session) { n++ }); err != nil {
				t.Fatal(err)
			}
		}
		return n
	}
	weekday := count(2)  // Wednesday
	saturday := count(5) // Saturday
	ratio := float64(saturday) / float64(weekday)
	if ratio < 0.4 || ratio > 0.6 {
		t.Errorf("weekend/weekday session ratio = %v, want ~0.5", ratio)
	}
	// Default (Weekend = 1) keeps day types indistinguishable, per the
	// paper's §4.4 finding.
	simDefault, err := NewSimulator(topo, SimConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	nWd, nWe := 0, 0
	for bs := 0; bs < 10; bs++ {
		if err := simDefault.GenerateDay(bs, 2, func(Session) { nWd++ }); err != nil {
			t.Fatal(err)
		}
		if err := simDefault.GenerateDay(bs, 5, func(Session) { nWe++ }); err != nil {
			t.Fatal(err)
		}
	}
	if r := float64(nWe) / float64(nWd); r < 0.9 || r > 1.1 {
		t.Errorf("default weekend ratio = %v, want ~1", r)
	}
}

func TestArrivalCountNeverNegativeAtTinyRates(t *testing.T) {
	bs := &BS{PeakRate: 0.3, OffPeakScale: 0.05}
	var rng mathx.PCG
	rng.SeedStream(5, 0, 0)
	for i := 0; i < 20000; i++ {
		if n := arrivalCountFast(bs, DayWeight(i%MinutesPerDay), &rng); n < 0 {
			t.Fatalf("negative count %d", n)
		}
	}
}
