package vran

import (
	"math"
	"testing"
)

func TestPSModelPower(t *testing.T) {
	ps := DefaultPS()
	if got := ps.Power(0); got != 60 {
		t.Errorf("idle power = %v, want 60", got)
	}
	if got := ps.Power(100); got != 200 {
		t.Errorf("full-load power = %v, want 200", got)
	}
	if got := ps.Power(50); got != 130 {
		t.Errorf("half-load power = %v, want 130", got)
	}
	// Overload clamps.
	if got := ps.Power(500); got != 200 {
		t.Errorf("overload power = %v, want 200", got)
	}
}

func TestPackFFD(t *testing.T) {
	ps := DefaultPS()
	// Loads 60+60+40+40: FFD packs 60/40 + 60/40 = 2 bins.
	res := Pack(ps, []float64{60, 40, 60, 40})
	if res.ActivePS != 2 {
		t.Errorf("active = %d, want 2", res.ActivePS)
	}
	// Both bins fully loaded: 2 * 200 W.
	if math.Abs(res.PowerWatts-400) > 1e-9 {
		t.Errorf("power = %v, want 400", res.PowerWatts)
	}
}

func TestPackEmptyAndZeros(t *testing.T) {
	ps := DefaultPS()
	res := Pack(ps, nil)
	if res.ActivePS != 0 || res.PowerWatts != 0 {
		t.Errorf("empty pack = %+v", res)
	}
	res = Pack(ps, []float64{0, 0, 0})
	if res.ActivePS != 0 {
		t.Errorf("all-idle pack = %+v", res)
	}
}

func TestPackClampsOversizedDU(t *testing.T) {
	ps := DefaultPS()
	res := Pack(ps, []float64{250})
	if res.ActivePS != 1 {
		t.Errorf("oversized DU bins = %d", res.ActivePS)
	}
	if math.Abs(res.PowerWatts-200) > 1e-9 {
		t.Errorf("oversized DU power = %v", res.PowerWatts)
	}
	// Negative loads treated as zero.
	res = Pack(ps, []float64{-5, 30})
	if res.ActivePS != 1 {
		t.Errorf("negative-load bins = %d", res.ActivePS)
	}
}

func TestPackMinimality(t *testing.T) {
	ps := DefaultPS()
	// Total load 150 Mbps cannot fit one server; FFD must find 2.
	res := Pack(ps, []float64{50, 50, 50})
	if res.ActivePS != 2 {
		t.Errorf("active = %d, want 2", res.ActivePS)
	}
}

func TestThroughputSeriesAddSession(t *testing.T) {
	s, err := NewThroughputSeries(2, 10)
	if err != nil {
		t.Fatal(err)
	}
	// 1 MB over 4 s from t=1: 2 Mbps on slots 1..4.
	if err := s.AddSession(0, 1, 4, 1e6); err != nil {
		t.Fatal(err)
	}
	wantMbps := 1e6 / 4 * 8 / 1e6
	for ts := 1; ts < 5; ts++ {
		if math.Abs(s.Series[0][ts]-wantMbps) > 1e-9 {
			t.Errorf("slot %d = %v, want %v", ts, s.Series[0][ts], wantMbps)
		}
	}
	if s.Series[0][0] != 0 || s.Series[0][5] != 0 {
		t.Error("session leaked outside its interval")
	}
	// Fractional overlap: 1 s session starting at 7.5 splits across
	// slots 7 and 8.
	if err := s.AddSession(1, 7.5, 1, 1e6); err != nil {
		t.Fatal(err)
	}
	full := 8.0 // Mbps of the 1 s session
	if math.Abs(s.Series[1][7]-full/2) > 1e-9 || math.Abs(s.Series[1][8]-full/2) > 1e-9 {
		t.Errorf("fractional slots = %v, %v", s.Series[1][7], s.Series[1][8])
	}
}

func TestThroughputSeriesValidation(t *testing.T) {
	if _, err := NewThroughputSeries(0, 5); err == nil {
		t.Error("zero DUs must error")
	}
	s, _ := NewThroughputSeries(1, 5)
	if err := s.AddSession(5, 0, 1, 1); err == nil {
		t.Error("DU out of range must error")
	}
	if err := s.AddSession(0, 0, 0, 1); err == nil {
		t.Error("zero duration must error")
	}
	if err := s.AddSession(0, 0, 1, 0); err == nil {
		t.Error("zero volume must error")
	}
}

// TestThroughputSeriesRejectsNonFinite pins that a NaN or infinite
// field is an error and leaves the series untouched.
func TestThroughputSeriesRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name                 string
		start, dur, volBytes float64
	}{
		{"NaN duration", 1.5, nan, 1e6},
		{"NaN volume", 1.5, 2, nan},
		{"NaN start", nan, 2, 1e6},
		{"infinite duration and volume", 1.5, inf, inf},
		{"infinite start", -inf, 2, 1e6},
	}
	for _, c := range cases {
		s, _ := NewThroughputSeries(1, 10)
		if err := s.AddSession(0, c.start, c.dur, c.volBytes); err == nil {
			t.Errorf("%s: want an error", c.name)
		}
		for ts, v := range s.Series[0] {
			if v != 0 {
				t.Errorf("%s: slot %d = %v, want untouched", c.name, ts, v)
				break
			}
		}
	}
}

// TestThroughputSeriesNegativeStart pins the clamp at slot 0: the part
// of a session before the origin is dropped.
func TestThroughputSeriesNegativeStart(t *testing.T) {
	s, _ := NewThroughputSeries(1, 4)
	// 1 Mbps (125000 B/s) over [-2.5, 1.5): 1 s in slot 0, 0.5 s in slot 1.
	if err := s.AddSession(0, -2.5, 4, 4*125000); err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 0.5, 0, 0}
	for ts, w := range want {
		if s.Series[0][ts] != w {
			t.Errorf("series = %v, want %v", s.Series[0], want)
			break
		}
	}
}

func TestRun(t *testing.T) {
	s, _ := NewThroughputSeries(3, 4)
	// Slot 0: all idle. Slot 1: one DU at 40 Mbps. Slot 2: three DUs at
	// 40 Mbps each (needs 2 PSs). Slot 3: idle.
	s.Series[0][1] = 40
	s.Series[0][2] = 40
	s.Series[1][2] = 40
	s.Series[2][2] = 40
	res, err := Run(DefaultPS(), s)
	if err != nil {
		t.Fatal(err)
	}
	wantActive := []float64{0, 1, 2, 0}
	for ts, w := range wantActive {
		if res.ActivePS[ts] != w {
			t.Errorf("slot %d active = %v, want %v", ts, res.ActivePS[ts], w)
		}
	}
	if res.PowerW[0] != 0 {
		t.Errorf("idle slot power = %v", res.PowerW[0])
	}
	// Slot 1: one PS at 40% load = 60 + 0.4*140 = 116 W.
	if math.Abs(res.PowerW[1]-116) > 1e-9 {
		t.Errorf("slot 1 power = %v, want 116", res.PowerW[1])
	}
	if res.MeanActive() != 0.75 {
		t.Errorf("mean active = %v", res.MeanActive())
	}
	if res.MeanPower() <= 0 {
		t.Errorf("mean power = %v", res.MeanPower())
	}
	if _, err := Run(DefaultPS(), nil); err == nil {
		t.Error("nil series must error")
	}
}

func TestAPESeries(t *testing.T) {
	ape, err := APESeries([]float64{110, 90, 100}, []float64{100, 100, 100})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{10, 10, 0}
	for i := range want {
		if math.Abs(ape[i]-want[i]) > 1e-9 {
			t.Errorf("ape[%d] = %v, want %v", i, ape[i], want[i])
		}
	}
	// Zero-reference slots are skipped.
	ape, err = APESeries([]float64{5, 110}, []float64{0, 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(ape) != 1 || math.Abs(ape[0]-10) > 1e-9 {
		t.Errorf("zero-skipping APE = %v", ape)
	}
	if _, err := APESeries([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch must error")
	}
	if _, err := APESeries([]float64{1}, []float64{0}); err == nil {
		t.Error("all-zero reference must error")
	}
}

func TestSummarizeAPE(t *testing.T) {
	ape := make([]float64, 100)
	for i := range ape {
		ape[i] = float64(i)
	}
	s := SummarizeAPE(ape)
	if s.Median < 48 || s.Median > 51 {
		t.Errorf("median = %v", s.Median)
	}
	if !(s.P5 <= s.Q1 && s.Q1 <= s.Median && s.Median <= s.Q3 && s.Q3 <= s.P95) {
		t.Errorf("summary not ordered: %+v", s)
	}
}
