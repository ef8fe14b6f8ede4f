package slicing

import (
	"math"
	"testing"
)

func TestDemandTraceAddSession(t *testing.T) {
	d, err := NewDemandTrace(2, 10)
	if err != nil {
		t.Fatal(err)
	}
	// 120 s session at 1000 B/s starting at t=30: 30 s in minute 0,
	// full minute 1, 30 s in minute 2.
	if err := d.AddSession(SessionSpec{Service: 0, Start: 30, Duration: 120, Volume: 120000}); err != nil {
		t.Fatal(err)
	}
	want := []float64{30000, 60000, 30000}
	for m, w := range want {
		if math.Abs(d.Demand[0][m]-w) > 1e-9 {
			t.Errorf("minute %d demand = %v, want %v", m, d.Demand[0][m], w)
		}
	}
	if d.Demand[0][3] != 0 {
		t.Errorf("minute 3 demand = %v", d.Demand[0][3])
	}
	// Volume is conserved within the horizon.
	var sum float64
	for _, v := range d.Demand[0] {
		sum += v
	}
	if math.Abs(sum-120000) > 1e-9 {
		t.Errorf("total demand = %v", sum)
	}
}

func TestDemandTraceClampsToHorizon(t *testing.T) {
	d, _ := NewDemandTrace(1, 2)
	// Session runs past the end of the trace.
	if err := d.AddSession(SessionSpec{Service: 0, Start: 60, Duration: 600, Volume: 600000}); err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.Demand[0][1]-60000) > 1e-9 {
		t.Errorf("clamped demand = %v", d.Demand[0][1])
	}
}

func TestDemandTraceValidation(t *testing.T) {
	if _, err := NewDemandTrace(0, 5); err == nil {
		t.Error("zero services must error")
	}
	d, _ := NewDemandTrace(1, 5)
	if err := d.AddSession(SessionSpec{Service: 5, Duration: 1, Volume: 1}); err == nil {
		t.Error("service out of range must error")
	}
	if err := d.AddSession(SessionSpec{Service: 0, Duration: 0, Volume: 1}); err == nil {
		t.Error("zero duration must error")
	}
	if err := d.AddSession(SessionSpec{Service: 0, Duration: 1, Volume: 0}); err == nil {
		t.Error("zero volume must error")
	}
}

// TestDemandTraceRejectsNonFinite pins that a NaN or infinite field is
// an error and leaves the trace untouched; a NaN duration used to pass
// the positivity check and write NaN into every later minute.
func TestDemandTraceRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		spec SessionSpec
	}{
		{"NaN duration", SessionSpec{Start: 90, Duration: nan, Volume: 1000}},
		{"NaN volume", SessionSpec{Start: 90, Duration: 60, Volume: nan}},
		{"NaN start", SessionSpec{Start: nan, Duration: 60, Volume: 1000}},
		{"infinite duration and volume", SessionSpec{Start: 90, Duration: inf, Volume: inf}},
		{"infinite duration", SessionSpec{Start: 90, Duration: inf, Volume: 1000}},
		{"infinite start", SessionSpec{Start: -inf, Duration: 60, Volume: 1000}},
	}
	for _, c := range cases {
		d, _ := NewDemandTrace(1, 10)
		if err := d.AddSession(c.spec); err == nil {
			t.Errorf("%s: want an error", c.name)
		}
		for m, v := range d.Demand[0] {
			if v != 0 {
				t.Errorf("%s: minute %d demand = %v, want untouched", c.name, m, v)
				break
			}
		}
	}
}

// TestDemandTraceNegativeStart pins the clamp at minute 0: the part of
// a session before the trace origin is dropped, however early it
// starts, instead of indexing a negative minute.
func TestDemandTraceNegativeStart(t *testing.T) {
	cases := []struct {
		name       string
		start, dur float64
		want       []float64 // bytes per minute at 1 B/s
	}{
		{"within the first minute", -30, 120, []float64{60, 30, 0}},
		{"one minute early", -60, 150, []float64{60, 30, 0}},
		{"two minutes early", -130, 150, []float64{20, 0, 0}},
		{"ends before the origin", -500, 100, []float64{0, 0, 0}},
	}
	for _, c := range cases {
		d, _ := NewDemandTrace(1, 3)
		if err := d.AddSession(SessionSpec{Start: c.start, Duration: c.dur, Volume: c.dur}); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for m, w := range c.want {
			if d.Demand[0][m] != w {
				t.Errorf("%s: demand = %v, want %v", c.name, d.Demand[0], c.want)
				break
			}
		}
	}
}

func TestTotal(t *testing.T) {
	d, _ := NewDemandTrace(2, 3)
	d.Demand[0] = []float64{1, 2, 3}
	d.Demand[1] = []float64{10, 20, 30}
	total := d.Total()
	want := []float64{11, 22, 33}
	for i := range want {
		if total[i] != want[i] {
			t.Errorf("total[%d] = %v", i, total[i])
		}
	}
}

func TestAllocatePercentile(t *testing.T) {
	d, _ := NewDemandTrace(1, 100)
	for m := 0; m < 100; m++ {
		d.Demand[0][m] = float64(m + 1) // 1..100
	}
	alloc, err := AllocatePercentile(d, 0.95, nil)
	if err != nil {
		t.Fatal(err)
	}
	// 95th percentile of 1..100 ~ 95.05.
	if alloc[0] < 94 || alloc[0] > 97 {
		t.Errorf("allocation = %v", alloc[0])
	}
	// Minute filter restricts the sample.
	alloc, err = AllocatePercentile(d, 0.95, func(m int) bool { return m < 10 })
	if err != nil {
		t.Fatal(err)
	}
	if alloc[0] > 10.1 {
		t.Errorf("filtered allocation = %v", alloc[0])
	}
}

func TestAllocatePercentileValidation(t *testing.T) {
	if _, err := AllocatePercentile(nil, 0.95, nil); err == nil {
		t.Error("nil trace must error")
	}
	d, _ := NewDemandTrace(1, 5)
	if _, err := AllocatePercentile(d, 1.5, nil); err == nil {
		t.Error("percentile out of range must error")
	}
	if _, err := AllocatePercentile(d, 0.95, func(int) bool { return false }); err == nil {
		t.Error("empty minute selection must error")
	}
}

func TestAllocateCategoryUniform(t *testing.T) {
	// Category trace: 2 categories; category 0 carries 90, category 1
	// carries 30, constant.
	cat, _ := NewDemandTrace(2, 10)
	for m := 0; m < 10; m++ {
		cat.Demand[0][m] = 90
		cat.Demand[1][m] = 30
	}
	// Services 0,1,2 map to category 0; service 3 to category 1.
	membership := []int{0, 0, 0, 1}
	alloc, err := AllocateCategoryUniform(cat, membership, 0.95, nil)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 3; s++ {
		if math.Abs(alloc[s]-30) > 1e-9 {
			t.Errorf("service %d allocation = %v, want 30", s, alloc[s])
		}
	}
	if math.Abs(alloc[3]-30) > 1e-9 {
		t.Errorf("service 3 allocation = %v, want 30", alloc[3])
	}
	if _, err := AllocateCategoryUniform(cat, []int{5}, 0.95, nil); err == nil {
		t.Error("membership out of range must error")
	}
	if _, err := AllocateCategoryUniform(nil, membership, 0.95, nil); err == nil {
		t.Error("nil category trace must error")
	}
}

func TestEvaluate(t *testing.T) {
	d, _ := NewDemandTrace(1, 10)
	for m := 0; m < 10; m++ {
		d.Demand[0][m] = float64(m) // 0..9
	}
	res, err := Evaluate(d, Allocation{7}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Minutes 0..7 satisfied (8 of 10).
	if math.Abs(res[0].Satisfied-0.8) > 1e-12 {
		t.Errorf("satisfied = %v", res[0].Satisfied)
	}
	// Dropped: (8-7)+(9-7) = 3.
	if math.Abs(res[0].DroppedBytes-3) > 1e-12 {
		t.Errorf("dropped = %v", res[0].DroppedBytes)
	}
	if _, err := Evaluate(d, Allocation{1, 2}, nil); err == nil {
		t.Error("allocation size mismatch must error")
	}
	if _, err := Evaluate(nil, Allocation{1}, nil); err == nil {
		t.Error("nil trace must error")
	}
}

func TestSummarize(t *testing.T) {
	results := []SLAResult{
		{Satisfied: 1.0},
		{Satisfied: 0.96},
		{Satisfied: 0.90},
	}
	s := Summarize(results, 0.95)
	if s.SLAMetCount != 2 || s.SliceCount != 3 {
		t.Errorf("summary = %+v", s)
	}
	if math.Abs(s.MeanSatisfied-(1.0+0.96+0.90)/3) > 1e-12 {
		t.Errorf("mean = %v", s.MeanSatisfied)
	}
	if s.StdSatisfied <= 0 {
		t.Errorf("std = %v", s.StdSatisfied)
	}
}

func TestPeakMinutes(t *testing.T) {
	f := PeakMinutes()
	if f(3 * 60) {
		t.Error("3am must be off-peak")
	}
	if !f(12 * 60) {
		t.Error("noon must be peak")
	}
	if f(23 * 60) {
		t.Error("11pm must be off-peak")
	}
	// Repeats daily.
	if !f(24*60 + 12*60) {
		t.Error("noon on day 2 must be peak")
	}
}
