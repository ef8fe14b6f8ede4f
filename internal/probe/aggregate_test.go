package probe

import (
	"math"
	"testing"

	"mobiletraffic/internal/mathx"
	"mobiletraffic/internal/netsim"
)

func mkSession(svc, bs, day, minute int, volume, duration float64) netsim.Session {
	return netsim.Session{
		Service: svc, BS: bs, Day: day, Minute: minute,
		Start: float64(minute) * 60, Volume: volume, Duration: duration,
	}
}

func TestCollectorObserveBasics(t *testing.T) {
	c, err := NewCollector(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Observe(mkSession(0, 1, 0, 30, 1e6, 10)); err != nil {
		t.Fatal(err)
	}
	if err := c.Observe(mkSession(0, 1, 0, 30, 2e6, 20)); err != nil {
		t.Fatal(err)
	}
	if err := c.Observe(mkSession(1, 1, 0, 31, 5e5, 5)); err != nil {
		t.Fatal(err)
	}
	st, ok := c.Get(StatKey{Service: 0, BS: 1, Day: 0})
	if !ok {
		t.Fatal("missing cell")
	}
	if st.Sessions != 2 || st.MinuteCounts[30] != 2 {
		t.Errorf("cell stats: sessions=%v counts[30]=%v", st.Sessions, st.MinuteCounts[30])
	}
	if got := st.Volume.Total(); got != 2 {
		t.Errorf("volume mass = %v", got)
	}
	if len(c.Keys()) != 2 {
		t.Errorf("keys = %d", len(c.Keys()))
	}
}

func TestCollectorValidation(t *testing.T) {
	if _, err := NewCollector(0); err == nil {
		t.Error("zero services must error")
	}
	c, _ := NewCollector(2)
	if err := c.Observe(mkSession(5, 0, 0, 0, 1, 1)); err == nil {
		t.Error("out-of-range service must error")
	}
	if err := c.Observe(netsim.Session{Service: 0, Minute: -1, Volume: 1, Duration: 1}); err == nil {
		t.Error("negative minute must error")
	}
}

// TestObserveRejectsNonFinite checks that a session whose volume or
// duration is NaN or infinite is rejected and folds nothing: NaN has
// no histogram bin, and an infinite volume would poison the cell's
// duration-volume sums. A negative volume is rejected too: its
// duration-volume sum would make the cell's checkpoint undecodable.
func TestObserveRejectsNonFinite(t *testing.T) {
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
		{"negative volume", -1, 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := NewCollector(1)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Observe(mkSession(0, 0, 0, 0, tc.volume, tc.duration)); err == nil {
				t.Fatal("non-finite session must error")
			}
			if n := c.TotalSessions(); n != 0 {
				t.Errorf("rejected session was folded: %v sessions", n)
			}
		})
	}
}

func TestPairValues(t *testing.T) {
	c, _ := NewCollector(1)
	// Two sessions in the same duration bin.
	if err := c.Observe(mkSession(0, 0, 0, 0, 10e6, 100)); err != nil {
		t.Fatal(err)
	}
	if err := c.Observe(mkSession(0, 0, 0, 0, 20e6, 101)); err != nil {
		t.Fatal(err)
	}
	st, _ := c.Get(StatKey{Service: 0, BS: 0, Day: 0})
	vals := st.PairValues()
	bin := c.durBin(100)
	if math.Abs(vals[bin]-15e6) > 1e-6 {
		t.Errorf("pair value = %v, want 15e6", vals[bin])
	}
	// Other bins NaN.
	if !math.IsNaN(vals[0]) {
		t.Errorf("empty bin value = %v, want NaN", vals[0])
	}
}

func TestDurBinBoundaries(t *testing.T) {
	c, _ := NewCollector(1)
	if got := c.durBin(0.5); got != 0 {
		t.Errorf("durBin(0.5) = %d", got)
	}
	if got := c.durBin(1e9); got != len(c.DurationEdges)-2 {
		t.Errorf("durBin(huge) = %d", got)
	}
	// Monotone in duration.
	prev := -1
	for _, d := range mathx.LogSpace(0, 5, 100) {
		b := c.durBin(d)
		if b < prev {
			t.Fatalf("durBin not monotone at %v", d)
		}
		prev = b
	}
}

func TestAggregateVolumeWeighting(t *testing.T) {
	c, _ := NewCollector(1)
	// BS 0: 3 sessions at ~1e6; BS 1: 1 session at ~1e8.
	for i := 0; i < 3; i++ {
		if err := c.Observe(mkSession(0, 0, 0, 10, 1e6, 10)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Observe(mkSession(0, 1, 0, 10, 1e8, 10)); err != nil {
		t.Fatal(err)
	}
	h, total, err := c.AggregateVolume(ForService(0))
	if err != nil {
		t.Fatal(err)
	}
	if total != 4 {
		t.Errorf("total weight = %v", total)
	}
	// Eq. 2: masses weighted by session counts -> 75% near log10=6.
	lowBin := h.BinIndex(6.0)
	if math.Abs(h.P[lowBin]-0.75) > 1e-9 {
		t.Errorf("low-volume mass = %v, want 0.75", h.P[lowBin])
	}
	if _, _, err := c.AggregateVolume(ForService(99)); err == nil {
		t.Error("empty filter must error")
	}
}

func TestAggregatePairsEq1(t *testing.T) {
	c, _ := NewCollector(1)
	// Same duration bin on two BSs with different volumes and counts:
	// Eq. (1) weights by session count.
	if err := c.Observe(mkSession(0, 0, 0, 0, 10, 100)); err != nil {
		t.Fatal(err)
	}
	if err := c.Observe(mkSession(0, 0, 0, 0, 10, 100)); err != nil {
		t.Fatal(err)
	}
	if err := c.Observe(mkSession(0, 1, 0, 0, 40, 100)); err != nil {
		t.Fatal(err)
	}
	vals, counts, err := c.AggregatePairs(ForService(0))
	if err != nil {
		t.Fatal(err)
	}
	bin := c.durBin(100)
	if counts[bin] != 3 {
		t.Errorf("bin count = %v", counts[bin])
	}
	if math.Abs(vals[bin]-20) > 1e-12 {
		t.Errorf("weighted pair value = %v, want 20", vals[bin])
	}
	if _, _, err := c.AggregatePairs(ForService(1)); err == nil {
		t.Error("empty filter must error")
	}
}

func TestMinuteCountSamplesSumsServices(t *testing.T) {
	c, _ := NewCollector(2)
	if err := c.Observe(mkSession(0, 0, 0, 700, 1e6, 10)); err != nil {
		t.Fatal(err)
	}
	if err := c.Observe(mkSession(1, 0, 0, 700, 1e6, 10)); err != nil {
		t.Fatal(err)
	}
	samples := c.MinuteCountSamples(nil, func(m int) bool { return m == 700 })
	if len(samples) != 1 || samples[0] != 2 {
		t.Errorf("samples = %v, want [2]", samples)
	}
	// All minutes of the (bs, day) cell are emitted without a filter.
	all := c.MinuteCountSamples(nil, nil)
	if len(all) != netsim.MinutesPerDay {
		t.Errorf("all-minute samples = %d", len(all))
	}
}

func TestSessionAndTrafficShares(t *testing.T) {
	c, _ := NewCollector(2)
	// Service 0: 3 sessions of 1 MB; service 1: 1 session of 9 MB.
	for i := 0; i < 3; i++ {
		if err := c.Observe(mkSession(0, i, 0, 0, 1e6, 10)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Observe(mkSession(1, 0, 0, 0, 9e6, 10)); err != nil {
		t.Fatal(err)
	}
	share, cv, err := c.SessionShare(nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(share[0]-0.75) > 1e-12 || math.Abs(share[1]-0.25) > 1e-12 {
		t.Errorf("session shares = %v", share)
	}
	if len(cv) != 2 {
		t.Errorf("cv = %v", cv)
	}
	tshare, _, err := c.TrafficShare(nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tshare[0]-0.25) > 1e-12 || math.Abs(tshare[1]-0.75) > 1e-12 {
		t.Errorf("traffic shares = %v", tshare)
	}
	empty, _ := NewCollector(2)
	if _, _, err := empty.SessionShare(nil); err == nil {
		t.Error("empty collector share must error")
	}
	if _, _, err := empty.TrafficShare(nil); err == nil {
		t.Error("empty collector traffic share must error")
	}
}

func TestKeyFilters(t *testing.T) {
	k := StatKey{Service: 2, BS: 7, Day: 5}
	if !ForService(2)(k) || ForService(1)(k) {
		t.Error("ForService")
	}
	if !BSIn([]int{7, 9})(k) || BSIn([]int{1})(k) {
		t.Error("BSIn")
	}
	if !DayIn(5)(k) || DayIn(0)(k) {
		t.Error("DayIn")
	}
	if Weekdays()(k) { // day 5 = Saturday
		t.Error("Weekdays should reject Saturday")
	}
	if !Weekends()(k) {
		t.Error("Weekends should accept Saturday")
	}
	if !And(ForService(2), DayIn(5))(k) || And(ForService(2), DayIn(4))(k) {
		t.Error("And")
	}
}

func TestDurationCenters(t *testing.T) {
	c, _ := NewCollector(1)
	centers := c.DurationCenters()
	if len(centers) != len(c.DurationEdges)-1 {
		t.Fatalf("centers = %d", len(centers))
	}
	if centers[0] < 1 || centers[0] > 2 {
		t.Errorf("first duration center = %v s", centers[0])
	}
	for i := 1; i < len(centers); i++ {
		if centers[i] <= centers[i-1] {
			t.Fatal("duration centers not increasing")
		}
	}
}
