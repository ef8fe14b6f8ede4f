package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"mobiletraffic/internal/dist"
)

// goldenModelSet is the fixed released-model fixture behind the GenV1
// stream digests: three services covering the interesting shapes
// (multi-peak mixture with a volume cap, bare log-normal, single peak)
// and two arrival classes. Changing any parameter invalidates the
// digests in TestGenV1GoldenStream.
func goldenModelSet() *ModelSet {
	return &ModelSet{
		Services: []ServiceModel{
			{
				Name:         "video",
				SessionShare: 0.22,
				Volume: VolumeModel{MainMu: 6.5, MainSigma: 1.1, MaxVolume: 2e9,
					Peaks: []VolumeComponent{{K: 0.18, Mu: 7.6, Sigma: 0.08}, {K: 0.05, Mu: 8.3, Sigma: 0.1}}},
				Duration:      DurationModel{Alpha: 3000, Beta: 1.5},
				DurationNoise: 0.15,
			},
			{
				Name:          "web",
				SessionShare:  0.6,
				Volume:        VolumeModel{MainMu: 5.3, MainSigma: 0.7},
				Duration:      DurationModel{Alpha: 800, Beta: 0.6},
				DurationNoise: 0.25,
			},
			{
				Name:         "sync",
				SessionShare: 0.18,
				Volume: VolumeModel{MainMu: 6.0, MainSigma: 1.2,
					Peaks: []VolumeComponent{{K: 0.1, Mu: 7.8, Sigma: 0.12}}},
				Duration:      DurationModel{Alpha: 1200, Beta: 1.05},
				DurationNoise: 0.3,
			},
		},
		Arrivals: []*ArrivalModel{
			{PeakMu: 4, PeakSigma: 0.4, OffShape: ParetoShape, OffScale: 0.2},
			{PeakMu: 25, PeakSigma: 2.5, OffShape: ParetoShape, OffScale: 0.7},
		},
	}
}

// hashGenStream drives the generator through the fixed golden schedule
// (500 minutes cycling classes and day/night modes, then 100 single
// Session draws cycling the services) and digests every generated
// field bit for bit.
func hashGenStream(t *testing.T, g *Generator, minutes int) (string, int) {
	t.Helper()
	h := sha256.New()
	var buf [8]byte
	n := 0
	w64 := func(v uint64) { binary.LittleEndian.PutUint64(buf[:], v); h.Write(buf[:]) }
	for m := 0; m < minutes; m++ {
		class := m % len(g.Set.Arrivals)
		peak := m%3 != 0
		sessions, err := g.Minute(class, peak)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range sessions {
			n++
			h.Write([]byte(s.Service))
			w64(math.Float64bits(s.Volume))
			w64(math.Float64bits(s.Duration))
			w64(math.Float64bits(s.Throughput))
		}
	}
	for i := 0; i < 100; i++ {
		s, err := g.Session(g.Set.Services[i%len(g.Set.Services)].Name)
		if err != nil {
			t.Fatal(err)
		}
		n++
		h.Write([]byte(s.Service))
		w64(math.Float64bits(s.Volume))
		w64(math.Float64bits(s.Duration))
		w64(math.Float64bits(s.Throughput))
	}
	return fmt.Sprintf("%x", h.Sum(nil)), n
}

// TestGenV1GoldenStream pins the v1 engine to the exact byte stream the
// pre-versioning Generator produced: the digests below were captured on
// the unmodified code immediately before the engine split. Any change
// to the v1 draw order, the share normalization arithmetic, or the
// underlying model samplers breaks this test.
func TestGenV1GoldenStream(t *testing.T) {
	golden := []struct {
		seed     int64
		hash     string
		sessions int
	}{
		{42, "039095b91e017da4105ff7d0e51739be7881ddd351dc2fdbed13c538400b13cb", 5103},
		{7, "f34e2bd563466839ea6e9514bbad7b366d8c0187d53d97bcc3db8ded689ad7d2", 5094},
	}
	for _, gc := range golden {
		g, err := NewGeneratorEngine(goldenModelSet(), gc.seed, GenV1)
		if err != nil {
			t.Fatal(err)
		}
		hash, n := hashGenStream(t, g, 500)
		if hash != gc.hash || n != gc.sessions {
			t.Errorf("seed %d: v1 stream drifted: got %s (%d sessions), want %s (%d sessions)",
				gc.seed, hash, n, gc.hash, gc.sessions)
		}
	}
}

// TestGenV2Deterministic checks the v2 stream is a pure function of the
// seed, and that MinuteAppend into a reused buffer replays the exact
// Minute sequence.
func TestGenV2Deterministic(t *testing.T) {
	ga, err := NewGenerator(goldenModelSet(), 11)
	if err != nil {
		t.Fatal(err)
	}
	if ga.Engine != GenV2 {
		t.Fatalf("default engine = %q, want %q", ga.Engine, GenV2)
	}
	gb, err := NewGeneratorEngine(goldenModelSet(), 11, GenV2)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]GenSession, 0, 256)
	for m := 0; m < 200; m++ {
		class := m % 2
		peak := m%4 != 0
		sa, err := ga.Minute(class, peak)
		if err != nil {
			t.Fatal(err)
		}
		buf = buf[:0]
		buf, err = gb.MinuteAppend(buf, class, peak)
		if err != nil {
			t.Fatal(err)
		}
		if len(sa) != len(buf) {
			t.Fatalf("minute %d: %d vs %d sessions", m, len(sa), len(buf))
		}
		for i := range sa {
			if sa[i] != buf[i] {
				t.Fatalf("minute %d session %d: %+v vs %+v", m, i, sa[i], buf[i])
			}
		}
	}
}

// mergeTailBins pools trailing histogram bins until each merged bin
// holds at least minCount observations in the pooled reference, keeping
// chi-square expected counts honest for sparse tails.
func mergeTailBins(a, b []float64, minCount float64) (ma, mb []float64) {
	for i := 0; i < len(a); {
		j := i
		var ca, cb float64
		for j < len(a) {
			ca += a[j]
			cb += b[j]
			j++
			if ca+cb >= minCount {
				break
			}
		}
		ma = append(ma, ca)
		mb = append(mb, cb)
		i = j
	}
	// Fold a deficient final bin into its neighbor.
	if n := len(ma); n > 1 && ma[n-1]+mb[n-1] < minCount {
		ma[n-2] += ma[n-1]
		mb[n-2] += mb[n-1]
		ma, mb = ma[:n-1], mb[:n-1]
	}
	return ma, mb
}

// TestGenV2StatEquivalence is the engine-v2 guard: generated sessions
// from both engines must agree on the volume and duration marginals
// (two-sample KS in the log domain), the service attribution (Table 1
// shares, chi-square homogeneity) and the per-minute arrival counts
// (chi-square over the count histogram). Both streams are fixed-seed,
// so the p-values are deterministic.
func TestGenV2StatEquivalence(t *testing.T) {
	set := goldenModelSet()
	g1, err := NewGeneratorEngine(goldenModelSet(), 1234, GenV1)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := NewGeneratorEngine(goldenModelSet(), 4321, GenV2)
	if err != nil {
		t.Fatal(err)
	}
	type sample struct {
		logVol, logDur []float64
		svcCounts      []float64
		arrCounts      []float64
	}
	const minutes = 6000
	collect := func(g *Generator) sample {
		s := sample{svcCounts: make([]float64, len(set.Services))}
		svcIdx := map[string]int{}
		for i, m := range set.Services {
			svcIdx[m.Name] = i
		}
		var buf []GenSession
		for m := 0; m < minutes; m++ {
			class := m % 2
			peak := m%3 != 0
			buf = buf[:0]
			buf, err := g.MinuteAppend(buf, class, peak)
			if err != nil {
				t.Fatal(err)
			}
			if class == 1 && peak {
				for len(s.arrCounts) <= len(buf) {
					s.arrCounts = append(s.arrCounts, 0)
				}
				s.arrCounts[len(buf)]++
			}
			for _, sess := range buf {
				s.svcCounts[svcIdx[sess.Service]]++
				s.logVol = append(s.logVol, math.Log10(sess.Volume))
				s.logDur = append(s.logDur, math.Log10(sess.Duration))
			}
		}
		return s
	}
	s1, s2 := collect(g1), collect(g2)
	for name, pair := range map[string][2][]float64{
		"volume":   {s1.logVol, s2.logVol},
		"duration": {s1.logDur, s2.logDur},
	} {
		d, p, err := dist.KSTwoSample(pair[0], pair[1])
		if err != nil {
			t.Fatal(err)
		}
		if p < 1e-3 {
			t.Errorf("%s marginals differ between engines: D=%.4f p=%.2e", name, d, p)
		}
	}
	stat, df, p, err := dist.Chi2Homogeneity(s1.svcCounts, s2.svcCounts)
	if err != nil {
		t.Fatal(err)
	}
	if p < 1e-3 {
		t.Errorf("service attribution differs between engines: chi2=%.1f df=%d p=%.2e", stat, df, p)
	}
	// Equalize histogram lengths before pooling tail bins.
	for len(s1.arrCounts) < len(s2.arrCounts) {
		s1.arrCounts = append(s1.arrCounts, 0)
	}
	for len(s2.arrCounts) < len(s1.arrCounts) {
		s2.arrCounts = append(s2.arrCounts, 0)
	}
	a, b := mergeTailBins(s1.arrCounts, s2.arrCounts, 10)
	stat, df, p, err = dist.Chi2Homogeneity(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if p < 1e-3 {
		t.Errorf("arrival counts differ between engines: chi2=%.1f df=%d p=%.2e", stat, df, p)
	}
}

// TestGenV2MinuteAppendAllocs pins the v2 fast path at zero steady-state
// heap allocations: with a warm reused buffer, a minute fill must not
// touch the allocator.
func TestGenV2MinuteAppendAllocs(t *testing.T) {
	g, err := NewGenerator(goldenModelSet(), 5)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]GenSession, 0, 4096)
	// Warm up so append never grows the buffer inside the measured runs.
	for i := 0; i < 32; i++ {
		buf = buf[:0]
		if buf, err = g.MinuteAppend(buf, 1, true); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		buf = buf[:0]
		var err error
		buf, err = g.MinuteAppend(buf, 1, true)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("v2 MinuteAppend allocates %.1f objects per minute, want 0", allocs)
	}
}

// TestNewGeneratorDoesNotMutateModelSet pins the satellite fix: the
// constructor must normalize shares into generator-private tables, not
// rescale the caller's models in place.
func TestNewGeneratorDoesNotMutateModelSet(t *testing.T) {
	for _, engine := range []Engine{GenV1, GenV2} {
		set := goldenModelSet()
		before, err := json.Marshal(set)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := NewGeneratorEngine(set, 3, engine); err != nil {
			t.Fatal(err)
		}
		after, err := json.Marshal(set)
		if err != nil {
			t.Fatal(err)
		}
		if string(before) != string(after) {
			t.Errorf("%s: NewGeneratorEngine mutated the caller's ModelSet", engine)
		}
	}
}

// TestSessionForBounds checks the index-based draw validates its range
// on both engines and agrees with the name-based Session draw.
func TestSessionForBounds(t *testing.T) {
	for _, engine := range []Engine{GenV1, GenV2} {
		g, err := NewGeneratorEngine(goldenModelSet(), 9, engine)
		if err != nil {
			t.Fatal(err)
		}
		for _, idx := range []int{-1, len(g.Set.Services)} {
			if _, err := g.SessionFor(idx); err == nil {
				t.Errorf("%s: SessionFor(%d) did not error", engine, idx)
			}
		}
		if _, err := g.Session("no-such-service"); err == nil {
			t.Errorf("%s: Session on unknown name did not error", engine)
		}
		s, err := g.SessionFor(1)
		if err != nil {
			t.Fatal(err)
		}
		if s.Service != g.Set.Services[1].Name {
			t.Errorf("%s: SessionFor(1) generated %q", engine, s.Service)
		}
	}
}

// TestParseEngine covers the flag-parsing helper.
func TestParseEngine(t *testing.T) {
	for in, want := range map[string]Engine{"": GenV2, "v1": GenV1, "v2": GenV2} {
		got, err := ParseEngine(in)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("ParseEngine(%q) = %q, want %q", in, got, want)
		}
	}
	if _, err := ParseEngine("v3"); err == nil {
		t.Error("ParseEngine(v3) did not error")
	}
	if _, err := NewGeneratorEngine(goldenModelSet(), 1, Engine("v9")); err == nil {
		t.Error("NewGeneratorEngine with unknown engine did not error")
	}
}

// TestGenV2DegenerateDuration checks an uninvertible power law pins v2
// durations at the 1 s floor, matching the v1 NaN-guard behavior.
func TestGenV2DegenerateDuration(t *testing.T) {
	set := &ModelSet{
		Services: []ServiceModel{{
			Name:         "flat",
			SessionShare: 1,
			Volume:       VolumeModel{MainMu: 5, MainSigma: 1},
			Duration:     DurationModel{Alpha: 0, Beta: 0},
		}},
		Arrivals: []*ArrivalModel{{PeakMu: 10, PeakSigma: 1, OffShape: ParetoShape, OffScale: 0.5}},
	}
	g, err := NewGenerator(set, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		s, err := g.SessionFor(0)
		if err != nil {
			t.Fatal(err)
		}
		if s.Duration != 1 {
			t.Fatalf("degenerate duration %v, want 1", s.Duration)
		}
	}
}
