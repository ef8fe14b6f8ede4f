package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"testing"
)

// goldenModelSet is the fixed released-model fixture behind the stream
// digests: three services covering the interesting shapes (multi-peak
// mixture with a volume cap, bare log-normal, single peak) and two
// arrival classes. Changing any parameter invalidates the digests in
// TestGenV2GoldenStream.
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
// (MinuteAppend into a reused buffer for the given number of minutes,
// cycling classes and day/night modes, then 100 single SessionFor
// draws cycling the services) and digests every generated field bit
// for bit.
func hashGenStream(t *testing.T, g *Generator, minutes int) (string, int) {
	t.Helper()
	h := sha256.New()
	var buf [8]byte
	n := 0
	put := func(s GenSession) {
		n++
		h.Write([]byte(s.Service))
		for _, v := range []float64{s.Volume, s.Duration, s.Throughput} {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	var sessions []GenSession
	for m := 0; m < minutes; m++ {
		class := m % len(g.Set.Arrivals)
		peak := m%3 != 0
		var err error
		if sessions, err = g.MinuteAppend(sessions[:0], class, peak); err != nil {
			t.Fatal(err)
		}
		for _, s := range sessions {
			put(s)
		}
	}
	for i := 0; i < 100; i++ {
		s, err := g.SessionFor(i % len(g.Set.Services))
		if err != nil {
			t.Fatal(err)
		}
		put(s)
	}
	return fmt.Sprintf("%x", h.Sum(nil)), n
}

// TestGenV2GoldenStream pins the serial v2 stream — MinuteAppend over
// both arrival classes and both modes, then SessionFor — to digests
// recorded before generator v1 was retired, so the retirement provably
// leaves every v2 draw in place.
func TestGenV2GoldenStream(t *testing.T) {
	golden := []struct {
		seed     int64
		hash     string
		sessions int
	}{
		{42, "b21a0b8a5dbaf8882185eb2cf03869977f61a7e24d54f9732a80bb20ec5c95a5", 5046},
		{7, "c2e5bb826040ddf3be43eb924cc4457ab26399fec43c0117ddefcfff46ec9844", 5012},
	}
	for _, gc := range golden {
		g, err := NewGenerator(goldenModelSet(), gc.seed)
		if err != nil {
			t.Fatal(err)
		}
		hash, n := hashGenStream(t, g, 500)
		if hash != gc.hash || n != gc.sessions {
			t.Errorf("seed %d: v2 stream drifted: got %s (%d sessions), want %s (%d sessions)",
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
	set := goldenModelSet()
	before, err := json.Marshal(set)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewGenerator(set, 3); err != nil {
		t.Fatal(err)
	}
	after, err := json.Marshal(set)
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Error("NewGenerator mutated the caller's ModelSet")
	}
}

// TestSessionForBounds checks the index-based draw validates its range
// and agrees with the name-based Session draw.
func TestSessionForBounds(t *testing.T) {
	g, err := NewGenerator(goldenModelSet(), 9)
	if err != nil {
		t.Fatal(err)
	}
	for _, idx := range []int{-1, len(g.Set.Services)} {
		if _, err := g.SessionFor(idx); err == nil {
			t.Errorf("SessionFor(%d) did not error", idx)
		}
	}
	if _, err := g.Session("no-such-service"); err == nil {
		t.Error("Session on unknown name did not error")
	}
	s, err := g.SessionFor(1)
	if err != nil {
		t.Fatal(err)
	}
	if s.Service != g.Set.Services[1].Name {
		t.Errorf("SessionFor(1) generated %q", s.Service)
	}
}

// TestNewGeneratorEngineAcceptsOnlyV2 pins the engine gate: the empty
// engine and GenV2 build the default generator, and every other value,
// including the retired "v1", is rejected.
func TestNewGeneratorEngineAcceptsOnlyV2(t *testing.T) {
	for _, engine := range []Engine{"", GenV2} {
		if _, err := NewGeneratorEngine(goldenModelSet(), 1, engine); err != nil {
			t.Errorf("NewGeneratorEngine(%q): %v", engine, err)
		}
	}
	for _, engine := range []Engine{"v1", "v9"} {
		if _, err := NewGeneratorEngine(goldenModelSet(), 1, engine); err == nil {
			t.Errorf("NewGeneratorEngine(%q) did not error", engine)
		}
	}
}

// TestGenV2DegenerateDuration checks an uninvertible power law pins
// durations at the 1 s floor.
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
