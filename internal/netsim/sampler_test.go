package netsim

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"
)

// hashSessionStream runs the full campaign (days outermost, BSs inner)
// through GenerateDay and returns the sha256 of every session
// field at full float64 precision plus the session count. Any change to
// a single random draw, clamp, or field changes the digest.
func hashSessionStream(t *testing.T, numBS int, topoSeed int64, cfg SimConfig, days int) (string, int) {
	t.Helper()
	topo, err := NewTopology(TopologyConfig{NumBS: numBS, Seed: topoSeed})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSimulator(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var buf [8]byte
	n := 0
	w64 := func(v uint64) { binary.LittleEndian.PutUint64(buf[:], v); h.Write(buf[:]) }
	for day := 0; day < days; day++ {
		for bs := 0; bs < numBS; bs++ {
			err := sim.GenerateDay(bs, day, func(s Session) {
				n++
				w64(uint64(s.BS))
				w64(uint64(s.Service))
				w64(uint64(s.Day))
				w64(uint64(s.Minute))
				w64(math.Float64bits(s.Start))
				w64(math.Float64bits(s.Duration))
				w64(math.Float64bits(s.Volume))
				if s.Truncated {
					w64(1)
				} else {
					w64(0)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil)), n
}

// TestSamplerV2Deterministic checks that the stream is a pure function
// of the seed: two simulators built from the same config produce
// identical digests, and GenerateDay yields exactly the sessions
// SampleDayColumns writes, in column order.
func TestSamplerV2Deterministic(t *testing.T) {
	cfg := SimConfig{Seed: 42}
	h1, n1 := hashSessionStream(t, 20, 7, cfg, 2)
	h2, n2 := hashSessionStream(t, 20, 7, cfg, 2)
	if h1 != h2 || n1 != n2 {
		t.Fatalf("stream not deterministic: %s/%d vs %s/%d", h1, n1, h2, n2)
	}
	sim := newTestSim(t, cfg)
	var direct []Session
	if err := sim.GenerateDay(3, 1, func(s Session) { direct = append(direct, s) }); err != nil {
		t.Fatal(err)
	}
	var cols DayColumns
	if err := sim.SampleDayColumns(3, 1, &cols); err != nil {
		t.Fatal(err)
	}
	if len(direct) != cols.N() {
		t.Fatalf("GenerateDay yielded %d sessions, SampleDayColumns %d", len(direct), cols.N())
	}
	for i, s := range direct {
		g := cols.Slot[i]
		want := Session{
			BS: 3, Service: int(cols.Svc[i]), Day: 1, Minute: int(cols.Minute[i]),
			Start: cols.Start[i], Duration: cols.Duration[g], Volume: cols.Volume[g],
			Truncated: cols.Truncated[i],
		}
		if s != want {
			t.Fatalf("session %d differs between GenerateDay and SampleDayColumns:\n%+v\n%+v", i, s, want)
		}
	}
}

// TestSamplerV2DayAllocs pins the session view's scratch reuse: in
// steady state a GenerateDay call synthesizes its thousands of sessions
// with at most two heap allocations — the sampled day lives in a
// DayColumns scratch from the freelist, so losing the reuse fails this
// test.
func TestSamplerV2DayAllocs(t *testing.T) {
	sim := newTestSim(t, SimConfig{Seed: 42})
	var kept int
	yield := func(Session) { kept++ }
	// Warm up lazy state (the scratch freelist, obs handles).
	if err := sim.GenerateDay(2, 0, yield); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if err := sim.GenerateDay(2, 0, yield); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("GenerateDay allocates %.1f times per day, want <= 2", allocs)
	}
	if kept == 0 {
		t.Fatal("no sessions generated")
	}
}

// TestPhaseTableMatchesDayWeight checks the precomputed phase table is
// bit-identical to the closed form the arrival model is defined by.
func TestPhaseTableMatchesDayWeight(t *testing.T) {
	sim := newTestSim(t, SimConfig{Seed: 1})
	if len(sim.phase) != MinutesPerDay {
		t.Fatalf("phase table has %d entries, want %d", len(sim.phase), MinutesPerDay)
	}
	for m := 0; m < MinutesPerDay; m++ {
		if got, want := sim.phase[m], DayWeight(m); got != want {
			t.Fatalf("phase[%d] = %v, DayWeight = %v", m, got, want)
		}
	}
}

// TestSamplerV2GoldenStream pins the default (v2) session stream byte
// for byte on the two campaigns the v1 golden stream was pinned on.
// The digests were recorded before sampler v1 was deleted, so equal
// digests prove the deletion left every v2 draw untouched.
func TestSamplerV2GoldenStream(t *testing.T) {
	cases := []struct {
		name     string
		numBS    int
		topoSeed int64
		cfg      SimConfig
		days     int
		hash     string
		sessions int
	}{
		{
			name:     "default-config",
			numBS:    20,
			topoSeed: 7,
			cfg:      SimConfig{Seed: 42},
			days:     2,
			hash:     "05439d31b8c384f016c219da55b042f67094b423ad9c8068c5e16c0ee54c0a47",
			sessions: 711201,
		},
		{
			name:     "weekend-mobility-week",
			numBS:    12,
			topoSeed: 3,
			cfg:      SimConfig{Seed: 9, Weekend: 0.5, MoveProb: 0.4, Days: 7},
			days:     7,
			hash:     "e39c62fa5ee2c0f85b9c8723092492bbd441bd0869622e836be88c36f3d2ce46",
			sessions: 1161201,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			hash, n := hashSessionStream(t, tc.numBS, tc.topoSeed, tc.cfg, tc.days)
			if n != tc.sessions {
				t.Errorf("v2 stream generated %d sessions, golden capture had %d", n, tc.sessions)
			}
			if hash != tc.hash {
				t.Errorf("v2 stream digest %s does not match golden %s", hash, tc.hash)
			}
		})
	}
}
