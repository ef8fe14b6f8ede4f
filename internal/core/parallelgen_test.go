package core

import (
	"fmt"
	"math"
	"testing"

	"mobiletraffic/internal/dist"
	"mobiletraffic/internal/mathx"
)

// campaignSpecForTest is a small multi-class campaign over the golden
// fixture: two BSs (one per arrival class), three days each.
func campaignSpecForTest(workers int) CampaignSpec {
	set := goldenModelSet()
	return CampaignSpec{
		Arrivals: set.Arrivals,
		Days:     3,
		Workers:  workers,
	}
}

func blocksEqual(a, b []DayBlock) error {
	if len(a) != len(b) {
		return fmt.Errorf("block counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		x, y := &a[i], &b[i]
		if x.BS != y.BS || x.Day != y.Day {
			return fmt.Errorf("block %d identity differs: (%d,%d) vs (%d,%d)", i, x.BS, x.Day, y.BS, y.Day)
		}
		if len(x.Offsets) != len(y.Offsets) || len(x.Svc) != len(y.Svc) {
			return fmt.Errorf("block %d shape differs: %d/%d offsets, %d/%d sessions",
				i, len(x.Offsets), len(y.Offsets), len(x.Svc), len(y.Svc))
		}
		for m := range x.Offsets {
			if x.Offsets[m] != y.Offsets[m] {
				return fmt.Errorf("block %d offsets differ at minute %d", i, m)
			}
		}
		for k := range x.Svc {
			if x.Svc[k] != y.Svc[k] ||
				math.Float64bits(x.Volume[k]) != math.Float64bits(y.Volume[k]) ||
				math.Float64bits(x.Duration[k]) != math.Float64bits(y.Duration[k]) ||
				math.Float64bits(x.Start[k]) != math.Float64bits(y.Start[k]) {
				return fmt.Errorf("block %d session %d differs", i, k)
			}
		}
	}
	return nil
}

// TestGenerateCampaignWorkerBitIdentity is the central contract of the
// parallel plane: the campaign output is bit-for-bit identical at every
// worker count, because each (BS, day) cell draws from its own keyed
// substream and results land in per-index slots.
func TestGenerateCampaignWorkerBitIdentity(t *testing.T) {
	set := goldenModelSet()
	gen := func() *Generator {
		g, err := NewGenerator(set, 4242)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	ref, err := gen().GenerateCampaign(campaignSpecForTest(1))
	if err != nil {
		t.Fatal(err)
	}
	var total int
	for i := range ref {
		total += ref[i].Sessions()
	}
	if total == 0 {
		t.Fatal("reference campaign generated no sessions")
	}
	for _, workers := range []int{4, 7} {
		got, err := gen().GenerateCampaign(campaignSpecForTest(workers))
		if err != nil {
			t.Fatal(err)
		}
		if err := blocksEqual(ref, got); err != nil {
			t.Errorf("workers=%d output differs from workers=1: %v", workers, err)
		}
	}
}

// TestGenerateCampaignDeterministic checks the campaign depends only on
// (seed, spec): same seed reproduces, different seed diverges, and
// generating twice from one generator gives the same campaign (cell
// substreams never consume the generator's own stream).
func TestGenerateCampaignDeterministic(t *testing.T) {
	set := goldenModelSet()
	g1, err := NewGenerator(set, 7)
	if err != nil {
		t.Fatal(err)
	}
	a, err := g1.GenerateCampaign(campaignSpecForTest(2))
	if err != nil {
		t.Fatal(err)
	}
	b, err := g1.GenerateCampaign(campaignSpecForTest(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := blocksEqual(a, b); err != nil {
		t.Errorf("repeat campaign from one generator differs: %v", err)
	}
	g2, err := NewGenerator(set, 8)
	if err != nil {
		t.Fatal(err)
	}
	c, err := g2.GenerateCampaign(campaignSpecForTest(2))
	if err != nil {
		t.Fatal(err)
	}
	if blocksEqual(a, c) == nil {
		t.Error("campaigns with different master seeds are identical")
	}
}

// TestGenerateCampaignCellInvariance checks a cell's content is a pure
// function of (seed, key, day): re-slicing the campaign (fewer days,
// different BS order via keys) reproduces the overlapping cells bit for
// bit, and truncated days are prefixes of full ones.
func TestGenerateCampaignCellInvariance(t *testing.T) {
	set := goldenModelSet()
	g, err := NewGenerator(set, 99)
	if err != nil {
		t.Fatal(err)
	}
	full, err := g.GenerateCampaign(CampaignSpec{
		Arrivals: set.Arrivals, Keys: []uint64{10, 20}, Days: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Swap the BS order; cell (key 20, day d) must be unchanged.
	swapped, err := g.GenerateCampaign(CampaignSpec{
		Arrivals: []*ArrivalModel{set.Arrivals[1], set.Arrivals[0]},
		Keys:     []uint64{20, 10}, Days: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// full blocks: [bs0 d0, bs0 d1, bs1 d0, bs1 d1]; swapped: [bs1 d0, ...].
	for d := 0; d < 2; d++ {
		want, got := full[2+d], swapped[d]
		want.BS, got.BS = 0, 0 // identity fields legitimately differ
		if err := blocksEqual([]DayBlock{want}, []DayBlock{got}); err != nil {
			t.Errorf("cell (key=20, day=%d) changed under campaign re-slicing: %v", d, err)
		}
	}
	// A truncated day is a prefix of the full day.
	trunc, err := g.GenerateCampaign(CampaignSpec{
		Arrivals: set.Arrivals, Keys: []uint64{10, 20}, Days: 2, MinutesPerDay: 300,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range trunc {
		tb, fb := &trunc[i], &full[i]
		if len(tb.Offsets) != 301 {
			t.Fatalf("truncated block %d has %d offsets, want 301", i, len(tb.Offsets))
		}
		n := int(tb.Offsets[300])
		if n != int(fb.Offsets[300]) {
			t.Fatalf("truncated block %d has %d sessions in 300 min, full has %d", i, n, fb.Offsets[300])
		}
		for k := 0; k < n; k++ {
			if tb.Svc[k] != fb.Svc[k] || tb.Volume[k] != fb.Volume[k] {
				t.Fatalf("truncated block %d session %d is not a prefix of the full day", i, k)
			}
		}
	}
}

// TestGenerateCampaignValidation covers the spec error paths.
func TestGenerateCampaignValidation(t *testing.T) {
	set := goldenModelSet()
	g, err := NewGenerator(set, 1)
	if err != nil {
		t.Fatal(err)
	}
	bad := []CampaignSpec{
		{},
		{Arrivals: set.Arrivals, Days: 0},
		{Arrivals: set.Arrivals, Days: 1, Keys: []uint64{1}},
		{Arrivals: []*ArrivalModel{nil}, Days: 1},
		{Arrivals: set.Arrivals, Days: 1, MinutesPerDay: -1},
		{Arrivals: set.Arrivals, Days: 1, StartMinute: -5},
		{Arrivals: set.Arrivals, Days: 1, PhaseWeights: []float64{}},
	}
	for i, spec := range bad {
		if _, err := g.GenerateCampaign(spec); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}

// TestSubstreamKeyingNonOverlap verifies the domain salts keep the
// three stream families of one master seed — the measurement sampler's
// unsalted netsim substreams, the campaign cells, and the server-facing
// client substreams — pairwise disjoint on identical (a, b) keys.
func TestSubstreamKeyingNonOverlap(t *testing.T) {
	const seed, a, b = 12345, 3, 5
	draw := func(master uint64) [8]uint64 {
		var p mathx.PCG
		p.SeedStream(master, a, b)
		var out [8]uint64
		for i := range out {
			out[i] = p.Uint64()
		}
		return out
	}
	netsimStream := draw(seed) // netsim seeds SeedStream(seed, bs, day) unsalted
	campaign := draw(seed ^ genCampaignDomain)
	client := draw(seed ^ genClientDomain)
	if netsimStream == campaign {
		t.Error("campaign substream collides with the netsim sampler substream")
	}
	if netsimStream == client {
		t.Error("client substream collides with the netsim sampler substream")
	}
	if campaign == client {
		t.Error("campaign and client substreams collide")
	}
	if genCampaignDomain == genClientDomain || genCampaignDomain == 0 || genClientDomain == 0 {
		t.Error("domain salts must be distinct and non-zero")
	}
}

// TestSubstreamIndependence checks Substream cells are pure functions
// of (master seed, client, stream): creation order and interleaved
// draws on other substreams never change a cell's output, and the
// parent generator's own stream is untouched by handing cells out.
func TestSubstreamIndependence(t *testing.T) {
	set := goldenModelSet()
	g, err := NewGenerator(set, 555)
	if err != nil {
		t.Fatal(err)
	}
	parentBefore, err := NewGenerator(set, 555)
	if err != nil {
		t.Fatal(err)
	}

	s12 := g.Substream(1, 2)
	ref := make([]GenSession, 0, 8)
	for i := 0; i < 8; i++ {
		s, err := s12.SessionFor(i % len(set.Services))
		if err != nil {
			t.Fatal(err)
		}
		ref = append(ref, s)
	}

	// Different creation order, interleaved draws on a sibling.
	s34 := g.Substream(3, 4)
	again := g.Substream(1, 2)
	for i := 0; i < 8; i++ {
		if _, err := s34.SessionFor(0); err != nil {
			t.Fatal(err)
		}
		s, err := again.SessionFor(i % len(set.Services))
		if err != nil {
			t.Fatal(err)
		}
		if s != ref[i] {
			t.Fatalf("substream (1,2) draw %d changed under interleaving: %+v vs %+v", i, s, ref[i])
		}
	}

	// The parent stream is unaffected by substream derivation.
	a, err := g.Minute(0, true)
	if err != nil {
		t.Fatal(err)
	}
	b, err := parentBefore.Minute(0, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("parent stream perturbed by substream derivation: %d vs %d sessions", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("parent stream session %d perturbed by substream derivation", i)
		}
	}
}

// TestGenerateCampaignOffsets pins the CSR invariants of the DayBlock
// layout on a one-BS, two-day campaign: monotone offsets closing at the
// session count, start times inside the owning minute, and positive
// volumes/durations within the model support.
func TestGenerateCampaignOffsets(t *testing.T) {
	set := goldenModelSet()
	g, err := NewGenerator(set, 31)
	if err != nil {
		t.Fatal(err)
	}
	blocks, err := g.GenerateCampaign(CampaignSpec{
		Arrivals: []*ArrivalModel{set.Arrivals[1]},
		Keys:     []uint64{1},
		Days:     2,
		Workers:  3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 2 {
		t.Fatalf("one-BS two-day campaign returned %d blocks, want 2", len(blocks))
	}
	for i := range blocks {
		b := &blocks[i]
		if b.Day != i || b.BS != 0 {
			t.Errorf("block %d has identity (BS=%d, Day=%d)", i, b.BS, b.Day)
		}
		if len(b.Offsets) != 24*60+1 {
			t.Fatalf("block %d has %d offsets, want %d", i, len(b.Offsets), 24*60+1)
		}
		if b.Offsets[0] != 0 || int(b.Offsets[len(b.Offsets)-1]) != b.Sessions() {
			t.Fatalf("block %d offsets do not close over the session count", i)
		}
		if b.Sessions() != len(b.Volume) || b.Sessions() != len(b.Duration) || b.Sessions() != len(b.Start) {
			t.Fatalf("block %d column lengths disagree", i)
		}
		for m := 0; m < 24*60; m++ {
			lo, hi := b.MinuteRange(m)
			if lo > hi {
				t.Fatalf("block %d offsets decrease at minute %d", i, m)
			}
			for k := lo; k < hi; k++ {
				if s := b.Start[k]; s < float64(m)*60 || s >= float64(m+1)*60 {
					t.Fatalf("block %d session %d starts at %v s, outside minute %d", i, k, s, m)
				}
				if b.Volume[k] <= 0 || b.Duration[k] < 1 || b.Duration[k] > MaxSessionDuration {
					t.Fatalf("block %d session %d outside model support (v=%v d=%v)",
						i, k, b.Volume[k], b.Duration[k])
				}
				if svc := int(b.Svc[k]); svc < 0 || svc >= len(set.Services) {
					t.Fatalf("block %d session %d has service index %d", i, k, svc)
				}
			}
		}
	}
}

// TestGenerateCampaignMatchesScalarStats is the statistical-equivalence
// guard between the campaign plane's batched stream and the scalar
// MinuteAppend stream: per-service volume and duration marginals agree
// under a two-sample KS test, and the service attribution counts agree
// under a chi-square homogeneity test. Both sides are fixed-seed, so
// the p-values are deterministic.
func TestGenerateCampaignMatchesScalarStats(t *testing.T) {
	set := goldenModelSet()
	g, err := NewGenerator(set, 2024)
	if err != nil {
		t.Fatal(err)
	}
	const days = 12
	blocks, err := g.GenerateCampaign(CampaignSpec{
		Arrivals: set.Arrivals[1:], Days: days, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	nsvc := len(set.Services)
	campVol := make([][]float64, nsvc)
	campDur := make([][]float64, nsvc)
	campCounts := make([]float64, nsvc)
	for i := range blocks {
		b := &blocks[i]
		for k := 0; k < b.Sessions(); k++ {
			svc := b.Svc[k]
			campVol[svc] = append(campVol[svc], math.Log(b.Volume[k]))
			campDur[svc] = append(campDur[svc], math.Log(b.Duration[k]))
			campCounts[svc]++
		}
	}

	// Scalar reference: the same minutes through MinuteAppend on an
	// independent stream, with the same diurnal phase profile realized
	// by an independent phase RNG.
	sg, err := NewGenerator(set, 7777)
	if err != nil {
		t.Fatal(err)
	}
	var phase mathx.PCG
	phase.SeedStream(31337, 1, 1)
	weights := phaseWeightTable()
	scalVol := make([][]float64, nsvc)
	scalDur := make([][]float64, nsvc)
	scalCounts := make([]float64, nsvc)
	buf := make([]GenSession, 0, 64)
	byName := map[string]int{}
	for i := range set.Services {
		byName[set.Services[i].Name] = i
	}
	for m := 0; m < days*24*60; m++ {
		peak := phase.Float64() < weights[m%len(weights)]
		buf = buf[:0]
		buf, err = sg.MinuteAppend(buf, 1, peak)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range buf {
			svc := byName[s.Service]
			scalVol[svc] = append(scalVol[svc], math.Log(s.Volume))
			scalDur[svc] = append(scalDur[svc], math.Log(s.Duration))
			scalCounts[svc]++
		}
	}

	if stat, df, p, err := dist.Chi2Homogeneity(campCounts, scalCounts); err != nil {
		t.Fatal(err)
	} else if p < 1e-3 {
		t.Errorf("campaign vs scalar service attribution differs: chi2=%.1f df=%d p=%.2e", stat, df, p)
	}
	for svc := 0; svc < nsvc; svc++ {
		if len(campVol[svc]) < 100 || len(scalVol[svc]) < 100 {
			t.Fatalf("service %d undersampled (%d campaign, %d scalar)", svc, len(campVol[svc]), len(scalVol[svc]))
		}
		if d, p, err := dist.KSTwoSample(campVol[svc], scalVol[svc]); err != nil {
			t.Fatal(err)
		} else if p < 1e-3 {
			t.Errorf("service %d volume marginals differ: D=%.4f p=%.2e", svc, d, p)
		}
		if d, p, err := dist.KSTwoSample(campDur[svc], scalDur[svc]); err != nil {
			t.Fatal(err)
		} else if p < 1e-3 {
			t.Errorf("service %d duration marginals differ: D=%.4f p=%.2e", svc, d, p)
		}
	}
}
