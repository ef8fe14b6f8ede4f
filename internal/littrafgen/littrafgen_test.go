package littrafgen

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"mobiletraffic/internal/mathx"
	"mobiletraffic/internal/services"
)

func TestCategoryString(t *testing.T) {
	if IW.String() != "IW" || CS.String() != "CS" || MS.String() != "MS" {
		t.Error("category strings")
	}
	if Category(9).String() != "Category(9)" {
		t.Error("unknown category string")
	}
}

func TestModelsOrdering(t *testing.T) {
	m := Models()
	// Movie streaming carries more volume and lasts longer than casual
	// streaming, which exceeds interactive web.
	if !(m[MS].MeanVolume() > m[CS].MeanVolume() && m[CS].MeanVolume() > m[IW].MeanVolume()) {
		t.Error("category volume ordering violated")
	}
	if !(m[MS].DurMu > m[CS].DurMu && m[CS].DurMu > m[IW].DurMu) {
		t.Error("category duration ordering violated")
	}
}

func TestSampleMoments(t *testing.T) {
	g := NewGenerator(BMAShares(), 1)
	var logs []float64
	for i := 0; i < 50000; i++ {
		s := g.SampleCategory(CS)
		if s.Volume <= 0 || s.Duration < 1 || s.Throughput <= 0 {
			t.Fatalf("invalid session %+v", s)
		}
		if s.Category != CS {
			t.Fatalf("category = %v", s.Category)
		}
		logs = append(logs, math.Log10(s.Volume))
	}
	if got := mathx.Mean(logs); math.Abs(got-7.3) > 0.02 {
		t.Errorf("log-volume mean = %v", got)
	}
}

func TestMeanVolumeAnalytic(t *testing.T) {
	g := NewGenerator(BMAShares(), 2)
	m := g.Models[IW]
	var sum float64
	const n = 300000
	for i := 0; i < n; i++ {
		sum += g.SampleCategory(IW).Volume
	}
	got := sum / n
	want := m.MeanVolume()
	if math.Abs(got-want)/want > 0.03 {
		t.Errorf("empirical mean volume %v vs analytic %v", got, want)
	}
}

func TestCategoryOfMapping(t *testing.T) {
	cases := map[string]Category{
		"Netflix":  MS,
		"Twitch":   MS,
		"FB Live":  MS,
		"Youtube":  MS,
		"Deezer":   CS,
		"Spotify":  CS,
		"Facebook": IW,
		"Amazon":   IW,
		"Waze":     IW,
	}
	for name, want := range cases {
		p, err := services.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := CategoryOf(p); got != want {
			t.Errorf("CategoryOf(%s) = %v, want %v", name, got, want)
		}
	}
}

func TestBenchmarkShares(t *testing.T) {
	a, b := BMAShares(), BMBShares()
	if math.Abs(a[IW]+a[CS]+a[MS]-1) > 1e-9 {
		t.Errorf("bm_a shares sum to %v", a[IW]+a[CS]+a[MS])
	}
	if math.Abs(b[IW]+b[CS]+b[MS]-1) > 1e-9 {
		t.Errorf("bm_b shares sum to %v", b[IW]+b[CS]+b[MS])
	}
	// Paper values.
	if a[IW] != 0.4930 || a[CS] != 0.4846 || a[MS] != 0.0224 {
		t.Errorf("bm_a shares = %v", a)
	}
	if b[MS] != 0.0789 {
		t.Errorf("bm_b MS share = %v", b[MS])
	}
}

func TestPickCategoryDistribution(t *testing.T) {
	shares := BMAShares()
	g := NewGenerator(shares, 3)
	var counts [NumCategories]int
	const n = 100000
	for i := 0; i < n; i++ {
		counts[g.Sample().Category]++
	}
	for c := 0; c < NumCategories; c++ {
		got := float64(counts[c]) / n
		if math.Abs(got-shares[c]) > 0.01 {
			t.Errorf("category %v share = %v, want %v", Category(c), got, shares[c])
		}
	}
}

func TestGeneratorNormalizeTotal(t *testing.T) {
	g := NewGenerator(BMAShares(), 4)
	want := 2e6
	scale := g.NormalizeTotal(want)
	if scale <= 0 {
		t.Fatalf("scale = %v", scale)
	}
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += g.Sample().Volume
	}
	got := sum / n
	if math.Abs(got-want)/want > 0.05 {
		t.Errorf("normalized mean volume = %v, want %v", got, want)
	}
	// Degenerate target leaves scaling untouched.
	g2 := NewGenerator(BMAShares(), 5)
	if s := g2.NormalizeTotal(0); s != 1 {
		t.Errorf("zero-target scale = %v", s)
	}
}

func TestGeneratorNormalizePerCategory(t *testing.T) {
	g := NewGenerator([NumCategories]float64{IW: 1}, 6) // IW only
	want := [NumCategories]float64{IW: 5e5, CS: 1e7, MS: 2e8}
	scales := g.NormalizePerCategory(want)
	for c := 0; c < NumCategories; c++ {
		if scales[c] <= 0 {
			t.Errorf("scale[%d] = %v", c, scales[c])
		}
	}
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += g.Sample().Volume
	}
	got := sum / n
	if math.Abs(got-want[IW])/want[IW] > 0.05 {
		t.Errorf("per-category normalized mean = %v, want %v", got, want[IW])
	}
}

// TestSubstreamDeterministic pins the benchmark substream contract:
// cells are pure functions of (master seed, a, b) — creation order and
// sibling draws never change a cell — scales carry over, and the
// parent stream is untouched.
func TestSubstreamDeterministic(t *testing.T) {
	g := NewGenerator(BMAShares(), 321)
	g.NormalizeTotal(5e6)

	s1 := g.Substream(2, 9)
	ref := make([]Session, 8)
	for i := range ref {
		ref[i] = s1.Sample()
	}

	// Re-derive after interleaving draws on a sibling cell.
	sib := g.Substream(5, 5)
	s2 := g.Substream(2, 9)
	for i := range ref {
		sib.Sample()
		if got := s2.Sample(); got != ref[i] {
			t.Fatalf("substream (2,9) draw %d changed under interleaving: %+v vs %+v", i, got, ref[i])
		}
	}
	if s2.VolumeScale != g.VolumeScale {
		t.Error("substream did not inherit volume scales")
	}

	// Parent stream unaffected by substream derivation.
	fresh := NewGenerator(BMAShares(), 321)
	fresh.NormalizeTotal(5e6)
	if a, b := g.Sample(), fresh.Sample(); a != b {
		t.Errorf("parent stream perturbed by substream derivation: %+v vs %+v", a, b)
	}
}

// TestSampleCategoryGoldenStream pins the v2 benchmark stream to a
// digest recorded before generator v1 was retired: forced-category
// draws cycling the three categories, on the parent stream with a
// volume scale and on one substream, every field bit for bit.
func TestSampleCategoryGoldenStream(t *testing.T) {
	const want = "7d30b4fec4a90fbc2a02fec4367149dea73d4de2ad128f1f8c65f550136bada8"
	g := NewGenerator(BMBShares(), 77)
	g.NormalizeTotal(3e6)
	sub := g.Substream(4, 1)
	h := sha256.New()
	var buf [8]byte
	for _, gen := range []*Generator{g, sub} {
		for i := 0; i < 3000; i++ {
			s := gen.SampleCategory(Category(i % NumCategories))
			h.Write([]byte{byte(s.Category)})
			for _, v := range []float64{s.Volume, s.Duration, s.Throughput} {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
				h.Write(buf[:])
			}
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Errorf("SampleCategory stream drifted: got %s, want %s", got, want)
	}
}
