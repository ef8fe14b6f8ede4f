package core

import (
	"math"
	"testing"

	"mobiletraffic/internal/dist"
	"mobiletraffic/internal/mathx"
	"mobiletraffic/internal/services"
)

// truthHist renders a service's ground-truth volume mixture on the
// measurement grid.
func truthHist(t *testing.T, name string, edges []float64) *dist.Hist {
	t.Helper()
	p, err := services.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	h, err := dist.NewHist(edges)
	if err != nil {
		t.Fatal(err)
	}
	centers := h.Centers()
	for i, u := range centers {
		h.P[i] = p.VolumeLogPDF(u) * (h.Edges[i+1] - h.Edges[i])
	}
	if err := h.Normalize(); err != nil {
		t.Fatal(err)
	}
	return h
}

var volEdges = mathx.LinSpace(2, 10.5, 171)

func TestFitVolumeModelRecoversNetflixPeaks(t *testing.T) {
	h := truthHist(t, "Netflix", volEdges)
	m, err := FitVolumeModel(h, nil)
	if err != nil {
		t.Fatal(err)
	}
	truth, _ := services.ByName("Netflix")
	// Main trend near the seeded log-normal.
	if math.Abs(m.MainMu-truth.MainMu) > 0.35 {
		t.Errorf("main mu = %v, want ~%v", m.MainMu, truth.MainMu)
	}
	// The 40 MB mode (log10 = 7.6) must be among the recovered peaks.
	found := false
	for _, p := range m.Peaks {
		if math.Abs(p.Mu-7.6) < 0.15 {
			found = true
		}
	}
	if !found {
		t.Errorf("7.6-decade Netflix mode not recovered; peaks = %+v", m.Peaks)
	}
	if len(m.Peaks) > MaxPeaks {
		t.Errorf("peaks = %d, want <= %d", len(m.Peaks), MaxPeaks)
	}
}

func TestFitVolumeModelQualityEMD(t *testing.T) {
	// §5.4: the mixture model's EMD against the measurement PDF must be
	// far below typical inter-service distances (~1e-1 in the log
	// domain); the paper reports order 1e-5 on its (much finer) data.
	for _, name := range []string{"Netflix", "Twitch", "Deezer", "Facebook", "Amazon", "Waze"} {
		h := truthHist(t, name, volEdges)
		m, err := FitVolumeModel(h, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		emd, err := m.EMD(h)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if emd > 0.08 {
			t.Errorf("%s: model EMD = %v, want < 0.08 decades", name, emd)
		}
	}
}

func TestFitVolumeModelNoPeaksForPlainLogNormal(t *testing.T) {
	h, err := dist.NewHist(volEdges)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.FillFromDist(dist.Normal{Mu: 5.0, Sigma: 0.8}); err != nil {
		t.Fatal(err)
	}
	m, err := FitVolumeModel(h, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.MainMu-5.0) > 0.05 || math.Abs(m.MainSigma-0.8) > 0.05 {
		t.Errorf("main = (%v, %v)", m.MainMu, m.MainSigma)
	}
	// A pure log-normal leaves only numerical residue: any detected
	// peaks must carry trivial weight.
	for _, p := range m.Peaks {
		if p.K > 0.01 {
			t.Errorf("spurious peak %+v on plain log-normal", p)
		}
	}
}

func TestFitVolumeModelValidation(t *testing.T) {
	if _, err := FitVolumeModel(nil, nil); err == nil {
		t.Error("nil histogram must error")
	}
	empty, _ := dist.NewHist(volEdges)
	if _, err := FitVolumeModel(empty, nil); err == nil {
		t.Error("empty histogram must error")
	}
	// All mass in one bin: degenerate spread.
	oneBin, _ := dist.NewHist(volEdges)
	oneBin.P[50] = 1
	if _, err := FitVolumeModel(oneBin, nil); err == nil {
		t.Error("zero-spread histogram must error")
	}
}

func TestVolumeModelPDFIntegratesToOne(t *testing.T) {
	m := &VolumeModel{MainMu: 6, MainSigma: 0.8, Peaks: []VolumeComponent{
		{K: 0.1, Mu: 7.5, Sigma: 0.1}, {K: 0.05, Mu: 8.2, Sigma: 0.1},
	}}
	us := mathx.LinSpace(0, 12, 4801)
	ys := make([]float64, len(us))
	for i, u := range us {
		ys[i] = m.PDFLog10(u)
	}
	if got := mathx.Trapezoid(us, ys); math.Abs(got-1) > 1e-3 {
		t.Errorf("PDF integral = %v", got)
	}
}

func TestVolumeModelSampleMatchesMixture(t *testing.T) {
	sp := planFor(t, ServiceModel{Volume: VolumeModel{MainMu: 6, MainSigma: 0.5, Peaks: []VolumeComponent{
		{K: 0.25, Mu: 8, Sigma: 0.1},
	}}})
	var rng mathx.PCG
	rng.Seed(1, 1)
	const n = 100000
	inPeak := 0
	for i := 0; i < n; i++ {
		if v, _ := sp.sampleVolumeLn(&rng); math.Log10(v) > 7.5 {
			inPeak++
		}
	}
	// Peak weight 0.25 of total 1.25 -> 20% of samples.
	frac := float64(inPeak) / n
	if math.Abs(frac-0.2) > 0.01 {
		t.Errorf("peak fraction = %v, want ~0.2", frac)
	}
}

func TestVolumeModelHistNormalized(t *testing.T) {
	m := &VolumeModel{MainMu: 6, MainSigma: 0.8}
	h, err := m.Hist(volEdges)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(h.Total()-1) > 1e-9 {
		t.Errorf("model hist total = %v", h.Total())
	}
	if math.Abs(h.Mean()-6) > 0.02 {
		t.Errorf("model hist mean = %v", h.Mean())
	}
}

func TestPeakCapAblation(t *testing.T) {
	// With many seeded peaks, the capped fit keeps the heaviest 3 and
	// the uncapped fit may keep more.
	h, err := dist.NewHist(volEdges)
	if err != nil {
		t.Fatal(err)
	}
	mix := &VolumeModel{MainMu: 6, MainSigma: 1.0, Peaks: []VolumeComponent{
		{K: 0.20, Mu: 4.0, Sigma: 0.08},
		{K: 0.15, Mu: 5.0, Sigma: 0.08},
		{K: 0.10, Mu: 7.2, Sigma: 0.08},
		{K: 0.08, Mu: 8.2, Sigma: 0.08},
		{K: 0.06, Mu: 9.0, Sigma: 0.08},
	}}
	centers := h.Centers()
	for i, u := range centers {
		h.P[i] = mix.PDFLog10(u) * (h.Edges[i+1] - h.Edges[i])
	}
	if err := h.Normalize(); err != nil {
		t.Fatal(err)
	}
	capped, err := FitVolumeModel(h, nil)
	if err != nil {
		t.Fatal(err)
	}
	uncapped, err := FitVolumeModel(h, &VolumeFitOptions{MaxPeaks: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(capped.Peaks) > 3 {
		t.Errorf("capped peaks = %d", len(capped.Peaks))
	}
	if len(uncapped.Peaks) < len(capped.Peaks) {
		t.Errorf("uncapped (%d) found fewer peaks than capped (%d)",
			len(uncapped.Peaks), len(capped.Peaks))
	}
	// The uncapped model must fit comparably or better (the two-pass
	// main-trend refinement makes the comparison non-monotone within a
	// few percent).
	ce, _ := capped.EMD(h)
	ue, _ := uncapped.EMD(h)
	if ue > ce*1.1+1e-9 {
		t.Errorf("uncapped EMD %v clearly worse than capped %v", ue, ce)
	}
}
