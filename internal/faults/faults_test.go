package faults

import (
	"math"
	"testing"

	"mobiletraffic/internal/netsim"
)

func session(bs, day, minute, svc int) netsim.Session {
	return netsim.Session{
		BS: bs, Day: day, Minute: minute, Service: svc,
		Start: float64(minute) * 60, Duration: 10, Volume: 1e5,
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{OutageProb: 1.5}, 3); err == nil {
		t.Error("out-of-range probability must be rejected")
	}
	if _, err := New(Config{FlowLossProb: -0.1}, 3); err == nil {
		t.Error("negative probability must be rejected")
	}
	if _, err := New(Config{}, 0); err == nil {
		t.Error("zero services must be rejected")
	}
	inj, err := New(Config{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if inj.Config().MeanBurstLen != DefaultMeanBurstLen {
		t.Errorf("burst length default = %v", inj.Config().MeanBurstLen)
	}
}

func TestScaleClamps(t *testing.T) {
	c := Config{OutageProb: 0.4, FlowLossProb: 0.05, Seed: 7, MeanBurstLen: 3}
	s := c.Scale(0)
	if s.OutageProb != 0 || s.FlowLossProb != 0 {
		t.Errorf("Scale(0) must zero probabilities: %+v", s)
	}
	if s.Seed != 7 || s.MeanBurstLen != 3 {
		t.Errorf("Scale must preserve seed and burst length: %+v", s)
	}
	s = c.Scale(5)
	if s.OutageProb != 1 {
		t.Errorf("Scale must clamp at 1, got %v", s.OutageProb)
	}
}

func TestZeroConfigPassesEverything(t *testing.T) {
	inj, err := New(Config{}, 5)
	if err != nil {
		t.Fatal(err)
	}
	var got []netsim.Session
	d := inj.Day(2, 1)
	for m := 0; m < 100; m++ {
		d.Apply(session(2, 1, m*14%netsim.MinutesPerDay, m%5), func(s netsim.Session) { got = append(got, s) })
	}
	if len(got) != 100 {
		t.Fatalf("zero config must pass all sessions, got %d/100", len(got))
	}
	for i, s := range got {
		if s.Service != i%5 {
			t.Fatalf("session %d relabeled to %d", i, s.Service)
		}
	}
	st := inj.Stats()
	if st.Dropped() != 0 || st.Duplicated != 0 || st.Misclassified != 0 {
		t.Errorf("zero config injected faults: %+v", st)
	}
}

func TestDeterminismAcrossOrderings(t *testing.T) {
	cfg := Config{
		OutageProb: 0.2, TruncatedDayProb: 0.2, FlowLossProb: 0.1,
		FlowDupProb: 0.05, SignalGapProb: 0.05, MisclassProb: 0.05, Seed: 99,
	}
	run := func(cellOrder [][2]int) map[[2]int][]netsim.Session {
		inj, err := New(cfg, 4)
		if err != nil {
			t.Fatal(err)
		}
		out := map[[2]int][]netsim.Session{}
		for _, cell := range cellOrder {
			d := inj.Day(cell[0], cell[1])
			for m := 0; m < 50; m++ {
				d.Apply(session(cell[0], cell[1], m, m%4), func(s netsim.Session) {
					out[cell] = append(out[cell], s)
				})
			}
		}
		return out
	}
	a := run([][2]int{{0, 0}, {0, 1}, {1, 0}, {1, 1}})
	b := run([][2]int{{1, 1}, {0, 1}, {1, 0}, {0, 0}})
	for cell, sa := range a {
		sb := b[cell]
		if len(sa) != len(sb) {
			t.Fatalf("cell %v: %d vs %d sessions across orderings", cell, len(sa), len(sb))
		}
		for i := range sa {
			if sa[i] != sb[i] {
				t.Fatalf("cell %v session %d differs across orderings", cell, i)
			}
		}
	}
}

func TestOutageRate(t *testing.T) {
	inj, err := New(Config{OutageProb: 0.3, Seed: 5}, 3)
	if err != nil {
		t.Fatal(err)
	}
	down := 0
	const cells = 2000
	for bs := 0; bs < cells; bs++ {
		if inj.Day(bs, 0).Down() {
			down++
		}
	}
	rate := float64(down) / cells
	if math.Abs(rate-0.3) > 0.04 {
		t.Errorf("outage rate = %v, want ~0.3", rate)
	}
	if got := inj.Stats().OutageDays; got != int64(down) {
		t.Errorf("OutageDays = %d, counted %d", got, down)
	}
}

func TestDayTruncationDropsTail(t *testing.T) {
	inj, err := New(Config{TruncatedDayProb: 1, Seed: 11}, 3)
	if err != nil {
		t.Fatal(err)
	}
	d := inj.Day(0, 0)
	cut := d.CutoffMinute()
	if cut < 0 || cut >= netsim.MinutesPerDay {
		t.Fatalf("cutoff = %d", cut)
	}
	var kept []int
	for m := 0; m < netsim.MinutesPerDay; m += 10 {
		d.Apply(session(0, 0, m, 0), func(s netsim.Session) { kept = append(kept, s.Minute) })
	}
	for _, m := range kept {
		if m >= cut {
			t.Errorf("minute %d kept past cutoff %d", m, cut)
		}
	}
	if inj.Stats().TruncatedDays != 1 {
		t.Errorf("TruncatedDays = %d", inj.Stats().TruncatedDays)
	}
}

func TestFlowLossAndDuplicationRates(t *testing.T) {
	inj, err := New(Config{FlowLossProb: 0.2, FlowDupProb: 0.1, Seed: 21}, 3)
	if err != nil {
		t.Fatal(err)
	}
	const n = 20000
	emitted := 0
	d := inj.Day(0, 0)
	for i := 0; i < n; i++ {
		d.Apply(session(0, 0, i%netsim.MinutesPerDay, i%3), func(netsim.Session) { emitted++ })
	}
	st := inj.Stats()
	if lossRate := float64(st.Lost) / n; math.Abs(lossRate-0.2) > 0.02 {
		t.Errorf("loss rate = %v, want ~0.2", lossRate)
	}
	// Duplication applies to the surviving 80%.
	if dupRate := float64(st.Duplicated) / float64(n-int(st.Lost)); math.Abs(dupRate-0.1) > 0.02 {
		t.Errorf("dup rate = %v, want ~0.1", dupRate)
	}
	if int64(emitted) != st.Emitted {
		t.Errorf("emitted %d, stats say %d", emitted, st.Emitted)
	}
	if st.Emitted != st.Observed-st.Dropped()+st.Duplicated {
		t.Errorf("session accounting inconsistent: %+v", st)
	}
}

func TestMisclassificationBursts(t *testing.T) {
	inj, err := New(Config{MisclassProb: 0.05, MeanBurstLen: 6, Seed: 31}, 10)
	if err != nil {
		t.Fatal(err)
	}
	const n = 20000
	relabeled := 0
	d := inj.Day(0, 0)
	for i := 0; i < n; i++ {
		in := session(0, 0, i%netsim.MinutesPerDay, i%10)
		d.Apply(in, func(s netsim.Session) {
			if s.Service != in.Service {
				relabeled++
			}
			if s.Service < 0 || s.Service >= 10 {
				t.Fatalf("remapped service %d out of range", s.Service)
			}
		})
	}
	if int64(relabeled) != inj.Stats().Misclassified {
		t.Errorf("relabeled %d, stats say %d", relabeled, inj.Stats().Misclassified)
	}
	// MisclassProb is the per-record rate: bursts of mean length 6
	// start with probability 0.05/6, so ~5% of records are relabeled.
	rate := float64(relabeled) / n
	if rate < 0.02 || rate > 0.1 {
		t.Errorf("misclassification rate = %v, want ~0.05", rate)
	}
	// The relabelings must actually be bursty: count maximal runs of
	// consecutive relabeled records. With mean burst length 6 there are
	// far fewer runs than relabeled records.
	if runs := countRuns(inj, n); runs > relabeled/2 {
		t.Errorf("%d runs for %d relabelings — not bursty", runs, relabeled)
	}
}

// countRuns replays the same stream on a fresh injector and counts
// maximal runs of consecutive relabeled records.
func countRuns(ref *Injector, n int) int {
	inj, _ := New(ref.Config(), 10)
	d := inj.Day(0, 0)
	runs, inRun := 0, false
	for i := 0; i < n; i++ {
		in := session(0, 0, i%netsim.MinutesPerDay, i%10)
		flipped := false
		d.Apply(in, func(s netsim.Session) { flipped = s.Service != in.Service })
		if flipped && !inRun {
			runs++
		}
		inRun = flipped
	}
	return runs
}

func TestSignalGapDrops(t *testing.T) {
	inj, err := New(Config{SignalGapProb: 0.15, Seed: 41}, 3)
	if err != nil {
		t.Fatal(err)
	}
	const n = 10000
	kept := 0
	d := inj.Day(0, 0)
	for i := 0; i < n; i++ {
		d.Apply(session(0, 0, i%netsim.MinutesPerDay, 0), func(netsim.Session) { kept++ })
	}
	st := inj.Stats()
	if rate := float64(st.Unreferenced) / n; math.Abs(rate-0.15) > 0.02 {
		t.Errorf("unreferenced rate = %v, want ~0.15", rate)
	}
	if kept+int(st.Unreferenced) != n {
		t.Errorf("kept %d + unreferenced %d != %d", kept, st.Unreferenced, n)
	}
}
