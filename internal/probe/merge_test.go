package probe

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"mobiletraffic/internal/faults"
	"mobiletraffic/internal/netsim"
)

func TestMergeEquivalentToSerial(t *testing.T) {
	topo, err := netsim.NewTopology(netsim.TopologyConfig{NumBS: 10, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := netsim.NewSimulator(topo, netsim.SimConfig{Days: 1, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Serial: everything into one collector.
	serial, err := NewCollector(len(sim.Services))
	if err != nil {
		t.Fatal(err)
	}
	for bs := 0; bs < 10; bs++ {
		if err := sim.GenerateDay(bs, 0, func(s netsim.Session) {
			if err := serial.Observe(s); err != nil {
				t.Fatal(err)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Split: one collector per BS, merged afterwards.
	merged, err := NewCollector(len(sim.Services))
	if err != nil {
		t.Fatal(err)
	}
	for bs := 0; bs < 10; bs++ {
		part, err := NewCollector(len(sim.Services))
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.GenerateDay(bs, 0, func(s netsim.Session) {
			if err := part.Observe(s); err != nil {
				t.Fatal(err)
			}
		}); err != nil {
			t.Fatal(err)
		}
		if err := merged.Merge(part); err != nil {
			t.Fatal(err)
		}
	}
	// Every cell agrees.
	sk := serial.Keys()
	mk := merged.Keys()
	if len(sk) != len(mk) {
		t.Fatalf("cell counts differ: %d vs %d", len(sk), len(mk))
	}
	for _, key := range sk {
		a, _ := serial.Get(key)
		b, ok := merged.Get(key)
		if !ok {
			t.Fatalf("merged missing cell %+v", key)
		}
		if a.Sessions != b.Sessions {
			t.Fatalf("cell %+v sessions %v vs %v", key, a.Sessions, b.Sessions)
		}
		for i := range a.Volume.P {
			if a.Volume.P[i] != b.Volume.P[i] {
				t.Fatalf("cell %+v volume bin %d differs", key, i)
			}
		}
		for i := range a.DurVolSum {
			if math.Abs(a.DurVolSum[i]-b.DurVolSum[i]) > 1e-6 || a.DurCount[i] != b.DurCount[i] {
				t.Fatalf("cell %+v pair bin %d differs", key, i)
			}
		}
	}
	// Shares identical after merge.
	s1, _, err := serial.SessionShare(nil)
	if err != nil {
		t.Fatal(err)
	}
	s2, _, err := merged.SessionShare(nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range s1 {
		if math.Abs(s1[i]-s2[i]) > 1e-12 {
			t.Fatalf("share %d differs: %v vs %v", i, s1[i], s2[i])
		}
	}
}

func TestMergeValidation(t *testing.T) {
	a, _ := NewCollector(3)
	if err := a.Merge(nil); err == nil {
		t.Error("nil merge must error")
	}
	b, _ := NewCollector(4)
	if err := a.Merge(b); err == nil {
		t.Error("service count mismatch must error")
	}
	c, _ := NewCollector(3)
	c.VolumeEdges = c.VolumeEdges[:len(c.VolumeEdges)-1]
	if err := a.Merge(c); err == nil {
		t.Error("grid mismatch must error")
	}
}

// TestMergeEmptyPartials verifies that folding in collectors that never
// observed a session is a no-op: a real campaign always has idle
// gateway sites, and after a fault-injected one it may have many.
func TestMergeEmptyPartials(t *testing.T) {
	dst, err := NewCollector(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.Observe(netsim.Session{Service: 1, BS: 0, Day: 0, Minute: 10, Volume: 1e5, Duration: 30}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		empty, err := NewCollector(3)
		if err != nil {
			t.Fatal(err)
		}
		if err := dst.Merge(empty); err != nil {
			t.Fatalf("merging empty partial %d: %v", i, err)
		}
	}
	if got := len(dst.Keys()); got != 1 {
		t.Fatalf("empty merges changed the cell count to %d", got)
	}
	st, _ := dst.Get(dst.Keys()[0])
	if st.Sessions != 1 {
		t.Fatalf("sessions = %v after empty merges", st.Sessions)
	}
	// Merging into a fresh collector also works in the other direction.
	fresh, err := NewCollector(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Merge(dst); err != nil {
		t.Fatal(err)
	}
	if len(fresh.Keys()) != 1 {
		t.Fatal("merge into empty collector lost the cell")
	}
}

// TestMergeAfterFaults verifies the map-reduce layout survives fault
// injection: partial collectors fed through per-cell fault streams
// merge to exactly the serial fault-injected campaign, even when some
// partials end up with disjoint or empty cell sets.
func TestMergeAfterFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	topo, err := netsim.NewTopology(netsim.TopologyConfig{NumBS: 10, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := netsim.NewSimulator(topo, netsim.SimConfig{Days: 1, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	cfg := faults.Config{
		OutageProb: 0.3, TruncatedDayProb: 0.3, FlowLossProb: 0.1,
		FlowDupProb: 0.05, SignalGapProb: 0.05, MisclassProb: 0.03, Seed: 21,
	}
	collect := func(bs int, inj *faults.Injector, coll *Collector) {
		t.Helper()
		stream := inj.Day(bs, 0)
		if stream.Down() {
			return
		}
		if err := sim.GenerateDay(bs, 0, func(s netsim.Session) {
			stream.Apply(s, func(s netsim.Session) {
				if err := coll.Observe(s); err != nil {
					t.Fatal(err)
				}
			})
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Serial reference.
	injSer, err := faults.New(cfg, len(sim.Services))
	if err != nil {
		t.Fatal(err)
	}
	serial, err := NewCollector(len(sim.Services))
	if err != nil {
		t.Fatal(err)
	}
	for bs := 0; bs < 10; bs++ {
		collect(bs, injSer, serial)
	}
	// Partials: one collector per BS, merged afterwards.
	injPar, err := faults.New(cfg, len(sim.Services))
	if err != nil {
		t.Fatal(err)
	}
	merged, err := NewCollector(len(sim.Services))
	if err != nil {
		t.Fatal(err)
	}
	for bs := 0; bs < 10; bs++ {
		part, err := NewCollector(len(sim.Services))
		if err != nil {
			t.Fatal(err)
		}
		collect(bs, injPar, part)
		if err := merged.Merge(part); err != nil {
			t.Fatal(err)
		}
	}
	if injSer.Stats() != injPar.Stats() {
		t.Fatalf("fault realizations differ: %+v vs %+v", injSer.Stats(), injPar.Stats())
	}
	sk, mk := serial.Keys(), merged.Keys()
	if len(sk) != len(mk) {
		t.Fatalf("cell counts differ: %d vs %d", len(sk), len(mk))
	}
	for _, key := range sk {
		a, _ := serial.Get(key)
		b, ok := merged.Get(key)
		if !ok {
			t.Fatalf("merged missing cell %+v", key)
		}
		if a.Sessions != b.Sessions {
			t.Fatalf("cell %+v sessions %v vs %v", key, a.Sessions, b.Sessions)
		}
	}
}

// mergeCopy is the copying merge that MergeAll's cell hand-over
// replaced, kept as its oracle: every partial cell is added, in partial
// order, into a destination cell — a fresh zeroed one where c has none
// — and no partial is touched. c must already span every partial.
func mergeCopy(c *Collector, others []*Collector) {
	for _, other := range others {
		for _, k := range other.Keys() {
			src, _ := other.Get(k)
			dst := c.cell(k)
			for m, v := range src.MinuteCounts {
				dst.MinuteCounts[m] += v
			}
			dst.Sessions += src.Sessions
			for i, p := range src.Volume.P {
				dst.Volume.P[i] += p
			}
			for i := range src.DurVolSum {
				dst.DurVolSum[i] += src.DurVolSum[i]
				dst.DurCount[i] += src.DurCount[i]
			}
		}
	}
}

// TestMergeHandOverMatchesCopy merges a destination that already holds
// cells with partials that overlap it and each other, so both the
// hand-over of cells the destination lacks and the addition into cells
// it holds run. The result must equal the copying oracle bit for bit,
// every partial must be left empty, and moved cells must share the
// destination's edge slice.
func TestMergeHandOverMatchesCopy(t *testing.T) {
	const numSvc, numBS, days = 3, 4, 2
	build := func() (*Collector, []*Collector) {
		rng := rand.New(rand.NewSource(5))
		colls := make([]*Collector, 5)
		for i := range colls {
			c, err := NewCollectorSized(numSvc, numBS, days)
			if err != nil {
				t.Fatal(err)
			}
			for n := 0; n < 12; n++ {
				s := netsim.Session{
					Service: rng.Intn(numSvc), BS: rng.Intn(numBS), Day: rng.Intn(days),
					Minute: rng.Intn(netsim.MinutesPerDay), Volume: rng.ExpFloat64() * 1e5, Duration: rng.ExpFloat64() * 60,
				}
				if err := c.Observe(s); err != nil {
					t.Fatal(err)
				}
			}
			colls[i] = c
		}
		return colls[0], colls[1:]
	}
	want, wantParts := build()
	mergeCopy(want, wantParts)
	got, parts := build()
	held := len(got.Keys())
	if err := got.MergeAll(parts, 2); err != nil {
		t.Fatal(err)
	}
	if len(got.Keys()) <= held {
		t.Fatal("fixture hands no cell over")
	}
	sameCollector(t, want, got)
	for i, p := range parts {
		if n := len(p.Keys()); n != 0 {
			t.Fatalf("partial %d keeps %d cells after the merge", i, n)
		}
	}
	for _, k := range got.Keys() {
		if st, _ := got.Get(k); &st.Volume.Edges[0] != &got.VolumeEdges[0] {
			t.Fatalf("cell %+v keeps a foreign edge slice", k)
		}
	}
}

// TestMergeRejectsSelfAndDuplicate: with hand-over, merging a partial
// twice would count it once, and merging a collector into itself would
// empty it, so both are refused — by MergeAll before any partial is
// touched, and by MergeAllReport as skipped partials.
func TestMergeRejectsSelfAndDuplicate(t *testing.T) {
	one := func(bs int) *Collector {
		c, err := NewCollector(2)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Observe(netsim.Session{Service: 1, BS: bs, Minute: 3, Volume: 1e4, Duration: 8}); err != nil {
			t.Fatal(err)
		}
		return c
	}
	dst, p := one(0), one(1)
	if err := dst.Merge(dst); err == nil || !strings.Contains(err.Error(), "itself") {
		t.Fatalf("self merge: err = %v", err)
	}
	if err := dst.MergeAll([]*Collector{p, p}, 1); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("duplicate merge: err = %v", err)
	}
	if len(dst.Keys()) != 1 || len(p.Keys()) != 1 {
		t.Fatal("a refused merge changed its collectors")
	}
	report, err := dst.MergeAllReport([]*Collector{p, dst, p}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if report.Merged != 1 || report.Skipped != 2 ||
		!strings.Contains(report.Partials[1].Reason, "itself") || !strings.Contains(report.Partials[2].Reason, "twice") {
		t.Fatalf("report %+v", report)
	}
	if st, ok := dst.Get(StatKey{Service: 1, BS: 1}); !ok || st.Sessions != 1 || len(dst.Keys()) != 2 {
		t.Fatal("the partial did not land exactly once")
	}
}
