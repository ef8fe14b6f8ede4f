package probe

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"sync"
	"testing"

	"mobiletraffic/internal/dist"
	"mobiletraffic/internal/faults"
	"mobiletraffic/internal/mathx"
	"mobiletraffic/internal/netsim"
	"mobiletraffic/internal/obs"
)

// mapOracle is a reference implementation of the Collector over a plain
// map — the pre-dense-store layout — binning through dist.Hist.BinIndex
// and aggregating through the textbook clone→normalize→MixHists
// formulation. The property tests replay random session streams into
// both stores and require bitwise-identical aggregates.
type mapOracle struct {
	numSvc   int
	volEdges []float64
	durEdges []float64
	cells    map[StatKey]*DayStats
}

func newMapOracle(numSvc int, volEdges, durEdges []float64) *mapOracle {
	return &mapOracle{numSvc: numSvc, volEdges: volEdges, durEdges: durEdges, cells: map[StatKey]*DayStats{}}
}

func (o *mapOracle) observe(s netsim.Session) {
	k := StatKey{Service: s.Service, BS: s.BS, Day: s.Day}
	st := o.cells[k]
	if st == nil {
		vol, _ := dist.NewHist(o.volEdges)
		nd := len(o.durEdges) - 1
		st = &DayStats{
			MinuteCounts: make([]int32, netsim.MinutesPerDay),
			Volume:       vol,
			DurVolSum:    make([]float64, nd),
			DurCount:     make([]float64, nd),
		}
		o.cells[k] = st
	}
	st.MinuteCounts[s.Minute]++
	st.Sessions++
	st.Volume.Add(math.Log10(math.Max(s.Volume, 1)), 1)
	ref := dist.Hist{Edges: o.durEdges, P: make([]float64, len(o.durEdges)-1)}
	bin := ref.BinIndex(math.Log10(math.Max(s.Duration, 1)))
	st.DurVolSum[bin] += s.Volume
	st.DurCount[bin]++
}

// sortedKeys returns the oracle's keys in ascending (service, BS, day)
// order — the iteration order the dense slab guarantees by construction.
func (o *mapOracle) sortedKeys() []StatKey {
	out := make([]StatKey, 0, len(o.cells))
	for k := range o.cells {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Service != b.Service {
			return a.Service < b.Service
		}
		if a.BS != b.BS {
			return a.BS < b.BS
		}
		return a.Day < b.Day
	})
	return out
}

// aggregateVolume is the reference Eq. (2) mixture: per-cell clones
// normalized and mixed with session-count weights via dist.MixHists.
func (o *mapOracle) aggregateVolume(filter KeyFilter) (*dist.Hist, float64, bool) {
	var hists []*dist.Hist
	var weights []float64
	for _, k := range o.sortedKeys() {
		if filter != nil && !filter(k) {
			continue
		}
		st := o.cells[k]
		if st.Sessions <= 0 || st.Volume.Total() <= 0 {
			continue
		}
		h := st.Volume.Clone()
		if err := h.Normalize(); err != nil {
			continue
		}
		hists = append(hists, h)
		weights = append(weights, st.Sessions)
	}
	if len(hists) == 0 {
		return nil, 0, false
	}
	mixed, err := dist.MixHists(hists, weights)
	if err != nil {
		return nil, 0, false
	}
	return mixed, mathx.Sum(weights), true
}

func (o *mapOracle) aggregatePairs(filter KeyFilter) (values, counts []float64, ok bool) {
	n := len(o.durEdges) - 1
	sum := make([]float64, n)
	cnt := make([]float64, n)
	for _, k := range o.sortedKeys() {
		if filter != nil && !filter(k) {
			continue
		}
		ok = true
		st := o.cells[k]
		for i := 0; i < n; i++ {
			sum[i] += st.DurVolSum[i]
			cnt[i] += st.DurCount[i]
		}
	}
	values = make([]float64, n)
	for i := range values {
		if cnt[i] > 0 {
			values[i] = sum[i] / cnt[i]
		} else {
			values[i] = math.NaN()
		}
	}
	return values, cnt, ok
}

// sessionShare replicates the share/CV math over the sorted key order.
func (o *mapOracle) sessionShare(filter KeyFilter) (share, cv []float64, ok bool) {
	type bd struct{ bs, day int }
	perCell := map[bd][]float64{}
	totals := make([]float64, o.numSvc)
	var grand float64
	for _, k := range o.sortedKeys() {
		if filter != nil && !filter(k) {
			continue
		}
		st := o.cells[k]
		ci := bd{k.BS, k.Day}
		if perCell[ci] == nil {
			perCell[ci] = make([]float64, o.numSvc)
		}
		perCell[ci][k.Service] += st.Sessions
		totals[k.Service] += st.Sessions
		grand += st.Sessions
	}
	if grand <= 0 {
		return nil, nil, false
	}
	share = make([]float64, o.numSvc)
	for s := range share {
		share[s] = totals[s] / grand
	}
	cells := make([]bd, 0, len(perCell))
	for ci := range perCell {
		cells = append(cells, ci)
	}
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].bs != cells[j].bs {
			return cells[i].bs < cells[j].bs
		}
		return cells[i].day < cells[j].day
	})
	cv = make([]float64, o.numSvc)
	for s := 0; s < o.numSvc; s++ {
		var vals []float64
		for _, ci := range cells {
			counts := perCell[ci]
			var cellTotal float64
			for _, v := range counts {
				cellTotal += v
			}
			if cellTotal > 0 {
				vals = append(vals, counts[s]/cellTotal)
			}
		}
		if len(vals) > 1 && mathx.Mean(vals) > 0 {
			cv[s] = mathx.Std(vals) / mathx.Mean(vals)
		}
	}
	return share, cv, true
}

// requireOracleCells asserts that a collector holds exactly the
// oracle's cells, bit for bit, in the same key order.
func requireOracleCells(t *testing.T, label string, c *Collector, o *mapOracle) {
	t.Helper()
	wantKeys := o.sortedKeys()
	gotKeys := c.Keys()
	if !slices.Equal(gotKeys, wantKeys) {
		t.Fatalf("%s: keys %v, oracle has %v", label, gotKeys, wantKeys)
	}
	for _, k := range wantKeys {
		got, _ := c.Get(k)
		want := o.cells[k]
		if got.Sessions != want.Sessions ||
			!slices.Equal(got.MinuteCounts, want.MinuteCounts) ||
			!equalFloats(got.Volume.P, want.Volume.P) ||
			!equalFloats(got.DurVolSum, want.DurVolSum) ||
			!equalFloats(got.DurCount, want.DurCount) {
			t.Fatalf("%s: cell %+v differs from oracle", label, k)
		}
	}
}

// randomSessions draws a session stream that exercises clamping below
// and above both measurement grids and lands some volumes exactly on
// bin edges.
func randomSessions(rng *rand.Rand, n, numSvc, numBS, days int) []netsim.Session {
	out := make([]netsim.Session, n)
	for i := range out {
		vol := math.Pow(10, 1+10*rng.Float64()) // spans below/above the [2, 10.5] grid
		if rng.Intn(10) == 0 {
			// Exactly on a bin edge: the table binner and BinIndex must
			// agree on boundary ownership.
			edges := DefaultVolumeEdges
			vol = math.Pow(10, edges[rng.Intn(len(edges))])
		}
		dur := math.Pow(10, -1+7*rng.Float64()) // spans below/above the [0, 5] grid
		out[i] = netsim.Session{
			BS:       rng.Intn(numBS),
			Service:  rng.Intn(numSvc),
			Day:      rng.Intn(days),
			Minute:   rng.Intn(netsim.MinutesPerDay),
			Duration: dur,
			Volume:   vol,
		}
	}
	return out
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] && !(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
			return false
		}
	}
	return true
}

// TestDenseCollectorMatchesMapOracle replays randomized session streams
// into the dense collector and the map-backed oracle and requires every
// aggregate — totals, keys, volume mixtures, pair sums, shares — to be
// bitwise identical. This pins the dense store to the semantics of the
// formulation it replaced.
func TestDenseCollectorMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 5; trial++ {
		numSvc := 1 + rng.Intn(5)
		numBS := 1 + rng.Intn(7)
		days := 1 + rng.Intn(4)
		sessions := randomSessions(rng, 2000, numSvc, numBS, days)

		// Half the trials pre-size, half grow on demand.
		var c *Collector
		var err error
		if trial%2 == 0 {
			c, err = NewCollectorSized(numSvc, numBS, days)
		} else {
			c, err = NewCollector(numSvc)
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range sessions {
			if err := c.Observe(s); err != nil {
				t.Fatal(err)
			}
		}
		o := newMapOracle(numSvc, c.VolumeEdges, c.DurationEdges)
		for _, s := range sessions {
			o.observe(s)
		}

		if got, want := c.TotalSessions(), float64(len(sessions)); got != want {
			t.Fatalf("trial %d: TotalSessions = %v, want %v", trial, got, want)
		}
		requireOracleCells(t, "trial "+strconv.Itoa(trial), c, o)

		filters := map[string]KeyFilter{
			"nil":      nil,
			"svc0":     ForService(0),
			"weekdays": Weekdays(),
			"bs0":      BSIn([]int{0}),
		}
		for name, f := range filters {
			wantH, wantW, wantOK := o.aggregateVolume(f)
			gotH, gotW, err := c.AggregateVolume(f)
			if (err == nil) != wantOK {
				t.Fatalf("trial %d %s: AggregateVolume err = %v, oracle ok = %v", trial, name, err, wantOK)
			}
			if wantOK {
				if gotW != wantW {
					t.Fatalf("trial %d %s: weight %v, oracle %v", trial, name, gotW, wantW)
				}
				if !equalFloats(gotH.P, wantH.P) {
					t.Fatalf("trial %d %s: AggregateVolume PDF differs from oracle", trial, name)
				}
			}

			wantV, wantC, wantOK := o.aggregatePairs(f)
			gotV, gotC, err := c.AggregatePairs(f)
			if (err == nil) != wantOK {
				t.Fatalf("trial %d %s: AggregatePairs err = %v, oracle ok = %v", trial, name, err, wantOK)
			}
			if wantOK && (!equalFloats(gotV, wantV) || !equalFloats(gotC, wantC)) {
				t.Fatalf("trial %d %s: AggregatePairs differs from oracle", trial, name)
			}

			wantS, wantCV, wantOK := o.sessionShare(f)
			gotS, gotCV, err := c.SessionShare(f)
			if (err == nil) != wantOK {
				t.Fatalf("trial %d %s: SessionShare err = %v, oracle ok = %v", trial, name, err, wantOK)
			}
			if wantOK && (!equalFloats(gotS, wantS) || !equalFloats(gotCV, wantCV)) {
				t.Fatalf("trial %d %s: SessionShare differs from oracle", trial, name)
			}
		}
	}
}

// TestDurBinNonUniformEdges is the regression test for duration binning
// on non-uniform grids: the collector must place every duration in the
// bin dist.Hist.BinIndex assigns, not the bin a uniform-width formula
// would guess.
func TestDurBinNonUniformEdges(t *testing.T) {
	durEdges := []float64{0, 0.3, 1, 2.5, 5} // log10 seconds, deliberately non-uniform
	c, err := NewCollectorGrids(1, 1, 1, DefaultVolumeEdges, durEdges)
	if err != nil {
		t.Fatal(err)
	}
	ref := dist.Hist{Edges: durEdges, P: make([]float64, len(durEdges)-1)}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		logDur := -0.5 + 6*rng.Float64()
		if i%10 == 0 {
			logDur = durEdges[rng.Intn(len(durEdges))] // exactly on an edge
		}
		dur := math.Pow(10, logDur)
		want := ref.BinIndex(math.Log10(math.Max(dur, 1)))
		if got := c.durBin(dur); got != want {
			t.Fatalf("durBin(%v) = %d, BinIndex says %d", dur, got, want)
		}
	}
	// End to end: a 100 s session (log10 = 2) must land in bin 2 of the
	// non-uniform grid; a uniform-width guess over [0, 5] with 4 bins
	// would put it in bin 1.
	if err := c.Observe(netsim.Session{Duration: 100, Volume: 1e6}); err != nil {
		t.Fatal(err)
	}
	st, ok := c.Get(StatKey{})
	if !ok || st.DurCount[2] != 1 {
		t.Fatalf("100 s session mis-binned: DurCount = %v", st.DurCount)
	}
}

// TestObserveZeroAllocs pins the steady-state Observe cost: once a cell
// exists, folding a session must not allocate.
func TestObserveZeroAllocs(t *testing.T) {
	c, err := NewCollectorSized(2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := netsim.Session{BS: 1, Service: 1, Day: 1, Minute: 30, Duration: 12, Volume: 1e6}
	if err := c.Observe(s); err != nil { // touch the cell
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if err := c.Observe(s); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Observe allocates %v times per session in steady state, want 0", allocs)
	}
}

// replayColumnsScalar folds one (BS, day) of columnar sessions into a
// collector one session at a time through the scalar Observe path —
// the reference formulation ObserveColumns must match cell for cell.
// Value columns are read through the grouped slot map when the
// grouping is populated, exactly as netsim materializes sessions.
func replayColumnsScalar(t *testing.T, c *Collector, bs, day, numSvc int, cols *netsim.DayColumns) {
	t.Helper()
	grouped := cols.Grouped(numSvc)
	for i := 0; i < cols.N(); i++ {
		g := i
		if grouped {
			g = int(cols.Slot[i])
		}
		s := netsim.Session{
			BS:       bs,
			Day:      day,
			Service:  int(cols.Svc[i]),
			Minute:   int(cols.Minute[i]),
			Volume:   cols.Volume[g],
			Duration: cols.Duration[g],
		}
		if err := c.Observe(s); err != nil {
			t.Fatal(err)
		}
	}
}

// requireCellsEqual asserts two collectors hold bitwise-identical
// statistics: same keys, and per cell the same session count, minute
// counts, volume histogram and duration-binned accumulators.
func requireCellsEqual(t *testing.T, label string, got, want *Collector) {
	t.Helper()
	if g, w := got.TotalSessions(), want.TotalSessions(); g != w {
		t.Fatalf("%s: TotalSessions = %v, scalar replay %v", label, g, w)
	}
	gotKeys, wantKeys := got.Keys(), want.Keys()
	if len(gotKeys) != len(wantKeys) {
		t.Fatalf("%s: %d cells, scalar replay %d", label, len(gotKeys), len(wantKeys))
	}
	for i, k := range wantKeys {
		if gotKeys[i] != k {
			t.Fatalf("%s: key %d = %+v, scalar replay %+v", label, i, gotKeys[i], k)
		}
		g, _ := got.Get(k)
		w, _ := want.Get(k)
		if g.Sessions != w.Sessions ||
			!slices.Equal(g.MinuteCounts, w.MinuteCounts) ||
			!equalFloats(g.Volume.P, w.Volume.P) ||
			!equalFloats(g.DurVolSum, w.DurVolSum) ||
			!equalFloats(g.DurCount, w.DurCount) {
			t.Fatalf("%s: cell %+v differs from scalar replay", label, k)
		}
	}
}

// newOracleSim builds a small simulator whose columnar output (with
// mobility truncation and the by-service grouping) drives the
// ObserveColumns oracle tests.
func newOracleSim(t *testing.T, numBS, days int, seed int64) *netsim.Simulator {
	t.Helper()
	topo, err := netsim.NewTopology(netsim.TopologyConfig{NumBS: numBS, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := netsim.NewSimulator(topo, netsim.SimConfig{Days: days, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

// TestObserveColumnsMatchesScalarOracle replays every (BS, day) column
// of a small campaign through ObserveColumns and, session by session,
// through the scalar Observe path, and requires the resulting
// statistics to be cell-for-cell bitwise identical — the contract that
// lets the columnar ingest replace the scalar fold. Covers the grouped
// fast path (sampler columns carry SvcSeg/ByService/Slot/MinuteG) on
// the default uniform grids.
func TestObserveColumnsMatchesScalarOracle(t *testing.T) {
	const numBS, days = 10, 2
	sim := newOracleSim(t, numBS, days, 17)
	numSvc := len(sim.Services)
	colsColl, err := NewCollectorSized(numSvc, numBS, days)
	if err != nil {
		t.Fatal(err)
	}
	scalColl, err := NewCollectorSized(numSvc, numBS, days)
	if err != nil {
		t.Fatal(err)
	}
	var cols netsim.DayColumns
	for bs := 0; bs < numBS; bs++ {
		for day := 0; day < days; day++ {
			if err := sim.SampleDayColumns(bs, day, &cols); err != nil {
				t.Fatal(err)
			}
			if !cols.Grouped(numSvc) {
				t.Fatalf("bs %d day %d: sampler columns are not grouped", bs, day)
			}
			if err := colsColl.ObserveColumns(bs, day, &cols); err != nil {
				t.Fatal(err)
			}
			replayColumnsScalar(t, scalColl, bs, day, numSvc, &cols)
		}
	}
	requireCellsEqual(t, "grouped uniform", colsColl, scalColl)
}

// TestObserveColumnsNonUniformGridMatchesScalar repeats the oracle
// comparison on a deliberately non-uniform duration grid, which gets a
// binning table of its own.
func TestObserveColumnsNonUniformGridMatchesScalar(t *testing.T) {
	const numBS, days = 10, 2
	durEdges := []float64{0, 0.3, 1, 2.5, 5} // log10 seconds, non-uniform
	sim := newOracleSim(t, numBS, days, 29)
	numSvc := len(sim.Services)
	colsColl, err := NewCollectorGrids(numSvc, numBS, days, DefaultVolumeEdges, durEdges)
	if err != nil {
		t.Fatal(err)
	}
	scalColl, err := NewCollectorGrids(numSvc, numBS, days, DefaultVolumeEdges, durEdges)
	if err != nil {
		t.Fatal(err)
	}
	var cols netsim.DayColumns
	for bs := 0; bs < numBS; bs++ {
		for day := 0; day < days; day++ {
			if err := sim.SampleDayColumns(bs, day, &cols); err != nil {
				t.Fatal(err)
			}
			if err := colsColl.ObserveColumns(bs, day, &cols); err != nil {
				t.Fatal(err)
			}
			replayColumnsScalar(t, scalColl, bs, day, numSvc, &cols)
		}
	}
	requireCellsEqual(t, "non-uniform grid", colsColl, scalColl)
}

// TestObserveColumnsFaultedMatchesScalar pushes the sampler columns
// through a per-(BS, day) fault stream before collection — once
// columnar (ApplyColumns then ObserveColumns, the collectBS wiring)
// and once scalar (the same deterministic DayStream applied session
// by session into Observe) — and requires identical statistics. The
// faulted columns drop the grouping, so this also exercises the
// session-order ingest path.
func TestObserveColumnsFaultedMatchesScalar(t *testing.T) {
	const numBS, days = 10, 2
	cfg := faults.Config{
		OutageProb: 0.1, TruncatedDayProb: 0.2, FlowLossProb: 0.1,
		FlowDupProb: 0.05, SignalGapProb: 0.05, MisclassProb: 0.05, Seed: 23,
	}
	sim := newOracleSim(t, numBS, days, 31)
	numSvc := len(sim.Services)
	injCols, err := faults.New(cfg, numSvc)
	if err != nil {
		t.Fatal(err)
	}
	injScal, err := faults.New(cfg, numSvc)
	if err != nil {
		t.Fatal(err)
	}
	colsColl, err := NewCollectorSized(numSvc, numBS, days)
	if err != nil {
		t.Fatal(err)
	}
	scalColl, err := NewCollectorSized(numSvc, numBS, days)
	if err != nil {
		t.Fatal(err)
	}
	var cols, faulted netsim.DayColumns
	downDays := 0
	for bs := 0; bs < numBS; bs++ {
		for day := 0; day < days; day++ {
			stream := injCols.Day(bs, day)
			if stream.Down() {
				downDays++
				continue
			}
			if err := sim.SampleDayColumns(bs, day, &cols); err != nil {
				t.Fatal(err)
			}
			stream.ApplyColumns(&cols, &faulted)
			if faulted.Grouped(numSvc) {
				t.Fatalf("bs %d day %d: fault-filtered columns must drop the grouping", bs, day)
			}
			if err := colsColl.ObserveColumns(bs, day, &faulted); err != nil {
				t.Fatal(err)
			}

			// Scalar reference: the same deterministic day stream,
			// applied in session order over the materialized sessions.
			ref := injScal.Day(bs, day)
			grouped := cols.Grouped(numSvc)
			for i := 0; i < cols.N(); i++ {
				g := i
				if grouped {
					g = int(cols.Slot[i])
				}
				s := netsim.Session{
					BS:       bs,
					Day:      day,
					Service:  int(cols.Svc[i]),
					Minute:   int(cols.Minute[i]),
					Volume:   cols.Volume[g],
					Duration: cols.Duration[g],
				}
				ref.Apply(s, func(out netsim.Session) {
					if err := scalColl.Observe(out); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
	if downDays == 0 || downDays == numBS*days {
		t.Fatalf("fault config produced %d down days of %d; the test needs a mix", downDays, numBS*days)
	}
	requireCellsEqual(t, "faulted session-order", colsColl, scalColl)
}

// TestObserveColumnsConcurrentDistinctBS pins ObserveColumns'
// concurrency contract, the one the collection path's shared collector
// rests on: goroutines folding disjoint base stations into one
// pre-sized, instrumented collector must produce the serial fold cell
// for cell, and the flow counters must account for every session. Even
// base stations fold the sampler's grouped columns, odd ones
// fault-filtered (ungrouped) columns, so both ingest paths and the
// per-call flow tally run concurrently. CI's -race run checks that the
// calls share nothing they write.
func TestObserveColumnsConcurrentDistinctBS(t *testing.T) {
	const numBS, days, workers = 10, 2, 4
	old := obs.Default()
	reg := obs.NewRegistry()
	obs.SetDefault(reg)
	t.Cleanup(func() { obs.SetDefault(old) })

	sim := newOracleSim(t, numBS, days, 37)
	numSvc := len(sim.Services)
	fcfg := faults.Config{FlowLossProb: 0.1, FlowDupProb: 0.05, MisclassProb: 0.05, Seed: 41}
	fold := func(c *Collector, inj *faults.Injector, cols, faulted *netsim.DayColumns, bs int) error {
		for day := 0; day < days; day++ {
			if err := sim.SampleDayColumns(bs, day, cols); err != nil {
				return err
			}
			in := cols
			if bs%2 == 1 {
				inj.Day(bs, day).ApplyColumns(cols, faulted)
				in = faulted
			}
			if err := c.ObserveColumns(bs, day, in); err != nil {
				return err
			}
		}
		return nil
	}
	setup := func() (*Collector, *faults.Injector) {
		c, err := NewCollectorSized(numSvc, numBS, days)
		if err != nil {
			t.Fatal(err)
		}
		inj, err := faults.New(fcfg, numSvc)
		if err != nil {
			t.Fatal(err)
		}
		return c, inj
	}
	flows := func() int64 {
		var n int64
		for s := 0; s < numSvc; s++ {
			n += reg.Counter("probe_flows_tracked_total", "service", "svc"+strconv.Itoa(s)).Value()
		}
		return n
	}

	ser, serInj := setup()
	var cols, faulted netsim.DayColumns
	for bs := 0; bs < numBS; bs++ {
		if err := fold(ser, serInj, &cols, &faulted, bs); err != nil {
			t.Fatal(err)
		}
	}
	serFlows := flows()

	par, parInj := setup()
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var cols, faulted netsim.DayColumns
			for bs := w; bs < numBS; bs += workers {
				if err := fold(par, parInj, &cols, &faulted, bs); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	requireCellsEqual(t, "concurrent distinct-BS", par, ser)
	if got, want := flows()-serFlows, int64(par.TotalSessions()); got != want || serFlows != want {
		t.Fatalf("flow counters: serial %d, concurrent %d, want %d sessions each", serFlows, got, want)
	}
}

// TestGridThresholdsMatchBisection keeps the per-edge bisection as the
// oracle of the thresholds the default grids share: every interior
// default edge's shared threshold must equal linThr's bit for bit,
// collectors on copies of the default grids must share thresholds and
// tables, and any other grid must get its own.
func TestGridThresholdsMatchBisection(t *testing.T) {
	for _, edges := range [][]float64{DefaultVolumeEdges, DefaultDurationEdges} {
		upper := newBinner(slices.Clone(edges)).upper
		for j, e := range edges[1 : len(edges)-1] {
			if upper[j] != int64(math.Float64bits(linThr(e))) {
				t.Fatalf("edge %v: shared threshold %v, bisection %v", e, math.Float64frombits(uint64(upper[j])), linThr(e))
			}
		}
	}
	a, err := NewCollector(2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewCollectorGrids(2, 0, 0, slices.Clone(DefaultVolumeEdges), slices.Clone(DefaultDurationEdges))
	if err != nil {
		t.Fatal(err)
	}
	if &a.volBinner.upper[0] != &b.volBinner.upper[0] || &a.durBinner.tab[0] != &b.durBinner.tab[0] {
		t.Fatal("collectors on the default grids do not share thresholds and tables")
	}
	odd := slices.Clone(DefaultDurationEdges)
	odd[1] += 0.05
	upper := newBinner(odd).upper
	if &upper[0] == &a.durBinner.upper[0] || upper[0] != int64(math.Float64bits(linThr(odd[1]))) {
		t.Fatal("a non-default grid did not get its own thresholds")
	}
}
