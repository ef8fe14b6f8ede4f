package probe

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync"

	"mobiletraffic/internal/dist"
	"mobiletraffic/internal/mathx"
	"mobiletraffic/internal/netsim"
	"mobiletraffic/internal/obs"
)

// Default measurement grids. Volumes live on a log10-bytes abscissa
// from 100 B to ~30 GB; durations on a log10-seconds abscissa from 1 s
// to ~28 h, matching the "discretized duration" pairs of §3.2.
var (
	// DefaultVolumeEdges spans log10(bytes) in [2, 10.5] with 0.05-decade bins.
	DefaultVolumeEdges = mathx.LinSpace(2, 10.5, 171)
	// DefaultDurationEdges spans log10(seconds) in [0, 5] with 0.1-decade bins.
	DefaultDurationEdges = mathx.LinSpace(0, 5, 51)
)

// StatKey identifies one (service, BS, day) statistics cell.
type StatKey struct {
	Service int
	BS      int
	Day     int
}

// DayStats holds the privacy-preserving aggregate the operator exports
// per (service, BS, day) tuple (§3.2): per-minute session counts
// w^{c,m}, the traffic volume PDF F^{c,t}, and duration-volume pairs
// v^{c,t}(d).
type DayStats struct {
	// MinuteCounts[m] is the number of sessions established in minute m.
	// The counts are exact integers, so they are held as int32, half
	// the bytes of float64: they are 84 % of a cell's values. Readers
	// that sum them in float64 get the same bits either way. A
	// count must stay below 2^31, which one minute of one service at
	// one BS is far from.
	MinuteCounts []int32
	// Sessions is the daily total w^{c,t}.
	Sessions float64
	// Volume is the histogram of per-session log10 traffic volume. Its
	// Edges are shared with the owning Collector and must not be
	// mutated.
	Volume *dist.Hist
	// DurVolSum[i] and DurCount[i] accumulate volume and session count
	// per duration bin, so DurVolSum[i]/DurCount[i] is v(d_i).
	DurVolSum, DurCount []float64
}

// PairValues returns the mean volume per duration bin (NaN for empty
// bins): the v^{c,t}_s(d) value pairs.
func (d *DayStats) PairValues() []float64 {
	out := make([]float64, len(d.DurVolSum))
	for i := range out {
		if d.DurCount[i] > 0 {
			out[i] = d.DurVolSum[i] / d.DurCount[i]
		} else {
			out[i] = math.NaN()
		}
	}
	return out
}

// binner maps a linear value x onto a log10 edge grid with the
// semantics of dist.Hist.BinIndex(Log10(Max(x, 1))): values outside the
// grid clamp into the boundary bins and the right-most edge belongs to
// the last bin. Log10 is monotone, so that bin is the number of
// interior linear thresholds linThr(edges[1..n-1]) at or below x, and
// no log is taken. Non-negative float64s order like their bit patterns,
// so the binner compares bits, as int64s: a value with the sign bit set
// (negative, -0) is below every threshold, and the table gives it the
// bin of +0, as Log10(Max(x, 1)) does.
//
// The count comes from a table keyed by the top bits of x,
// Float64bits(x) >> shift. tab[k] is the bin of the smallest value of
// key cell lo+k, for the cells from the one below the first interior
// threshold's to the one above the last's; keys outside clamp to those
// ends without a branch. A walk over the next thresholds finishes the
// count. The shift keeps 6 mantissa bits, and more until no cell holds
// two thresholds, within a 64k-entry table. The walk is then one
// compare and at most one step: a value steps only when its cell holds
// a threshold at or below it, about one volume in 20 and one duration
// in 50 of the sampler's sessions on the default grids, so its branch
// predicts well. On a grid no table separates — thresholds closer than
// the finest cell, or bins past the 65 535 an entry holds — the walk
// may take more steps, never a wrong bin.
type binner struct {
	// upper[j] is the bit pattern of linThr(edges[j+1]), the threshold
	// that ends bin j; upper[n-1] = MaxInt64 ends the last bin past
	// every value.
	upper []int64
	tab   []uint16
	shift uint
	lo    int // key of tab[0]
	top   int // len(tab) - 1
}

// Table sizing: keys keep 6 mantissa bits, and finer keys are tried
// until the thresholds fall in distinct cells or the table would exceed
// maxBinTable entries. Coarser keys keep a table within it whose
// thresholds span too many octaves for 6 bits.
const (
	coarsestBinShift = 52 - 6
	maxBinTable      = 1 << 16
)

// newBinner returns the binner of an edge grid. A grid equal by value
// to a default one — every collector's, and every checkpoint's own copy
// of it — shares the binner built once per process, which collectors
// only read.
func newBinner(edges []float64) binner {
	for _, d := range defaultBinners() {
		if slices.Equal(edges, d.edges) {
			return d.b
		}
	}
	return buildBinner(edges)
}

// defaultBinners holds the binners of the default grids, built on first
// use from a snapshot of their values.
var defaultBinners = sync.OnceValue(func() []gridBinner {
	var out []gridBinner
	for _, edges := range [][]float64{DefaultVolumeEdges, DefaultDurationEdges} {
		edges = slices.Clone(edges)
		out = append(out, gridBinner{edges, buildBinner(edges)})
	}
	return out
})

// gridBinner pairs a grid with its binner.
type gridBinner struct {
	edges []float64
	b     binner
}

// buildBinner computes the thresholds and table of a grid.
func buildBinner(edges []float64) binner {
	n := len(edges) - 1
	b := binner{upper: make([]int64, n)}
	for j := range n - 1 {
		b.upper[j] = int64(math.Float64bits(linThr(edges[j+1])))
	}
	b.upper[n-1] = math.MaxInt64
	inner := b.upper[:n-1]
	var first, last int64
	if n > 1 {
		first, last = inner[0], inner[n-2]
	}
	// cells counts the table entries of a shift: the thresholds' cells
	// and a free one on either side.
	cells := func(s uint) int64 { return last>>s - first>>s + 3 }
	// distinct reports whether no key cell of a shift holds two
	// different thresholds. Equal ones (edges at or below 0 share 0,
	// edges past Log10(MaxFloat64) share +Inf) start a cell at every
	// shift a table can take, so that cell's entry counts them all.
	distinct := func(s uint) bool {
		for j := 1; j < len(inner); j++ {
			if inner[j] != inner[j-1] && inner[j]>>s == inner[j-1]>>s {
				return false
			}
		}
		return true
	}
	s := uint(coarsestBinShift)
	for cells(s) > maxBinTable {
		s++
	}
	for s > 0 && !distinct(s) && cells(s-1) <= maxBinTable {
		s--
	}
	lo := first >> s
	lo -= min(lo, 1)
	b.tab = make([]uint16, cells(s))
	j := 0
	for k := range b.tab {
		for j < len(inner) && inner[j] <= (lo+int64(k))<<s {
			j++
		}
		b.tab[k] = uint16(min(j, math.MaxUint16))
	}
	b.shift, b.lo, b.top = s, int(lo), len(b.tab)-1
	return b
}

// linThr returns the smallest non-negative float64 x satisfying
// Log10(Max(x, 1)) >= e, found by bisecting the float bit ordering
// (non-negative float64s compare exactly like their bit patterns).
// Comparing a linear value v against these thresholds bins it exactly
// as binning Log10(Max(v, 1)) against the log-space edges would —
// Log10 is monotone, so {v : Log10(Max(v,1)) >= e} is [thr, inf) —
// without a per-sample transcendental call. The oracle property test
// pins the equivalence against the scalar Observe path.
func linThr(e float64) float64 {
	if e <= 0 {
		return 0 // Log10(Max(x,1)) >= 0 for every x
	}
	if math.Log10(math.MaxFloat64) < e {
		return math.Inf(1) // unreachable edge: no finite x qualifies
	}
	lo, hi := uint64(0), math.Float64bits(math.MaxFloat64)
	for lo < hi {
		mid := lo + (hi-lo)/2
		if math.Log10(math.Max(math.Float64frombits(mid), 1)) >= e {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return math.Float64frombits(lo)
}

// bin returns the bin of the linear value x.
func (b *binner) bin(x float64) int {
	v := int64(math.Float64bits(x)) // negative when the sign bit is set
	k := int(v>>(b.shift&63)) - b.lo
	k &^= k >> 63 // below the table, or negative: its first cell
	d := k - b.top
	k -= d &^ (d >> 63) // above the table: its last cell
	j := int(b.tab[k])
	for v >= b.upper[j] {
		j++
	}
	return j
}

// Collector accumulates simulated sessions into the per-(service, BS,
// day) statistics of §3.2.
//
// Cells live in a dense, index-addressed slab: cell (service, bs, day)
// sits at slot (service*numBS+bs)*days+day, so folding a session is a
// bounds check plus an array index (zero allocations once the cell
// exists), iteration is deterministic by construction (ascending
// service, BS, day — no per-aggregation key sort), and merging partial
// collectors is an index-aligned slab walk that shards by service. The
// BS and day dimensions grow geometrically on demand, so callers that
// don't know the campaign extent up front can keep using NewCollector;
// the collection path pre-sizes via NewCollectorSized and never grows.
//
// The measurement grids are fixed at construction; do not mutate
// VolumeEdges or DurationEdges on a live collector.
type Collector struct {
	VolumeEdges   []float64
	DurationEdges []float64
	NumServices   int

	numBS, days int
	cells       []*DayStats // len = NumServices*numBS*days, service-major

	volBinner binner // volume in bytes -> Volume.P index
	durBinner binner // duration in seconds -> DurVolSum/DurCount index

	// obsFlows[svc] counts the sessions folded in per service
	// (probe_flows_tracked_total{service=...}); handles are resolved
	// once at construction so Observe never does a metric lookup, and
	// are nil (free) when instrumentation is disabled.
	obsFlows []*obs.Counter
}

// NewCollector returns a Collector over the default measurement grids.
// The BS/day extent grows on demand as sessions are observed.
func NewCollector(numServices int) (*Collector, error) {
	return NewCollectorSized(numServices, 0, 0)
}

// NewCollectorSized returns a Collector over the default grids with the
// (BS, day) extent pre-sized, so a collection campaign of known shape
// never pays a slab re-layout.
func NewCollectorSized(numServices, numBS, days int) (*Collector, error) {
	return NewCollectorGrids(numServices, numBS, days, DefaultVolumeEdges, DefaultDurationEdges)
}

// NewCollectorGrids returns a Collector over custom measurement grids.
// Both edge sets must be strictly ascending with at least two edges.
func NewCollectorGrids(numServices, numBS, days int, volumeEdges, durationEdges []float64) (*Collector, error) {
	if numServices <= 0 {
		return nil, fmt.Errorf("probe: collector needs >= 1 service, got %d", numServices)
	}
	if numBS < 0 || days < 0 {
		return nil, fmt.Errorf("probe: negative collector extent %dx%d", numBS, days)
	}
	// Validate the grids once here so per-cell histograms can share the
	// edge slices without re-checking.
	if _, err := dist.NewHist(volumeEdges); err != nil {
		return nil, fmt.Errorf("probe: volume grid: %w", err)
	}
	if _, err := dist.NewHist(durationEdges); err != nil {
		return nil, fmt.Errorf("probe: duration grid: %w", err)
	}
	c := &Collector{
		VolumeEdges:   volumeEdges,
		DurationEdges: durationEdges,
		NumServices:   numServices,
		numBS:         numBS,
		days:          days,
		cells:         make([]*DayStats, numServices*numBS*days),
		volBinner:     newBinner(volumeEdges),
		durBinner:     newBinner(durationEdges),
	}
	if obs.Enabled() {
		c.obsFlows = make([]*obs.Counter, numServices)
		for i := range c.obsFlows {
			c.obsFlows[i] = obs.CounterOf("probe_flows_tracked_total",
				"service", "svc"+strconv.Itoa(i))
		}
	}
	return c, nil
}

// idx returns the slab slot of a key; the key must be in range.
func (c *Collector) idx(svc, bs, day int) int {
	return (svc*c.numBS+bs)*c.days + day
}

// ensure grows the slab so (bs, day) is addressable. Growth is
// geometric on both dimensions, so repeated out-of-range observations
// re-layout the slab O(log) times. Growing relocates the slab but not
// the cells, so *DayStats pointers handed out earlier stay valid.
func (c *Collector) ensure(bs, day int) {
	if bs < c.numBS && day < c.days {
		return
	}
	newBS, newDays := c.numBS, c.days
	for newBS <= bs {
		if newBS == 0 {
			newBS = bs + 1
		} else {
			newBS *= 2
		}
	}
	for newDays <= day {
		if newDays == 0 {
			newDays = day + 1
		} else {
			newDays *= 2
		}
	}
	cells := make([]*DayStats, c.NumServices*newBS*newDays)
	for svc := 0; svc < c.NumServices; svc++ {
		for b := 0; b < c.numBS; b++ {
			copy(cells[(svc*newBS+b)*newDays:], c.cells[(svc*c.numBS+b)*c.days:(svc*c.numBS+b+1)*c.days])
		}
	}
	c.numBS, c.days, c.cells = newBS, newDays, cells
}

// cellBlock is the single allocation behind a cell's header, volume
// histogram header and integer minute counts.
type cellBlock struct {
	st      DayStats
	hist    dist.Hist
	minutes [netsim.MinutesPerDay]int32
}

// newCell allocates one statistics cell in two blocks: the headers with
// the minute counts, and one float64 slab shared by the volume
// histogram and the duration-binned accumulators, whose length depends
// on the grids. The volume histogram shares the collector's edge slice.
func (c *Collector) newCell() *DayStats {
	nv := len(c.VolumeEdges) - 1
	nd := len(c.DurationEdges) - 1
	buf := make([]float64, nv+2*nd)
	vp, rest := buf[:nv:nv], buf[nv:]
	dv, dc := rest[:nd:nd], rest[nd:nd+nd:nd+nd]
	b := &cellBlock{}
	b.hist = dist.Hist{Edges: c.VolumeEdges, P: vp}
	b.st = DayStats{
		MinuteCounts: b.minutes[:],
		Volume:       &b.hist,
		DurVolSum:    dv,
		DurCount:     dc,
	}
	return &b.st
}

// cell returns the statistics cell for a key, creating it if needed.
func (c *Collector) cell(key StatKey) *DayStats {
	c.ensure(key.BS, key.Day)
	i := c.idx(key.Service, key.BS, key.Day)
	st := c.cells[i]
	if st == nil {
		st = c.newCell()
		c.cells[i] = st
	}
	return st
}

// durBin maps a duration in seconds to its log-spaced bin index.
func (c *Collector) durBin(duration float64) int {
	return c.durBinner.bin(duration)
}

// maxVolume bounds a session volume in bytes. A cell holds fewer than
// 2^53 sessions (the checkpoint's bound on a count), so volumes below
// 2^960 can never sum to +Inf in a duration-volume sum, which no
// checkpoint could carry.
const maxVolume = 0x1p960

// validValues reports whether a session's volume and duration can be
// folded: a volume in [0, maxVolume), and a finite duration, the one
// kind of value whose difference with itself is 0 (one compare, where
// IsFinite takes three).
func validValues(volume, duration float64) bool {
	return volume >= 0 && volume < maxVolume && duration-duration == 0
}

func valuesError(volume, duration float64) error {
	return fmt.Errorf("probe: session volume %v must be in [0, %v) and duration %v finite", volume, maxVolume, duration)
}

// Observe folds one session into the statistics. In steady state (cell
// already touched) it performs no allocations. A session with a
// non-finite volume or duration is rejected: it has no histogram bin,
// and it would poison the cell's duration-volume sums. So is a negative
// volume or one of maxVolume or more, which would leave a
// duration-volume sum no checkpoint can carry. A negative duration
// bins with the shortest ones.
func (c *Collector) Observe(s netsim.Session) error {
	if s.Service < 0 || s.Service >= c.NumServices {
		return fmt.Errorf("probe: session service %d out of range [0, %d)", s.Service, c.NumServices)
	}
	if s.Minute < 0 || s.Minute >= netsim.MinutesPerDay {
		return fmt.Errorf("probe: session minute %d out of range", s.Minute)
	}
	if !validValues(s.Volume, s.Duration) {
		return valuesError(s.Volume, s.Duration)
	}
	if s.BS < 0 || s.Day < 0 {
		return fmt.Errorf("probe: session cell (%d, %d) out of range", s.BS, s.Day)
	}
	var st *DayStats
	if s.BS < c.numBS && s.Day < c.days {
		i := c.idx(s.Service, s.BS, s.Day)
		if st = c.cells[i]; st == nil {
			st = c.newCell()
			c.cells[i] = st
		}
	} else {
		st = c.cell(StatKey{Service: s.Service, BS: s.BS, Day: s.Day})
	}
	st.MinuteCounts[s.Minute]++
	st.Sessions++
	st.Volume.P[c.volBinner.bin(s.Volume)]++
	bin := c.durBin(s.Duration)
	st.DurVolSum[bin] += s.Volume
	st.DurCount[bin]++
	if c.obsFlows != nil {
		c.obsFlows[s.Service].Inc()
	}
	return nil
}

// ObserveColumns folds one (BS, day) of columnar sessions — the
// Minute/Svc/Volume/Duration columns of a netsim.DayColumns — into the
// statistics. It is the columnar counterpart of Observe with the
// per-session overhead hoisted out of the loop: the slab is grown
// once, the cell address is an index computation off a precomputed
// base, and each value is binned by one table lookup and, on the
// default grids, one compare on its float bits (see binner), with no
// log taken. When the columns carry the sampler's
// by-service grouping (SvcSeg/ByService/Slot, with the value columns
// in grouped order), the fold runs one service segment at a time:
// exactly one cell's accumulators are hot while its sessions fold, and
// the volume/duration reads stream a contiguous segment. Without a
// grouping (fault-filtered columns re-map services and emit session
// order) every session resolves its cell individually. Either way the
// statistics are cell-for-cell identical to observing the same
// sessions one by one in column order
// (TestObserveColumnsMatchesScalarOracle) — including the
// floating-point accumulation order, since sessions of one cell fold
// in the same relative order under the stable grouping.
//
// The grouping is trusted to describe Svc and the value-column layout
// (netsim maintains both); ObserveColumns verifies only its structural
// invariants and falls back to the ungrouped fold when they do not
// hold. Every session is validated as Observe validates it, up front:
// nothing is folded when any session is invalid.
//
// Concurrent calls are safe for distinct bs inside the collector's
// extent: the slab is then never grown, each call writes only the cells
// of its own bs, and the flow counters are atomic. The collection path
// folds disjoint base stations from every worker into one collector
// pre-sized by NewCollectorSized this way. Calls that may grow the slab
// (bs or day outside the extent) must not run concurrently with any
// other use of the collector.
func (c *Collector) ObserveColumns(bs, day int, cols *netsim.DayColumns) error {
	if cols == nil {
		return fmt.Errorf("probe: nil DayColumns")
	}
	minute, svc := cols.Minute, cols.Svc
	volume, duration := cols.Volume, cols.Duration
	n := len(minute)
	if len(svc) != n || len(volume) != n || len(duration) != n {
		return fmt.Errorf("probe: column lengths differ (minute %d, svc %d, volume %d, duration %d)",
			n, len(svc), len(volume), len(duration))
	}
	if bs < 0 || day < 0 {
		return fmt.Errorf("probe: session cell (%d, %d) out of range", bs, day)
	}
	// A grouped minute column (MinuteG) makes every fold read
	// sequential — that path needs only the segment offsets, not the
	// per-slot ByService scan. Without MinuteG the fold gathers minutes
	// through the grouping, which is then validated in full. One pass
	// validates every column the fold reads; unsigned compares reject
	// negative values too.
	seg, by, mg := cols.SvcSeg, cols.ByService, cols.MinuteG
	useSeq := len(mg) == n && len(by) == n && len(cols.Slot) == n && c.segValid(seg, n)
	if !useSeq {
		mg = minute
	}
	svc, mg, volume, duration = svc[:n], mg[:n], volume[:n], duration[:n]
	nSvc := uint32(c.NumServices)
	for i := range n {
		if uint32(svc[i]) >= nSvc {
			return fmt.Errorf("probe: session service %d out of range [0, %d)", svc[i], c.NumServices)
		}
		if uint32(minute[i]) >= netsim.MinutesPerDay {
			return fmt.Errorf("probe: session minute %d out of range", minute[i])
		}
		if uint32(mg[i]) >= netsim.MinutesPerDay {
			return fmt.Errorf("probe: grouped session minute %d out of range", mg[i])
		}
		if !validValues(volume[i], duration[i]) {
			return valuesError(volume[i], duration[i])
		}
	}
	if n == 0 {
		return nil
	}
	c.ensure(bs, day)
	base := bs*c.days + day
	stride := c.numBS * c.days
	cells := c.cells

	if useSeq || c.groupingValid(seg, by, n) {
		for sv := 0; sv < c.NumServices; sv++ {
			lo, hi := int(seg[sv]), int(seg[sv+1])
			if lo == hi {
				continue
			}
			slot := sv*stride + base
			st := cells[slot]
			if st == nil {
				st = c.newCell()
				cells[slot] = st
			}
			// One float64 += per session and an integer-valued start
			// keep the sum exact, so the bulk add equals n increments.
			st.Sessions += float64(hi - lo)
			if useSeq {
				c.foldCellSeq(st, mg[lo:hi], volume[lo:hi], duration[lo:hi])
			} else {
				c.foldCell(st, by[lo:hi], minute, volume[lo:hi], duration[lo:hi])
			}
			if c.obsFlows != nil {
				c.obsFlows[sv].Add(int64(hi - lo))
			}
		}
		return nil
	}

	vb, db := &c.volBinner, &c.durBinner
	for i := 0; i < n; i++ {
		slot := int(svc[i])*stride + base
		st := cells[slot]
		if st == nil {
			st = c.newCell()
			cells[slot] = st
		}
		st.MinuteCounts[minute[i]]++
		st.Sessions++
		v := volume[i]
		st.Volume.P[vb.bin(v)]++
		d := db.bin(duration[i])
		st.DurVolSum[d] += v
		st.DurCount[d]++
	}
	if c.obsFlows != nil {
		// One Add per touched service instead of one per session. The
		// tally lives on the stack for catalogs of up to 64 services,
		// so concurrent calls share no scratch and allocate nothing.
		var local [64]int64
		counts := local[:]
		if c.NumServices <= len(local) {
			counts = local[:c.NumServices]
		} else {
			counts = make([]int64, c.NumServices)
		}
		for i := 0; i < n; i++ {
			counts[svc[i]]++
		}
		for s, k := range counts {
			if k != 0 {
				c.obsFlows[s].Add(k)
			}
		}
	}
	return nil
}

// groupingValid checks the structural invariants of a by-service
// grouping over n sessions: one segment per collector service, offsets
// monotone from 0 to n, and every grouped slot holding an in-range
// session index. Content consistency (Svc[ByService[g]] matching the
// segment's service, value columns stored in grouped order) is the
// producer's contract, pinned by the oracle property tests rather than
// re-verified per fold.
func (c *Collector) groupingValid(seg, by []int32, n int) bool {
	if !c.segValid(seg, n) || len(by) != n {
		return false
	}
	for _, g := range by {
		if g < 0 || int(g) >= n {
			return false
		}
	}
	return true
}

// segValid checks the segment-offset invariants alone: one segment per
// collector service, offsets monotone from 0 to n. The grouped-minute
// fold path needs only these (it never indexes through ByService), so
// it skips the per-slot scan of groupingValid.
func (c *Collector) segValid(seg []int32, n int) bool {
	if len(seg) != c.NumServices+1 {
		return false
	}
	if seg[0] != 0 || int(seg[len(seg)-1]) != n {
		return false
	}
	for i := 1; i < len(seg); i++ {
		if seg[i] < seg[i-1] {
			return false
		}
	}
	return true
}

// foldCellSeq folds one service segment whose minute, volume and
// duration slices are all in grouped order — every read streams
// sequentially, no gather. Accumulation order and binning are
// identical to foldCell (same sessions, same relative order under the
// stable grouping).
func (c *Collector) foldCellSeq(st *DayStats, minute []int32, volume, duration []float64) {
	mc := st.MinuteCounts
	vp, dv, dc := st.Volume.P, st.DurVolSum, st.DurCount
	vb, db := &c.volBinner, &c.durBinner
	volume = volume[:len(minute)]
	duration = duration[:len(minute)]
	for k, m := range minute {
		mc[m]++
		v := volume[k]
		vp[vb.bin(v)]++
		d := db.bin(duration[k])
		dv[d] += v
		dc[d]++
	}
}

// foldCell folds one grouped segment into a single cell's accumulators
// — MinuteCounts, volume histogram and duration-binned sums all stay
// cache-hot across the whole segment. seg holds the segment's session
// indices (for the minute lookup); volume and duration are the
// segment's contiguous slices of the grouped value columns, streamed
// sequentially.
func (c *Collector) foldCell(st *DayStats, seg, minute []int32, volume, duration []float64) {
	mc := st.MinuteCounts
	vp, dv, dc := st.Volume.P, st.DurVolSum, st.DurCount
	vb, db := &c.volBinner, &c.durBinner
	volume = volume[:len(seg)]
	duration = duration[:len(seg)]
	for k, g := range seg {
		mc[minute[g]]++
		v := volume[k]
		vp[vb.bin(v)]++
		d := db.bin(duration[k])
		dv[d] += v
		dc[d]++
	}
}

// TotalSessions returns the number of sessions observed across every
// statistics cell — the campaign's grand total w, used e.g. to gauge
// how much of a workload survived an injected-fault run.
func (c *Collector) TotalSessions() float64 {
	var total float64
	for _, st := range c.cells {
		if st != nil {
			total += st.Sessions
		}
	}
	return total
}

// Get returns the statistics cell for a key, if present.
func (c *Collector) Get(key StatKey) (*DayStats, bool) {
	if key.Service < 0 || key.Service >= c.NumServices ||
		key.BS < 0 || key.BS >= c.numBS || key.Day < 0 || key.Day >= c.days {
		return nil, false
	}
	st := c.cells[c.idx(key.Service, key.BS, key.Day)]
	return st, st != nil
}

// Keys returns every populated (service, BS, day) key in deterministic
// ascending (service, BS, day) order — the iteration order of every
// aggregation, by construction of the dense slab.
func (c *Collector) Keys() []StatKey {
	var out []StatKey
	c.forEachCell(nil, func(k StatKey, _ *DayStats) {
		out = append(out, k)
	})
	return out
}

// forEachCell visits every populated cell passing the filter in
// ascending (service, BS, day) order. Every aggregation iterates this
// way so that floating-point summation — and therefore every fitted
// parameter — is reproducible run to run regardless of the parallelism
// of collection.
func (c *Collector) forEachCell(filter KeyFilter, fn func(k StatKey, st *DayStats)) {
	i := 0
	for svc := 0; svc < c.NumServices; svc++ {
		for bs := 0; bs < c.numBS; bs++ {
			for day := 0; day < c.days; day++ {
				st := c.cells[i]
				i++
				if st == nil {
					continue
				}
				k := StatKey{Service: svc, BS: bs, Day: day}
				if filter != nil && !filter(k) {
					continue
				}
				fn(k, st)
			}
		}
	}
}
