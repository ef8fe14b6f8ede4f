package probe

import (
	"fmt"
	"math"

	"mobiletraffic/internal/dist"
	"mobiletraffic/internal/mathx"
	"mobiletraffic/internal/netsim"
)

// KeyFilter selects a subset of statistics cells.
type KeyFilter func(StatKey) bool

// ForService returns a filter keeping one service.
func ForService(svc int) KeyFilter { return func(k StatKey) bool { return k.Service == svc } }

// And combines filters conjunctively.
func And(fs ...KeyFilter) KeyFilter {
	return func(k StatKey) bool {
		for _, f := range fs {
			if !f(k) {
				return false
			}
		}
		return true
	}
}

// BSIn returns a filter keeping BSs from the given index set.
func BSIn(idx []int) KeyFilter {
	set := make(map[int]bool, len(idx))
	for _, i := range idx {
		set[i] = true
	}
	return func(k StatKey) bool { return set[k.BS] }
}

// DayIn returns a filter keeping the given days.
func DayIn(days ...int) KeyFilter {
	set := make(map[int]bool, len(days))
	for _, d := range days {
		set[d] = true
	}
	return func(k StatKey) bool { return set[k.Day] }
}

// Weekdays keeps Monday-Friday cells (day 0 = Monday).
func Weekdays() KeyFilter { return func(k StatKey) bool { return !netsim.IsWeekend(k.Day) } }

// Weekends keeps Saturday/Sunday cells.
func Weekends() KeyFilter { return func(k StatKey) bool { return netsim.IsWeekend(k.Day) } }

// AggregateVolume merges the volume PDFs of every cell passing the
// filter via the session-count-weighted mixture of Eq. (2), returning
// the normalized aggregate F_s(x) and the total session weight.
//
// The mixture is accumulated directly from the cell histograms in
// slab order — no per-cell clone or normalization pass — with the same
// floating-point operation order as normalizing each PDF and mixing
// them (dist.MixHists), so results are bit-identical to that
// formulation.
func (c *Collector) AggregateVolume(filter KeyFilter) (*dist.Hist, float64, error) {
	// Pass 1: the total mixture weight (Eq. 2 denominator).
	var total float64
	matched := 0
	c.forEachCell(filter, func(_ StatKey, st *DayStats) {
		if st.Sessions <= 0 || st.Volume.Total() <= 0 {
			return
		}
		total += st.Sessions
		matched++
	})
	if matched == 0 {
		return nil, 0, fmt.Errorf("probe: no cells match the volume aggregation filter")
	}
	// Pass 2: accumulate each cell's normalized PDF at weight w/total.
	mixed, err := dist.NewHist(c.VolumeEdges)
	if err != nil {
		return nil, 0, err
	}
	c.forEachCell(filter, func(_ StatKey, st *DayStats) {
		if st.Sessions <= 0 {
			return
		}
		t := st.Volume.Total()
		if t <= 0 {
			return
		}
		w := st.Sessions / total
		for i, p := range st.Volume.P {
			mixed.P[i] += w * (p / t)
		}
	})
	return mixed, total, nil
}

// AggregatePairs merges duration-volume pairs across cells passing the
// filter via the session-count-weighted average of Eq. (1). It returns
// the mean volume per duration bin (NaN where no sessions fell) and the
// per-bin session counts.
func (c *Collector) AggregatePairs(filter KeyFilter) (values, counts []float64, err error) {
	n := len(c.DurationEdges) - 1
	sum := make([]float64, n)
	cnt := make([]float64, n)
	matched := false
	c.forEachCell(filter, func(_ StatKey, st *DayStats) {
		matched = true
		for i := 0; i < n; i++ {
			sum[i] += st.DurVolSum[i]
			cnt[i] += st.DurCount[i]
		}
	})
	if !matched {
		return nil, nil, fmt.Errorf("probe: no cells match the pair aggregation filter")
	}
	values = make([]float64, n)
	for i := 0; i < n; i++ {
		if cnt[i] > 0 {
			values[i] = sum[i] / cnt[i]
		} else {
			values[i] = math.NaN()
		}
	}
	return values, cnt, nil
}

// MinuteCountSamples gathers the per-minute arrival counts w^{c,m} of
// every cell passing the filter, summed over services minute by minute
// per (BS, day) — the raw samples behind the Fig. 3 arrival PDFs.
// minuteFilter optionally restricts which minutes contribute (e.g.
// netsim.IsPeakMinute).
func (c *Collector) MinuteCountSamples(filter KeyFilter, minuteFilter func(int) bool) []float64 {
	out := c.minuteCountGather(filter, []func(int) bool{minuteFilter})
	if out == nil {
		return nil
	}
	return out[0]
}

// MinuteCountSamplePair gathers two minute-filtered sample vectors
// (e.g. peak and off-peak minutes) over the same cell filter in a
// single accumulation pass, instead of re-summing the per-service
// minute counts once per vector. Each returned slice is bit-identical
// to the corresponding MinuteCountSamples call.
func (c *Collector) MinuteCountSamplePair(filter KeyFilter, fa, fb func(int) bool) (a, b []float64) {
	out := c.minuteCountGather(filter, []func(int) bool{fa, fb})
	if out == nil {
		return nil, nil
	}
	return out[0], out[1]
}

// minuteCountGather walks the cells one (BS, day) at a time through a
// single minute accumulator: services sum in ascending catalog order
// (the same per-cell order forEachCell yields, so sums are
// bit-identical to the historical per-cell-accumulator layout) and
// each cell emits — once per minute filter — before the next begins,
// in ascending (BS, day) order. A counting pre-pass sizes each output
// exactly (matching minutes times touched cells), so the gather
// allocates once per filter, with no append growth and no per-cell
// accumulators. A nil filter entry keeps every minute. Returns nil
// when no cell matches.
func (c *Collector) minuteCountGather(filter KeyFilter, minuteFilters []func(int) bool) [][]float64 {
	nm := make([]int, len(minuteFilters))
	for f, mf := range minuteFilters {
		for m := 0; m < netsim.MinutesPerDay; m++ {
			if mf == nil || mf(m) {
				nm[f]++
			}
		}
	}
	stride := c.numBS * c.days
	touches := func(bs, day, base int) bool {
		for svc := 0; svc < c.NumServices; svc++ {
			if c.cells[svc*stride+base] == nil {
				continue
			}
			if filter != nil && !filter(StatKey{Service: svc, BS: bs, Day: day}) {
				continue
			}
			return true
		}
		return false
	}
	touched := 0
	for bs := 0; bs < c.numBS; bs++ {
		for day := 0; day < c.days; day++ {
			if touches(bs, day, bs*c.days+day) {
				touched++
			}
		}
	}
	if touched == 0 {
		return nil
	}
	acc := make([]float64, netsim.MinutesPerDay)
	out := make([][]float64, len(minuteFilters))
	for f := range out {
		out[f] = make([]float64, 0, touched*nm[f])
	}
	for bs := 0; bs < c.numBS; bs++ {
		for day := 0; day < c.days; day++ {
			base := bs*c.days + day
			first := true
			for svc := 0; svc < c.NumServices; svc++ {
				st := c.cells[svc*stride+base]
				if st == nil {
					continue
				}
				if filter != nil && !filter(StatKey{Service: svc, BS: bs, Day: day}) {
					continue
				}
				if first {
					first = false
					for m := range acc {
						acc[m] = 0
					}
				}
				for m, v := range st.MinuteCounts {
					acc[m] += float64(v)
				}
			}
			if first {
				continue
			}
			for f, mf := range minuteFilters {
				for m, v := range acc {
					if mf != nil && !mf(m) {
						continue
					}
					out[f] = append(out[f], v)
				}
			}
		}
	}
	return out
}

// SessionShare returns, per service, the fraction of all observed
// sessions (the Table 1 "Sessions %" column) across cells passing the
// filter, plus the coefficient of variation of that share across
// (BS, day) cells.
func (c *Collector) SessionShare(filter KeyFilter) (share, cv []float64, err error) {
	return c.shareOf(filter, "share", func(st *DayStats) float64 { return st.Sessions })
}

// TrafficShare returns, per service, the fraction of total traffic
// volume (the Table 1 "Traffic %" column) across cells passing the
// filter, plus the per-cell coefficient of variation.
func (c *Collector) TrafficShare(filter KeyFilter) (share, cv []float64, err error) {
	return c.shareOf(filter, "traffic share", func(st *DayStats) float64 {
		var vol float64
		for i := range st.DurVolSum {
			vol += st.DurVolSum[i]
		}
		return vol
	})
}

// shareOf computes per-service shares of a per-cell mass (sessions or
// traffic volume) plus the per-(BS, day) coefficient of variation of
// the share.
func (c *Collector) shareOf(filter KeyFilter, what string, mass func(*DayStats) float64) (share, cv []float64, err error) {
	nCells := c.numBS * c.days
	perCell := make([]float64, nCells*c.NumServices)
	touched := make([]bool, nCells)
	totals := make([]float64, c.NumServices)
	var grand float64
	c.forEachCell(filter, func(k StatKey, st *DayStats) {
		m := mass(st)
		ci := k.BS*c.days + k.Day
		touched[ci] = true
		perCell[ci*c.NumServices+k.Service] += m
		totals[k.Service] += m
		grand += m
	})
	if grand <= 0 {
		if what == "traffic share" {
			return nil, nil, fmt.Errorf("probe: no traffic matches the share filter")
		}
		return nil, nil, fmt.Errorf("probe: no sessions match the share filter")
	}
	share = make([]float64, c.NumServices)
	for s := range share {
		share[s] = totals[s] / grand
	}
	// CV of the per-cell share around its mean.
	cv = make([]float64, c.NumServices)
	for s := 0; s < c.NumServices; s++ {
		var vals []float64
		for ci := 0; ci < nCells; ci++ {
			if !touched[ci] {
				continue
			}
			counts := perCell[ci*c.NumServices : (ci+1)*c.NumServices]
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
	return share, cv, nil
}

// DurationCenters returns the duration-bin centers in seconds.
func (c *Collector) DurationCenters() []float64 {
	n := len(c.DurationEdges) - 1
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		out[i] = math.Pow(10, (c.DurationEdges[i]+c.DurationEdges[i+1])/2)
	}
	return out
}
