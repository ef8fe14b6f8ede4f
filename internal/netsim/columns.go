package netsim

import (
	"fmt"
	"math"
	"sort"

	"mobiletraffic/internal/mathx"
)

// DayColumns is one (BS, day) of synthesized sessions in
// structure-of-arrays layout — the measurement-synthesis counterpart of
// the generation plane's core.DayBlock. All per-session columns have
// length N(); they come in two index domains:
//
//   - Session order (index i): Minute, Svc, Start, Truncated — ordered
//     minute-major (Minute is nondecreasing), exactly the order
//     GenerateDay emits and the per-(BS, day) fault streams consume.
//
//   - Value columns (Volume, Duration): when the by-service
//     grouping (SvcSeg/ByService/Slot) is populated — as
//     SampleDayColumns always leaves it — these are stored in grouped
//     order, indexed by slot g = Slot[i]: sessions of one service are
//     contiguous, so both the per-service batch samplers that write
//     them and the per-cell probe folds that read them run over dense
//     segments. When the grouping is absent (SvcSeg empty, e.g. the
//     output of faults.DayStream.ApplyColumns), the value columns are
//     in plain session order.
//
// A DayColumns is meant to be owned by one collection worker and
// reused across its whole campaign share: SampleDayColumns grows the
// columns geometrically and then runs allocation-free (pre-size with
// Resize(sim.MaxDaySessions()) to skip even the first growth).
//
// The probe ingest bins the linear Volume/Duration columns with the
// exact thresholds of the scalar Observe, so columnar and scalar
// binning can never diverge by a ulp at a bin edge; the log-domain
// values the samplers compute on the way stay in the draw scratch.
type DayColumns struct {
	// Counts[m] is the number of sessions established in minute m,
	// after weekend scaling (len MinutesPerDay once sampled).
	Counts []int32
	// Session-order columns.
	Minute    []int32   // minute of day of establishment
	Svc       []int32   // catalog index of the session's service
	Start     []float64 // second of day of establishment (len 0 when SkipStart)
	Truncated []bool    // cut short by UE mobility
	// Value columns — grouped order under a valid grouping, session
	// order otherwise (see the type comment).
	Duration []float64 // served duration in seconds
	Volume   []float64 // served traffic in bytes

	// SvcSeg, ByService and Slot describe the stable by-service
	// grouping the sampler computes with a counting sort: sessions of
	// service s occupy grouped slots [SvcSeg[s], SvcSeg[s+1]),
	// ByService[g] is the session index held by grouped slot g —
	// ascending within each segment, so per-service iteration visits
	// sessions in exactly the minute-major column order — and
	// Slot[i] = g is the inverse map. The grouping is only meaningful
	// when len(SvcSeg) == numServices+1 and len(ByService) == N() and
	// all three were produced alongside Svc; transformations that
	// re-map services (faults.ApplyColumns) truncate SvcSeg to mark
	// the grouping invalid and emit value columns in session order.
	SvcSeg    []int32
	ByService []int32
	Slot      []int32
	// MinuteG mirrors Minute in grouped (slot) order —
	// MinuteG[Slot[i]] == Minute[i] — so grouped consumers stream
	// minutes sequentially instead of gathering through ByService. It
	// is only meaningful under a valid grouping (len == N() alongside
	// SvcSeg/ByService/Slot); ungrouped producers leave it stale.
	MinuteG []int32

	// SkipStart, when set by the owner before sampling, elides the
	// Start column entirely: its draw rectangle is the last of the
	// per-(BS, day) stream, so skipping it leaves every other column's
	// draws untouched while saving the rectangle and its backing array.
	// Collection paths that never read establishment seconds (the
	// probe ingest bins by minute) run with SkipStart set.
	SkipStart bool

	// Draw scratch of the columnar sampler: one uniform and one
	// normal/exponential rectangle, sized alongside the session
	// columns, plus the counting-sort cursor (numServices entries).
	u, z   []float64
	segCur []int32
}

// N returns the number of sessions in the columns.
func (c *DayColumns) N() int { return len(c.Minute) }

// Resize sets every per-session column to length n, growing the
// backing arrays when needed and preserving existing contents. Growth
// allocates exactly the requested size the first time and doubles
// thereafter, so a scratch pre-sized to the campaign's largest day
// (MaxDaySessions) never re-allocates. Newly exposed elements are
// unspecified.
func (c *DayColumns) Resize(n int) {
	if cap(c.Minute) < n {
		m := 2 * cap(c.Minute)
		if m < n {
			m = n
		}
		grow32 := func(s []int32) []int32 {
			ns := make([]int32, m)
			copy(ns, s)
			return ns
		}
		growF := func(s []float64) []float64 {
			ns := make([]float64, m)
			copy(ns, s)
			return ns
		}
		c.Minute = grow32(c.Minute)
		c.Svc = grow32(c.Svc)
		c.ByService = grow32(c.ByService)
		c.Slot = grow32(c.Slot)
		c.MinuteG = grow32(c.MinuteG)
		c.Duration = growF(c.Duration)
		c.Volume = growF(c.Volume)
		c.u = growF(c.u)
		c.z = growF(c.z)
		nt := make([]bool, m)
		copy(nt, c.Truncated)
		c.Truncated = nt
	}
	c.Minute = c.Minute[:n]
	c.Svc = c.Svc[:n]
	c.ByService = c.ByService[:n]
	c.Slot = c.Slot[:n]
	c.MinuteG = c.MinuteG[:n]
	c.Duration = c.Duration[:n]
	c.Volume = c.Volume[:n]
	c.Truncated = c.Truncated[:n]
	c.u = c.u[:n]
	c.z = c.z[:n]
	// Start has its own capacity check: a scratch can flip SkipStart
	// between uses, so its backing array may lag the others.
	if c.SkipStart {
		c.Start = c.Start[:0]
	} else {
		if cap(c.Start) < n {
			ns := make([]float64, cap(c.Minute))
			copy(ns, c.Start)
			c.Start = ns
		}
		c.Start = c.Start[:n]
	}
}

// CutoffIndex returns the index of the first session established at or
// after the given minute — the suffix boundary a truncated-day fault
// drops. The columns must be minute-major (as SampleDayColumns emits).
func (c *DayColumns) CutoffIndex(minute int) int {
	m := int32(minute)
	return sort.Search(len(c.Minute), func(i int) bool { return c.Minute[i] >= m })
}

// Grouped reports whether the by-service grouping is populated, i.e.
// whether the value columns are in grouped order (see the type
// comment) for a catalog of numServices services.
func (c *DayColumns) Grouped(numServices int) bool {
	return len(c.SvcSeg) == numServices+1 && len(c.ByService) == c.N() && len(c.Slot) == c.N()
}

// MaxDaySessions returns a deterministic upper bound on the session
// count of any (BS, day) cell of this simulator: the largest per-BS
// expected day total (peak-mode mean plus the off-peak mode's clamped
// mean, through the diurnal phase table and the worst weekend scale)
// with a 5% + 1024 safety margin. The day total concentrates tightly
// around its mean (it sums 1440 independent minutes), so the margin
// covers the stochastic spread by a wide multiple of its standard
// deviation. Collection workers pre-size their DayColumns scratch with
// it so the whole campaign runs without a single column re-allocation.
func (s *Simulator) MaxDaySessions() int { return s.maxDay }

func computeMaxDaySessions(topo *Topology, cfg SimConfig, phase []float64) int {
	wk := 1.0
	if cfg.Weekend > 1 {
		wk = cfg.Weekend
	}
	// Mean of the off-peak Pareto draw OffPeakScale*(1-U)^offPeakExp:
	// E[(1-U)^a] = 1/(1+a) for a > -1.
	offMean := 1 / (1 + offPeakExp)
	maxMean := 0.0
	for i := range topo.BSs {
		bs := &topo.BSs[i]
		off := bs.OffPeakScale * offMean
		if clamp := bs.PeakRate * 0.5; off > clamp {
			off = clamp
		}
		mean := 0.0
		for _, w := range phase {
			mean += w*bs.PeakRate + (1-w)*off
		}
		if mean > maxMean {
			maxMean = mean
		}
	}
	return int(maxMean*wk*1.05) + 1024
}

// SampleDayColumns synthesizes all sessions established at the BS (by
// topology index) during the given day into cols, replacing its
// contents. The per-(BS, day) stream is deterministic in the simulator
// seed and is the same stream GenerateDay yields session by session.
// cols is caller scratch, reusable across calls and across (BS, day)
// cells; distinct cols values may be used from concurrent goroutines.
func (s *Simulator) SampleDayColumns(bsIdx, day int, cols *DayColumns) error {
	if cols == nil {
		return fmt.Errorf("netsim: nil DayColumns")
	}
	if bsIdx < 0 || bsIdx >= len(s.Topo.BSs) {
		return fmt.Errorf("netsim: BS index %d out of range [0, %d)", bsIdx, len(s.Topo.BSs))
	}
	if day < 0 {
		return fmt.Errorf("netsim: negative day %d", day)
	}
	s.sampleDayColumns(bsIdx, day, cols)
	return nil
}

// sampleDayColumns is the columnar sampling engine. The day is drawn
// as a fixed sequence of rectangles: (1) the scalar per-minute arrival
// counts, (2) one uniform rectangle mapped through the BS's alias table
// to service picks, (3) per service in catalog order, the volume
// component+deviate rectangles then the duration deviate rectangle —
// sessions are grouped by service with a stable counting sort and each
// profile's samplers write one contiguous grouped segment of the value
// columns, which is where they stay (see the DayColumns layout) — (4)
// the mobility gate rectangle followed by one Exp draw per mover, and
// (5) last, the start-second uniform rectangle, elided entirely under
// SkipStart, which is why it is ordered after everything else.
// Grouping is stable, so within any (service, BS, day) cell the
// session order — and therefore every downstream floating-point
// accumulation — is identical to the minute-major emission order.
func (s *Simulator) sampleDayColumns(bsIdx, day int, c *DayColumns) {
	bs := &s.Topo.BSs[bsIdx]
	var rng mathx.PCG
	rng.SeedStream(uint64(s.Config.Seed), uint64(bsIdx), uint64(day))
	weekendScale := 1.0
	if IsWeekend(day) {
		weekendScale = s.Config.Weekend
	}
	scaleWeekend := weekendScale != 1

	if c.Counts == nil {
		c.Counts = make([]int32, MinutesPerDay)
	}
	total := 0
	for minute := 0; minute < MinutesPerDay; minute++ {
		n := arrivalCountFast(bs, s.phase[minute], &rng)
		if n != 0 && scaleWeekend {
			n = int(math.Round(float64(n) * weekendScale))
		}
		c.Counts[minute] = int32(n)
		total += n
	}
	c.Resize(total)
	if total == 0 {
		c.SvcSeg = c.SvcSeg[:0]
		return
	}
	idx := 0
	for m := 0; m < MinutesPerDay; m++ {
		for k := int32(0); k < c.Counts[m]; k++ {
			c.Minute[idx] = int32(m)
			idx++
		}
	}

	// Service picks: one uniform rectangle through the alias table.
	rng.FillFloat64(c.u)
	s.bsAlias[bsIdx].PickBatch(c.u, c.Svc)

	// Stable counting sort by service: SvcSeg[s] is the grouped-segment
	// start of service s, Slot[i] the grouped slot of session i,
	// ByService its inverse (ascending within each segment).
	nSvc := len(s.Services)
	if cap(c.SvcSeg) < nSvc+1 {
		c.SvcSeg = make([]int32, nSvc+1)
		c.segCur = make([]int32, nSvc)
	}
	off := c.SvcSeg[:nSvc+1]
	c.SvcSeg = off
	for i := range off {
		off[i] = 0
	}
	for _, sv := range c.Svc {
		off[sv+1]++
	}
	for i := 0; i < nSvc; i++ {
		off[i+1] += off[i]
	}
	cur := c.segCur[:nSvc]
	copy(cur, off[:nSvc])
	for i, sv := range c.Svc {
		g := cur[sv]
		cur[sv]++
		c.Slot[i] = g
		c.ByService[g] = int32(i)
		c.MinuteG[g] = c.Minute[i]
	}

	// Per-service batch sampling: each profile fills its contiguous
	// grouped segment of the value columns, in catalog order. The log
	// outputs land in the draw scratch: each batch loop reads index i
	// of its inputs before it writes index i of its outputs, so the
	// volume logs overwrite the uniforms they came from, and the
	// duration logs the normals.
	for sv := 0; sv < nSvc; sv++ {
		lo, hi := int(off[sv]), int(off[sv+1])
		if lo == hi {
			continue
		}
		prof := &s.Services[sv]
		k := hi - lo
		u, z := c.u[:k], c.z[:k]
		prof.SampleVolumeLnBatch(&rng, u, z, c.Volume[lo:hi], u)
		prof.SampleDurationLnBatch(&rng, u, z, c.Duration[lo:hi], z)
	}

	// Mobility: one gate rectangle, then exactly one dwell Exp draw per
	// mover (drawn into the z scratch, free after the service stage),
	// consumed in session order; each mover's value columns are reached
	// through its grouped slot.
	for i := range c.Truncated {
		c.Truncated[i] = false
	}
	var split int64
	if moveProb := s.Config.MoveProb; moveProb > 0 {
		meanDwell := s.Config.MeanDwell
		rng.FillFloat64(c.u)
		movers := 0
		for _, u := range c.u {
			if u < moveProb {
				movers++
			}
		}
		rng.FillExp(c.z[:movers])
		j := 0
		for i := 0; i < total; i++ {
			if c.u[i] >= moveProb {
				continue
			}
			dwell := c.z[j] * meanDwell
			j++
			if dwell < 1 {
				dwell = 1
			}
			g := c.Slot[i]
			if dwell < c.Duration[g] {
				// The BS only sees the dwell-time share of the session:
				// volume pro-rated on served time.
				c.Volume[g] *= dwell / c.Duration[g]
				c.Duration[g] = dwell
				c.Truncated[i] = true
				split++
			}
		}
	}

	// Establishment second within the minute — the final rectangle of
	// the stream, so eliding it under SkipStart perturbs nothing.
	if !c.SkipStart {
		rng.FillFloat64(c.u)
		for i := 0; i < total; i++ {
			c.Start[i] = float64(c.Minute[i])*60 + c.u[i]*60
		}
	}
	s.obsSessions.Add(int64(total))
	s.obsSplits.Add(split)
}
