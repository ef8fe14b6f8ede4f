package probe

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"mobiletraffic/internal/obs"
)

// Merge folds the statistics of other into c and leaves other empty
// (see MergeAll). Both collectors must share the same service count
// and measurement grids. Merging is associative and commutative, so a
// measurement campaign can be aggregated by independent workers (e.g.
// one per base station) whose collectors are merged afterwards — the
// map-reduce layout a real probe deployment uses across gateway sites.
func (c *Collector) Merge(other *Collector) error {
	return c.MergeAll([]*Collector{other}, 1)
}

// MergeAll folds a set of partial collectors into c in slice order and
// consumes them: every merged partial is left empty. A partial cell
// whose destination slot is empty moves into c as is — the bits adding
// it into a zeroed cell would give, since no cell holds a -0 — and
// only cells c already holds are added into. So a sharded campaign,
// whose shards never share a cell, merges without copying a value.
// The dense slabs are index-aligned, so the walk shards by service
// across up to workers goroutines (workers <= 0 uses every CPU):
// shards touch disjoint cell ranges and each destination cell receives
// its contributions in the same partial order as a serial pairwise
// Merge chain, so the result is bit-identical regardless of worker
// count. Every partial is checked before any is touched; c itself, or
// a partial listed twice, is refused.
func (c *Collector) MergeAll(others []*Collector, workers int) error {
	seen := make(map[*Collector]bool, len(others))
	for _, other := range others {
		if kind, err := c.mergeCheck(other, seen); err != nil {
			obs.CounterOf("probe_merge_conflicts_total", "kind", kind).Inc()
			return err
		}
	}
	c.mergeChecked(others, workers)
	return nil
}

// mergeCheck validates that other can fold into c, returning the
// conflict kind (the probe_merge_conflicts_total label) on failure.
// seen holds the partials already accepted for this merge; other joins
// it when it passes.
func (c *Collector) mergeCheck(other *Collector, seen map[*Collector]bool) (kind string, err error) {
	if other == nil {
		return "nil", errors.New("probe: merge with nil collector")
	}
	if other == c {
		return "self", errors.New("probe: merge of a collector into itself")
	}
	if seen[other] {
		return "duplicate", errors.New("probe: merge lists a partial twice")
	}
	if c.NumServices != other.NumServices {
		return "services", fmt.Errorf("probe: merge service counts differ: %d vs %d", c.NumServices, other.NumServices)
	}
	if !slices.Equal(c.VolumeEdges, other.VolumeEdges) || !slices.Equal(c.DurationEdges, other.DurationEdges) {
		return "grids", errors.New("probe: merge grids differ")
	}
	seen[other] = true
	return "", nil
}

// MergePartial is the fate of one partial collector in a
// MergeAllReport call.
type MergePartial struct {
	Index  int    // position in the input slice
	Merged bool   // folded into the destination
	Reason string // why the partial was skipped (empty when merged)
}

// MergeReport accounts for every partial offered to MergeAllReport.
type MergeReport struct {
	Partials []MergePartial
	Merged   int
	Skipped  int
}

// Degraded reports whether any partial was skipped.
func (r *MergeReport) Degraded() bool { return r.Skipped > 0 }

// Summary renders a one-line account of the merge.
func (r *MergeReport) Summary() string {
	if !r.Degraded() {
		return fmt.Sprintf("merged %d/%d partials", r.Merged, len(r.Partials))
	}
	s := fmt.Sprintf("merged %d/%d partials;", r.Merged, len(r.Partials))
	for _, p := range r.Partials {
		if !p.Merged {
			s += fmt.Sprintf(" #%d skipped (%s)", p.Index, p.Reason)
		}
	}
	return s
}

// MergeAllReport is the graceful-degradation variant of MergeAll: nil,
// grid/service-mismatched, self or repeated partials are skipped — and
// counted via probe_merge_conflicts_total — instead of aborting the
// fold, so a campaign that lost a shard still aggregates everything
// that survived. The returned report records the fate of every
// partial; merge order among the surviving partials is their slice
// order, the same bit-identity contract as MergeAll. Merged partials
// are consumed as in MergeAll; skipped ones are left as they were.
func (c *Collector) MergeAllReport(others []*Collector, workers int) (*MergeReport, error) {
	report := &MergeReport{Partials: make([]MergePartial, len(others))}
	good := make([]*Collector, 0, len(others))
	seen := make(map[*Collector]bool, len(others))
	for i, other := range others {
		p := MergePartial{Index: i}
		if kind, err := c.mergeCheck(other, seen); err != nil {
			obs.CounterOf("probe_merge_conflicts_total", "kind", kind).Inc()
			p.Reason = err.Error()
			report.Skipped++
		} else {
			p.Merged = true
			report.Merged++
			good = append(good, other)
		}
		report.Partials[i] = p
	}
	c.mergeChecked(good, workers)
	return report, nil
}

// mergeChecked folds pre-validated partials into c; see MergeAll for
// the determinism argument.
func (c *Collector) mergeChecked(others []*Collector, workers int) {
	// Grow the destination slab once, up front, so the per-service
	// shards only ever write disjoint index ranges.
	maxBS, maxDays := c.numBS, c.days
	for _, other := range others {
		if other.numBS > maxBS {
			maxBS = other.numBS
		}
		if other.days > maxDays {
			maxDays = other.days
		}
	}
	if maxBS > c.numBS || maxDays > c.days {
		c.ensure(maxBS-1, maxDays-1)
	}
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > c.NumServices {
		workers = c.NumServices
	}
	if workers <= 1 {
		for svc := 0; svc < c.NumServices; svc++ {
			c.mergeService(svc, others)
		}
		return
	}
	var wg sync.WaitGroup
	var next atomic.Int64
	next.Store(-1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				svc := int(next.Add(1))
				if svc >= c.NumServices {
					return
				}
				c.mergeService(svc, others)
			}
		}()
	}
	wg.Wait()
}

// mergeService moves or folds one service's cells from every partial,
// in partial order, into c, clearing each partial slot it takes. Only
// cells of service svc are touched, so concurrent calls for distinct
// services are race-free.
func (c *Collector) mergeService(svc int, others []*Collector) {
	for _, other := range others {
		for bs := 0; bs < other.numBS; bs++ {
			srcBase := (svc*other.numBS + bs) * other.days
			dstBase := (svc*c.numBS + bs) * c.days
			for day := 0; day < other.days; day++ {
				src := other.cells[srcBase+day]
				if src == nil {
					continue
				}
				other.cells[srcBase+day] = nil
				dst := c.cells[dstBase+day]
				if dst == nil {
					// The grids are equal by value; the moved histogram
					// shares c's edge slice like every cell of c.
					src.Volume.Edges = c.VolumeEdges
					c.cells[dstBase+day] = src
					continue
				}
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
}
