// Package slicing implements the network-slicing capacity allocation
// use case of paper §6.1: an operator signs an SLA with one service
// provider per modeled service, reserves per-slice capacity at each
// antenna, and meets the SLA when all of the slice's traffic is served
// at least 95% of the time. Capacity is dimensioned from a traffic
// model — the paper's session-level models or the category-level
// literature benchmarks bm_a/bm_b — and evaluated against
// measurement-driven demand.
package slicing

import (
	"errors"
	"fmt"
	"sort"

	"mobiletraffic/internal/mathx"
)

// SessionSpec is the slice-relevant view of one session: which service
// it belongs to, when it starts (seconds from trace origin), how long
// it lasts and how much traffic it carries.
type SessionSpec struct {
	Service  int
	Start    float64 // seconds
	Duration float64 // seconds
	Volume   float64 // bytes
}

// DemandTrace is the per-service, per-minute traffic demand at one
// antenna in bytes per minute.
type DemandTrace struct {
	NumServices int
	Minutes     int
	// Demand[s][m] is the bytes of service s transferred in minute m.
	Demand [][]float64
}

// NewDemandTrace allocates an empty trace.
func NewDemandTrace(numServices, minutes int) (*DemandTrace, error) {
	if numServices <= 0 || minutes <= 0 {
		return nil, fmt.Errorf("slicing: invalid trace shape %dx%d", numServices, minutes)
	}
	d := &DemandTrace{NumServices: numServices, Minutes: minutes}
	d.Demand = make([][]float64, numServices)
	for s := range d.Demand {
		d.Demand[s] = make([]float64, minutes)
	}
	return d, nil
}

// AddSession spreads the session's volume uniformly over its lifetime
// across the minutes it overlaps (mathx.SpreadUniform), clamping to the
// trace horizon: the part of a session before minute 0 or past the last
// minute is dropped. Start, duration and volume must be finite, and
// duration and volume positive.
func (d *DemandTrace) AddSession(s SessionSpec) error {
	if s.Service < 0 || s.Service >= d.NumServices {
		return fmt.Errorf("slicing: service %d out of range [0, %d)", s.Service, d.NumServices)
	}
	if !mathx.IsFinite(s.Start) || !mathx.IsFinite(s.Duration) || !mathx.IsFinite(s.Volume) {
		return fmt.Errorf("slicing: session needs finite start, duration and volume, got %v/%v/%v",
			s.Start, s.Duration, s.Volume)
	}
	if s.Duration <= 0 || s.Volume <= 0 {
		return fmt.Errorf("slicing: session needs positive duration and volume, got %v/%v",
			s.Duration, s.Volume)
	}
	mathx.SpreadUniform(d.Demand[s.Service], s.Start, s.Start+s.Duration, s.Volume/s.Duration, 60)
	return nil
}

// Total returns the summed demand over all services per minute.
func (d *DemandTrace) Total() []float64 {
	out := make([]float64, d.Minutes)
	for _, row := range d.Demand {
		for m, v := range row {
			out[m] += v
		}
	}
	return out
}

// Allocation is the per-service reserved capacity in bytes per minute.
type Allocation []float64

// AllocatePercentile reserves, for every service, the given percentile
// (e.g. 0.95) of its per-minute demand in the reference trace —
// the paper's model-driven allocation rule. minuteFilter optionally
// restricts which minutes inform the percentile (e.g. peak hours only).
func AllocatePercentile(ref *DemandTrace, pct float64, minuteFilter func(int) bool) (Allocation, error) {
	if ref == nil {
		return nil, errors.New("slicing: nil reference trace")
	}
	if pct <= 0 || pct >= 1 {
		return nil, fmt.Errorf("slicing: percentile %v outside (0, 1)", pct)
	}
	alloc := make(Allocation, ref.NumServices)
	// One sample buffer reused across services: the filtered minute set
	// has the same size for every service, so a single allocation
	// (sorted in place per service) serves the whole pass instead of an
	// append-grown slice plus a Quantile-internal copy per service.
	samples := make([]float64, 0, ref.Minutes)
	for s := 0; s < ref.NumServices; s++ {
		samples = samples[:0]
		for m, v := range ref.Demand[s] {
			if minuteFilter != nil && !minuteFilter(m) {
				continue
			}
			samples = append(samples, v)
		}
		if len(samples) == 0 {
			return nil, fmt.Errorf("slicing: no minutes selected for service %d", s)
		}
		sort.Float64s(samples)
		alloc[s] = mathx.QuantileSorted(samples, pct)
	}
	return alloc, nil
}

// AllocateCategoryUniform implements the benchmark allocation of §6.1:
// per-category capacity is the percentile of the category's aggregate
// demand in the reference category trace, then split uniformly across
// the services mapped to that category (no intra-category information
// is available to the literature models).
//
// catRef must have one row per category; membership maps each service
// to its category row.
func AllocateCategoryUniform(catRef *DemandTrace, membership []int, pct float64, minuteFilter func(int) bool) (Allocation, error) {
	if catRef == nil {
		return nil, errors.New("slicing: nil category trace")
	}
	catAlloc, err := AllocatePercentile(catRef, pct, minuteFilter)
	if err != nil {
		return nil, err
	}
	counts := make([]int, catRef.NumServices)
	for _, c := range membership {
		if c < 0 || c >= catRef.NumServices {
			return nil, fmt.Errorf("slicing: category %d out of range [0, %d)", c, catRef.NumServices)
		}
		counts[c]++
	}
	alloc := make(Allocation, len(membership))
	for s, c := range membership {
		if counts[c] == 0 {
			continue
		}
		alloc[s] = catAlloc[c] / float64(counts[c])
	}
	return alloc, nil
}

// SLAResult reports SLA satisfaction for one (service, antenna) slice.
type SLAResult struct {
	Service int
	// Satisfied is the fraction of evaluated minutes in which the
	// allocated capacity covered all demand ("time with no dropped
	// traffic", Table 2).
	Satisfied float64
	// DroppedBytes is the total demand exceeding capacity.
	DroppedBytes float64
}

// Evaluate checks the allocation against real demand: for every service
// it returns the fraction of (filtered) minutes fully served and the
// dropped volume.
func Evaluate(real *DemandTrace, alloc Allocation, minuteFilter func(int) bool) ([]SLAResult, error) {
	if real == nil {
		return nil, errors.New("slicing: nil demand trace")
	}
	if len(alloc) != real.NumServices {
		return nil, fmt.Errorf("slicing: allocation for %d services, trace has %d",
			len(alloc), real.NumServices)
	}
	out := make([]SLAResult, real.NumServices)
	for s := 0; s < real.NumServices; s++ {
		res := SLAResult{Service: s}
		var evaluated, ok int
		for m, v := range real.Demand[s] {
			if minuteFilter != nil && !minuteFilter(m) {
				continue
			}
			evaluated++
			if v <= alloc[s] {
				ok++
			} else {
				res.DroppedBytes += v - alloc[s]
			}
		}
		if evaluated > 0 {
			res.Satisfied = float64(ok) / float64(evaluated)
		}
		out[s] = res
	}
	return out, nil
}

// Summary condenses SLA results across services and antennas: the mean
// and standard deviation of the satisfaction fraction, and how many
// slices meet the 95% SLA bar — the Table 2 columns.
type Summary struct {
	MeanSatisfied float64
	StdSatisfied  float64
	SLAMetCount   int
	SliceCount    int
}

// Summarize aggregates results (possibly from several antennas),
// ignoring slices that saw no demand at all.
func Summarize(results []SLAResult, slaBar float64) Summary {
	var vals []float64
	met := 0
	for _, r := range results {
		vals = append(vals, r.Satisfied)
		if r.Satisfied >= slaBar {
			met++
		}
	}
	return Summary{
		MeanSatisfied: mathx.Mean(vals),
		StdSatisfied:  mathx.Std(vals),
		SLAMetCount:   met,
		SliceCount:    len(vals),
	}
}

// PeakMinutes returns a minute filter keeping the §6.1 SLA window:
// everything except nighttime 22:00-08:00, repeating daily.
func PeakMinutes() func(int) bool {
	return func(m int) bool {
		mod := m % (24 * 60)
		return mod >= 8*60 && mod < 22*60
	}
}
