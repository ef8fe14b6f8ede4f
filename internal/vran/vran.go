// Package vran implements the CU-DU energy consumption use case of
// paper §6.2: a virtualized RAN where Centralized Units run on physical
// servers (PS) at a Telco Cloud Site, serving Distributed Units at far
// edge sites, each aggregating a group of Radio Units. PS energy
// follows the linear load model of the paper's IBM-server reference
// (60 W idle, 200 W at the 100 Mbps full load), and a first-fit
// bin-packing heuristic re-associates DUs to PSs every one-second time
// slot to minimize active servers. The package also provides the
// absolute-percentage-error metrics of Fig. 13b.
package vran

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"mobiletraffic/internal/mathx"
)

// PSModel describes one physical server class (§6.2.1).
type PSModel struct {
	// CapacityMbps is the maximum summed throughput one PS can serve.
	CapacityMbps float64
	// IdleWatts is the power drawn by an active but idle PS.
	IdleWatts float64
	// MaxWatts is the power at 100% load; consumption interpolates
	// linearly in between.
	MaxWatts float64
}

// DefaultPS returns the paper's server: 100 Mbps capacity, 60 W idle,
// 200 W at full load.
func DefaultPS() PSModel {
	return PSModel{CapacityMbps: 100, IdleWatts: 60, MaxWatts: 200}
}

// Power returns the consumption of one PS serving the given load in
// Mbps (clamped to capacity).
func (p PSModel) Power(loadMbps float64) float64 {
	if loadMbps <= 0 {
		return p.IdleWatts
	}
	frac := math.Min(loadMbps/p.CapacityMbps, 1)
	return p.IdleWatts + frac*(p.MaxWatts-p.IdleWatts)
}

// PackResult is the outcome of one time slot's orchestration.
type PackResult struct {
	ActivePS int
	// PowerWatts is the total consumption of the active servers.
	PowerWatts float64
}

// Pack assigns the per-DU loads (Mbps) to the minimum number of PSs the
// first-fit-decreasing heuristic finds, then prices the placement with
// the linear power model. DU loads above a single PS capacity are
// clamped to capacity (the DU saturates its server).
func Pack(ps PSModel, duLoads []float64) PackResult {
	loads := make([]float64, 0, len(duLoads))
	for _, l := range duLoads {
		if l < 0 {
			l = 0
		}
		if l > ps.CapacityMbps {
			l = ps.CapacityMbps
		}
		loads = append(loads, l)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(loads)))
	var bins []float64
	for _, l := range loads {
		if l == 0 {
			continue
		}
		placed := false
		for i := range bins {
			if bins[i]+l <= ps.CapacityMbps {
				bins[i] += l
				placed = true
				break
			}
		}
		if !placed {
			bins = append(bins, l)
		}
	}
	res := PackResult{ActivePS: len(bins)}
	for _, b := range bins {
		res.PowerWatts += ps.Power(b)
	}
	return res
}

// ThroughputSeries holds per-DU served throughput in Mbps at one-second
// time slots: Series[du][ts].
type ThroughputSeries struct {
	DUs   int
	Slots int
	// Series[du][ts] is the aggregate throughput (Mbps) DU du serves
	// during time slot ts.
	Series [][]float64
}

// NewThroughputSeries allocates an all-zero series.
func NewThroughputSeries(dus, slots int) (*ThroughputSeries, error) {
	if dus <= 0 || slots <= 0 {
		return nil, fmt.Errorf("vran: invalid series shape %dx%d", dus, slots)
	}
	s := &ThroughputSeries{DUs: dus, Slots: slots, Series: make([][]float64, dus)}
	for i := range s.Series {
		s.Series[i] = make([]float64, slots)
	}
	return s, nil
}

// AddSession adds a session served by the DU: constant throughput
// volume/duration (bytes/s, converted to Mbps) over [start, start+dur),
// spread over the one-second slots it overlaps (mathx.SpreadUniform)
// and clamped to the horizon: time before slot 0 or past the last slot
// is dropped. Start, duration and volume must be finite, and duration
// and volume positive.
func (s *ThroughputSeries) AddSession(du int, start, duration, volumeBytes float64) error {
	if du < 0 || du >= s.DUs {
		return fmt.Errorf("vran: DU %d out of range [0, %d)", du, s.DUs)
	}
	if !mathx.IsFinite(start) || !mathx.IsFinite(duration) || !mathx.IsFinite(volumeBytes) {
		return fmt.Errorf("vran: session needs finite start, duration and volume, got %v/%v/%v",
			start, duration, volumeBytes)
	}
	if duration <= 0 || volumeBytes <= 0 {
		return fmt.Errorf("vran: session needs positive duration/volume, got %v/%v", duration, volumeBytes)
	}
	mathx.SpreadUniform(s.Series[du], start, start+duration, volumeBytes/duration*8/1e6, 1)
	return nil
}

// LoadsAt returns the per-DU loads of one time slot.
func (s *ThroughputSeries) LoadsAt(ts int) []float64 {
	out := make([]float64, s.DUs)
	for du := range s.Series {
		out[du] = s.Series[du][ts]
	}
	return out
}

// RunResult is the orchestration outcome over a whole series.
type RunResult struct {
	ActivePS []float64 // per time slot
	PowerW   []float64 // per time slot
}

// MeanPower returns the time-averaged power consumption.
func (r *RunResult) MeanPower() float64 { return mathx.Mean(r.PowerW) }

// MeanActive returns the time-averaged number of active servers.
func (r *RunResult) MeanActive() float64 { return mathx.Mean(r.ActivePS) }

// Run executes the per-slot orchestration over the series.
func Run(ps PSModel, series *ThroughputSeries) (*RunResult, error) {
	if series == nil {
		return nil, errNilSeries
	}
	out := &RunResult{
		ActivePS: make([]float64, series.Slots),
		PowerW:   make([]float64, series.Slots),
	}
	for ts := 0; ts < series.Slots; ts++ {
		res := Pack(ps, series.LoadsAt(ts))
		out.ActivePS[ts] = float64(res.ActivePS)
		out.PowerW[ts] = res.PowerWatts
	}
	return out, nil
}

// errNilSeries is shared by Run and RunWith.
var errNilSeries = errors.New("vran: nil series")

// APESeries returns the per-slot absolute percentage error of got
// versus want, skipping slots where the reference is zero — the
// Fig. 13b metric distributions.
func APESeries(got, want []float64) ([]float64, error) {
	if len(got) != len(want) || len(got) == 0 {
		return nil, fmt.Errorf("vran: APE needs matching non-empty series, got %d/%d", len(got), len(want))
	}
	var out []float64
	for i := range got {
		if want[i] == 0 {
			continue
		}
		out = append(out, math.Abs(got[i]-want[i])/want[i]*100)
	}
	if len(out) == 0 {
		return nil, errors.New("vran: APE reference is identically zero")
	}
	return out, nil
}

// APESummary condenses an APE distribution: median, quartiles and
// 5th/95th percentiles, matching the Fig. 13b boxplots.
type APESummary struct {
	P5, Q1, Median, Q3, P95 float64
}

// SummarizeAPE computes the boxplot statistics of an APE series.
func SummarizeAPE(ape []float64) APESummary {
	qs := mathx.Percentiles(ape, []float64{0.05, 0.25, 0.5, 0.75, 0.95})
	return APESummary{P5: qs[0], Q1: qs[1], Median: qs[2], Q3: qs[3], P95: qs[4]}
}
