package experiments

import (
	"fmt"
	"math"

	"mobiletraffic/internal/core"
	"mobiletraffic/internal/faults"
)

// The chaos experiment: DESIGN.md names failure injection — classifier
// error rates, empty BSs, truncated days — as the verification
// strategy for the measurement plane, and related measurement studies
// stress that fitted parameters must be stable under imperfect, lossy
// collection. ExpChaos sweeps a combined fault intensity over the
// simulated campaign, refits the models on each degraded collection
// with the graceful pipeline, and reports how far the released
// parameters drift from the clean fit together with the FitReport of
// every run.

// ChaosConfig configures the fault-intensity sweep.
type ChaosConfig struct {
	// Max is the full-intensity fault mix. The zero value defaults to
	// the acceptance mix: 20% BS-day outages, 10% truncated days, 5%
	// flow-record loss, 2% duplication, 3% signaling gaps and 2%
	// misclassification.
	Max faults.Config
	// Levels are the intensity multipliers applied to Max (default
	// 0.25, 0.5, 0.75, 1).
	Levels []float64
	// Tolerance is the recovery criterion on the median |Δβ| against
	// the clean fit (default 0.1, the bound the stability extension
	// holds day-split fits to).
	Tolerance float64
}

func (c ChaosConfig) withDefaults(seed int64) ChaosConfig {
	zero := faults.Config{}
	if c.Max == zero {
		c.Max = faults.Config{
			OutageProb:       0.20,
			TruncatedDayProb: 0.10,
			FlowLossProb:     0.05,
			FlowDupProb:      0.02,
			SignalGapProb:    0.03,
			MisclassProb:     0.02,
		}
	}
	if c.Max.Seed == 0 {
		c.Max.Seed = seed ^ 0xc4a05
	}
	if len(c.Levels) == 0 {
		c.Levels = []float64{0.25, 0.5, 0.75, 1}
	}
	if c.Tolerance <= 0 {
		c.Tolerance = 0.1
	}
	return c
}

// ChaosRow is one fault-intensity level of the sweep.
type ChaosRow struct {
	Intensity    float64
	OutageDays   int64   // (BS, day) cells lost to probe outages
	TruncDays    int64   // (BS, day) cells cut short
	SessionsKept float64 // collected sessions / clean-campaign sessions
	Misclass     float64 // fraction of kept records with a wrong label
	Modeled      int     // services fitted (incl. fallbacks)
	Fallbacks    int
	Skipped      int
	// MedianDeltaMu and MedianDeltaBeta are parameter drifts of the
	// degraded fit against the clean fit.
	MedianDeltaMu   float64
	MedianDeltaBeta float64
	Recovered       bool // MedianDeltaBeta within tolerance
}

// ChaosResult is the chaos experiment output.
type ChaosResult struct {
	Rows []ChaosRow
	// Reports holds the merged FitReport (services + arrival classes)
	// of each level, index-aligned with Rows.
	Reports   []*core.FitReport
	Baseline  int     // services in the clean fit
	Tolerance float64 // recovery criterion on median |d beta|
}

// ExpChaos re-collects the campaign under increasing fault intensity
// and refits the §5 models with the graceful-degradation pipeline.
// Every level must come back with a non-empty ModelSet; skipped or
// fallback-fitted services are reported, not fatal.
func ExpChaos(env *Env, cfg ChaosConfig) (*ChaosResult, error) {
	c := cfg.withDefaults(env.Config.Seed)
	cleanSessions := env.Coll.TotalSessions()
	if cleanSessions <= 0 {
		return nil, fmt.Errorf("experiments: chaos needs a populated clean campaign")
	}
	out := &ChaosResult{Baseline: len(env.Models.Services), Tolerance: c.Tolerance}
	for _, level := range c.Levels {
		inj, err := faults.New(c.Max.Scale(level), len(env.Sim.Services))
		if err != nil {
			return nil, fmt.Errorf("experiments: chaos level %v: %w", level, err)
		}
		coll, err := Collect(env.Sim, env.Config.Days, inj)
		if err != nil {
			return nil, fmt.Errorf("experiments: chaos collection at intensity %v: %w", level, err)
		}
		set, report, err := core.FitServiceModelsReport(coll, env.Catalog, nil)
		if err != nil {
			return nil, fmt.Errorf("experiments: chaos fit at intensity %v: %w", level, err)
		}
		arrivals, arrReport, err := core.FitArrivalsByDecileReport(coll, env.Topo)
		if err != nil {
			return nil, fmt.Errorf("experiments: chaos arrival fit at intensity %v: %w", level, err)
		}
		set.Arrivals = arrivals
		report.Merge(arrReport)
		cmp, err := core.CompareModelSets(env.Models, set)
		if err != nil {
			return nil, fmt.Errorf("experiments: chaos comparison at intensity %v: %w", level, err)
		}
		st := inj.Stats()
		row := ChaosRow{
			Intensity:       level,
			OutageDays:      st.OutageDays,
			TruncDays:       st.TruncatedDays,
			SessionsKept:    coll.TotalSessions() / cleanSessions,
			Modeled:         len(set.Services),
			Fallbacks:       len(report.Fallbacks),
			Skipped:         len(report.Skipped),
			MedianDeltaMu:   cmp.MedianDeltaMu,
			MedianDeltaBeta: cmp.MedianDeltaBeta,
			Recovered:       cmp.MedianDeltaBeta <= c.Tolerance,
		}
		if st.Emitted > 0 {
			row.Misclass = float64(st.Misclassified) / float64(st.Emitted)
		}
		out.Rows = append(out.Rows, row)
		out.Reports = append(out.Reports, report)
	}
	if len(out.Rows) == 0 {
		return nil, fmt.Errorf("experiments: chaos swept no intensity levels")
	}
	return out, nil
}

// Table renders the chaos sweep.
func (r *ChaosResult) Table() *Table {
	t := &Table{
		Title: "Extension — chaos: model recovery under measurement-plane faults",
		Header: []string{"intensity", "outage days", "trunc days", "sessions kept",
			"misclass", "modeled", "fallbacks", "skipped", "|d mu| med", "|d beta| med", "recovered"},
	}
	for _, row := range r.Rows {
		recovered := "yes"
		if !row.Recovered {
			recovered = "NO"
		}
		t.AddRow(row.Intensity, row.OutageDays, row.TruncDays,
			fmt.Sprintf("%.1f%%", 100*row.SessionsKept),
			fmt.Sprintf("%.2f%%", 100*row.Misclass),
			row.Modeled, row.Fallbacks, row.Skipped,
			row.MedianDeltaMu, row.MedianDeltaBeta, recovered)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("clean fit models %d services; recovery criterion: median |d beta| <= %.2g vs the clean fit",
			r.Baseline, r.Tolerance),
		"faults: BS-day probe outages, truncated days, gateway record loss/duplication, signaling gaps, DPI misclassification bursts")
	for i, rep := range r.Reports {
		if rep != nil && rep.Degraded() {
			t.Notes = append(t.Notes, fmt.Sprintf("intensity %v: %s",
				r.Rows[i].Intensity, firstLine(rep.Summary())))
		}
	}
	return t
}

func firstLine(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			return s[:i]
		}
	}
	return s
}

// WorstBetaDrift returns the largest median |Δβ| across the sweep —
// the headline number the chaos benchmark bounds.
func (r *ChaosResult) WorstBetaDrift() float64 {
	worst := 0.0
	for _, row := range r.Rows {
		if !math.IsNaN(row.MedianDeltaBeta) && row.MedianDeltaBeta > worst {
			worst = row.MedianDeltaBeta
		}
	}
	return worst
}
