package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"mobiletraffic/internal/core"
	"mobiletraffic/internal/netsim"
	"mobiletraffic/internal/services"
)

// DriftResult is the model-aging extension: the paper notes its models
// "will require updates over the years to consider changes in
// popularity and new services that emerge" (§7). This experiment
// simulates a later measurement campaign whose service catalog has
// drifted — popularity shifts, behavioural changes, one service gone
// and one new — refits the models, and shows that CompareModelSets
// flags exactly the planted drift while ExpStability-style same-period
// comparisons stay near zero.
type DriftResult struct {
	Comparison *core.SetComparison
	// Planted drift magnitudes for context.
	ShiftedService string
	PlantedMuShift float64
	RemovedService string
	AddedService   string
	BaselineMedian float64 // median |d beta| between same-catalog refits
}

// ExpDrift simulates the drifted campaign and compares fitted model
// sets.
func ExpDrift(env *Env) (*DriftResult, error) {
	// Build the drifted catalog: clone, shift one heavy service's
	// volume trend, swap popularity between two services, drop one,
	// add a new one.
	catalog := append([]services.Profile(nil), env.Catalog...)
	rng := rand.New(rand.NewSource(env.Config.Seed ^ 0xd21f7))

	const shifted = "Netflix"
	const removed = "Yahoo"
	const added = "NewShorts"
	var plantedShift float64
	out := catalog[:0:0]
	for _, p := range catalog {
		switch p.Name {
		case shifted:
			plantedShift = 0.5
			p.MainMu += plantedShift // sessions grew ~3x heavier
			p.Beta = math.Min(p.Beta+0.1, 1.8)
		case removed:
			continue
		case "Pokemon GO":
			p.SessionSharePct *= 3 // popularity rebound
		}
		out = append(out, p)
	}
	out = append(out, services.Profile{
		Name:            added,
		SessionSharePct: 2.5,
		TrafficSharePct: 4.0,
		Class:           services.Streaming,
		MainMu:          6.9, MainSigma: 1.0,
		Beta: 1.25, TypDuration: 300, DurationNoise: 0.15,
	})
	_ = rng

	// Simulate the drifted campaign on the same topology size.
	topo, err := netsim.NewTopology(netsim.TopologyConfig{
		NumBS: env.Config.NumBS, Seed: env.Config.Seed + 1,
	})
	if err != nil {
		return nil, err
	}
	sim, err := netsim.NewSimulatorWithCatalog(topo, netsim.SimConfig{
		Days: env.Config.Days, Seed: env.Config.Seed + 1, MoveProb: env.Config.MoveProb,
	}, out)
	if err != nil {
		return nil, err
	}
	coll, err := Collect(sim, env.Config.Days, nil)
	if err != nil {
		return nil, err
	}
	drifted, err := core.FitServiceModels(coll, sim.Services, nil)
	if err != nil {
		return nil, err
	}
	cmp, err := core.CompareModelSets(env.Models, drifted)
	if err != nil {
		return nil, err
	}

	// Baseline for context: same-campaign half/half comparison.
	stability, err := ExpStability(env)
	if err != nil {
		return nil, err
	}
	return &DriftResult{
		Comparison:     cmp,
		ShiftedService: shifted,
		PlantedMuShift: plantedShift,
		RemovedService: removed,
		AddedService:   added,
		BaselineMedian: stability.Comparison.MedianDeltaBeta,
	}, nil
}

// Table renders the drift result.
func (r *DriftResult) Table() *Table {
	t := &Table{
		Title:  "Extension — model aging across campaigns (§7: models require updates)",
		Header: []string{"service", "|d mu|", "|d beta|", "alpha ratio", "|d share|"},
	}
	for i, d := range r.Comparison.Deltas {
		if i >= 10 { // top drifters only
			break
		}
		t.AddRow(d.Name, d.DeltaMu, d.DeltaBeta, d.AlphaRatio, d.ShareDelta)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("planted: %s volume trend +%.1f decades; %s removed; %s launched",
			r.ShiftedService, r.PlantedMuShift, r.RemovedService, r.AddedService),
		fmt.Sprintf("services only in the old set: %v; only in the new set: %v",
			r.Comparison.OnlyInA, r.Comparison.OnlyInB),
		fmt.Sprintf("median |d beta| across campaigns %.3g vs %.3g within one campaign",
			r.Comparison.MedianDeltaBeta, r.BaselineMedian))
	return t
}
