// Package experiments reproduces every table and figure of the paper's
// evaluation: each ExpXxx function runs one experiment end-to-end on a
// simulated measurement campaign and returns the rows/series the paper
// reports. The cmd/experiments binary prints them; the repository-root
// benchmarks regenerate them under `go test -bench`.
package experiments

import (
	"fmt"

	"mobiletraffic/internal/core"
	"mobiletraffic/internal/netsim"
	"mobiletraffic/internal/obs"
	"mobiletraffic/internal/probe"
	"mobiletraffic/internal/services"
)

// Config sizes the simulated measurement campaign. The paper's campaign
// (282k BSs, 45 days) is scaled down to laptop size; the statistical
// shapes are preserved by construction (see DESIGN.md).
type Config struct {
	NumBS int   // base stations (default 40)
	Days  int   // simulated days, day 0 = Monday (default 7)
	Seed  int64 // master seed
	// MoveProb is the probability a session is transient (default
	// 0.25; negative disables UE mobility, useful for ground-truth
	// recovery oracles).
	MoveProb float64
}

func (c Config) withDefaults() Config {
	if c.NumBS <= 0 {
		c.NumBS = 40
	}
	if c.Days <= 0 {
		c.Days = 7
	}
	if c.MoveProb == 0 {
		c.MoveProb = 0.25
	}
	return c
}

// Env is a fully prepared experiment environment: simulated topology
// and workload, collected measurements, and fitted session-level
// models.
type Env struct {
	Config   Config
	Topo     *netsim.Topology
	Sim      *netsim.Simulator
	Coll     *probe.Collector
	Models   *core.ModelSet
	Arrivals []*core.ArrivalModel // per BS load decile
	Catalog  []services.Profile   // simulator service catalog (share-ordered)
	// cache memoizes the aggregations the experiment drivers repeat
	// over the (immutable) collector; see cache.go.
	cache aggCache
}

// NewEnv simulates the measurement campaign, collects the §3.2
// statistics and fits the §5 models, returning everything the
// experiment drivers need.
func NewEnv(cfg Config) (*Env, error) {
	c := cfg.withDefaults()
	simSpan := obs.StartSpan("simulate")
	topo, err := netsim.NewTopology(netsim.TopologyConfig{NumBS: c.NumBS, Seed: c.Seed})
	if err != nil {
		return nil, fmt.Errorf("experiments: topology: %w", err)
	}
	sim, err := netsim.NewSimulator(topo, netsim.SimConfig{
		Days:     c.Days,
		Seed:     c.Seed,
		MoveProb: c.MoveProb,
	})
	simSpan.End()
	if err != nil {
		return nil, fmt.Errorf("experiments: simulator: %w", err)
	}
	coll, err := Collect(sim, c.Days, nil)
	if err != nil {
		return nil, fmt.Errorf("experiments: collect: %w", err)
	}
	models, err := core.FitServiceModels(coll, sim.Services, nil)
	if err != nil {
		return nil, fmt.Errorf("experiments: fit models: %w", err)
	}
	arrivals, err := core.FitArrivalsByDecile(coll, topo)
	if err != nil {
		return nil, fmt.Errorf("experiments: fit arrivals: %w", err)
	}
	models.Arrivals = arrivals
	return &Env{
		Config:   c,
		Topo:     topo,
		Sim:      sim,
		Coll:     coll,
		Models:   models,
		Arrivals: arrivals,
		Catalog:  sim.Services,
	}, nil
}

// serviceIndex returns the catalog index of a service name.
func (e *Env) serviceIndex(name string) (int, error) {
	for i, p := range e.Catalog {
		if p.Name == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("experiments: unknown service %q", name)
}
