// Package mobiletraffic is a library for characterizing and generating
// session-level mobile traffic demands, reproducing "Characterizing and
// Modeling Session-Level Mobile Traffic Demands from Large-Scale
// Measurements" (Zanella, Bazco-Nogueras, Ziemlicki, Fiore — ACM IMC
// 2023).
//
// The library models mobile traffic at the level of individual
// transport-layer (TCP/UDP) sessions served by one base station:
//
//   - the per-minute session arrival process at a BS is bi-modal — a
//     daytime Gaussian (sigma ~ mu/10) and a nighttime Pareto (shape
//     1.765) — with a constant measurement-driven per-service breakdown
//     (paper §5.1);
//   - the per-session traffic volume PDF of each service is a base-10
//     log-normal mixture: one main trend plus at most three
//     characteristic peaks found by residual analysis (paper §5.2);
//   - the session duration relates to its volume through a power law
//     v_s(d) = alpha_s * d^beta_s, super-linear for streaming services
//     and sub-linear for interactive ones (paper §5.3).
//
// Fitted models are serializable parameter tuples
// [mu_s, sigma_s, {k_n, mu_n, sigma_n}, alpha_s, beta_s] (paper §5.4)
// and drive a Generator producing synthetic per-minute session
// workloads with realistic volume, duration and throughput — suitable
// for network planning, slicing and vRAN orchestration studies (paper
// §6).
//
// The paper's measurement dataset is proprietary; this repository
// bundles a measurement-campaign simulator (see FitFromSimulation and
// DESIGN.md) whose per-service ground truth is seeded from the paper's
// published statistics, so the full pipeline runs end-to-end and every
// fitted model can be validated against known ground truth.
package mobiletraffic

import (
	"fmt"
	"io"
	"sort"

	"mobiletraffic/internal/core"
	"mobiletraffic/internal/experiments"
	"mobiletraffic/internal/faults"
	"mobiletraffic/internal/netsim"
	"mobiletraffic/internal/probe"
	"mobiletraffic/internal/services"
)

// Re-exported model types: the paper's released artifacts.
type (
	// ModelSet is the released collection of per-service session models
	// plus per-BS-class arrival models.
	ModelSet = core.ModelSet
	// ServiceModel is one service's complete parameter tuple.
	ServiceModel = core.ServiceModel
	// VolumeModel is the log-normal mixture of the per-session traffic
	// volume PDF (§5.2).
	VolumeModel = core.VolumeModel
	// VolumeComponent is one residual mixture component.
	VolumeComponent = core.VolumeComponent
	// DurationModel is the duration-volume power law (§5.3).
	DurationModel = core.DurationModel
	// ArrivalModel is the bi-modal per-minute arrival model (§5.1).
	ArrivalModel = core.ArrivalModel
	// Generator draws synthetic per-minute session workloads from a
	// ModelSet (§5.4).
	Generator = core.Generator
	// GenSession is one generated session: volume, duration and mean
	// throughput.
	GenSession = core.GenSession
	// CampaignSpec describes a parallel generation campaign: a grid of
	// (BS, day) cells, each drawing from its own keyed substream, so
	// Generator.GenerateCampaign output is bit-identical for every
	// worker count.
	CampaignSpec = core.CampaignSpec
	// DayBlock is one (BS, day) cell of campaign output in columnar
	// layout with a CSR per-minute index.
	DayBlock = core.DayBlock
	// ServiceProfile is a ground-truth service description used by the
	// bundled measurement simulator.
	ServiceProfile = services.Profile
	// FitReport accounts for every service a graceful-degradation fit
	// skipped or modeled with a fallback.
	FitReport = core.FitReport
	// FitIssue is one skipped or degraded service in a FitReport.
	FitIssue = core.FitIssue
	// FaultConfig sets measurement-plane fault intensities for
	// FitFromSimulationFaulty (probe outages, truncated days, record
	// loss/duplication, signaling gaps, misclassification bursts).
	FaultConfig = faults.Config
)

// NewGenerator validates a model set and returns a deterministic
// session generator.
func NewGenerator(set *ModelSet, seed int64) (*Generator, error) {
	return core.NewGenerator(set, seed)
}

// ParseModels reads a released parameter file (JSON).
func ParseModels(data []byte) (*ModelSet, error) { return core.ModelSetFromJSON(data) }

// LoadModels reads a released parameter file from r.
func LoadModels(r io.Reader) (*ModelSet, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("mobiletraffic: read models: %w", err)
	}
	return ParseModels(data)
}

// SaveModels writes the model set as indented JSON to w.
func SaveModels(set *ModelSet, w io.Writer) error {
	data, err := set.ToJSON()
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

// Services returns the bundled 31-service catalog (paper Table 1 plus
// three extra modeled services), ordered by descending session share.
func Services() []ServiceProfile { return services.All() }

// SimulationConfig sizes the bundled measurement-campaign simulation
// used when no real session data is available. Zero values take
// defaults: 40 BSs, 7 days, 25% transient sessions.
type SimulationConfig struct {
	NumBS int
	Days  int
	Seed  int64
	// MoveProb is the share of transient (mobility-truncated) sessions;
	// negative disables mobility.
	MoveProb float64
}

// FitFromSimulation runs the bundled measurement simulation (a
// scaled-down stand-in for the paper's 282k-BS campaign) and fits the
// complete §5 model set on it: per-service volume mixtures and power
// laws plus per-decile arrival models.
func FitFromSimulation(cfg SimulationConfig) (*ModelSet, error) {
	set, _, err := FitFromSimulationFaulty(cfg, FaultConfig{})
	return set, err
}

// FitFromSimulationFaulty is FitFromSimulation with measurement-plane
// faults injected between the simulated sessions and the probe
// collector: BS-day outages, truncated days, gateway record loss and
// duplication, signaling gaps and classifier misclassification bursts,
// all seeded by f.Seed. The models are then fitted with the
// graceful-degradation pipeline, so a partial ModelSet plus a FitReport
// listing every skipped or fallback-fitted service is returned even
// when faults starve part of the catalog. A zero FaultConfig collects a
// pristine campaign.
func FitFromSimulationFaulty(cfg SimulationConfig, f FaultConfig) (*ModelSet, *FitReport, error) {
	if cfg.NumBS <= 0 {
		cfg.NumBS = 40
	}
	if cfg.Days <= 0 {
		cfg.Days = 7
	}
	topo, err := netsim.NewTopology(netsim.TopologyConfig{NumBS: cfg.NumBS, Seed: cfg.Seed})
	if err != nil {
		return nil, nil, err
	}
	sim, err := netsim.NewSimulator(topo, netsim.SimConfig{
		Days: cfg.Days, Seed: cfg.Seed, MoveProb: cfg.MoveProb,
	})
	if err != nil {
		return nil, nil, err
	}
	inj, err := faults.New(f, len(sim.Services))
	if err != nil {
		return nil, nil, err
	}
	coll, err := experiments.Collect(sim, cfg.Days, inj)
	if err != nil {
		return nil, nil, err
	}
	set, report, err := core.FitServiceModelsReport(coll, sim.Services, nil)
	if err != nil {
		return nil, nil, err
	}
	arrivals, arrReport, err := core.FitArrivalsByDecileReport(coll, topo)
	if err != nil {
		return nil, nil, err
	}
	set.Arrivals = arrivals
	report.Merge(arrReport)
	return set, report, nil
}

// SessionObservation is one measured transport-layer session, the input
// unit for fitting models on user-provided data.
type SessionObservation struct {
	Service  string  // service name (free-form, defines the model name)
	BS       int     // serving base station identifier
	Day      int     // observation day (0-based; day 0 = Monday)
	Minute   int     // minute of day of establishment, [0, 1440)
	Volume   float64 // session traffic in bytes
	Duration float64 // session duration in seconds
}

// FitFromObservations aggregates user-provided sessions into the
// paper's per-(service, BS, day) statistics (§3.2) and fits the §5
// models. At least a few hundred sessions per service are needed for a
// stable fit; services below minSessions (default 100 when <= 0) are
// skipped. BS identifiers may be any integers, e.g. sparse cell IDs;
// volumes and durations must be positive and finite.
func FitFromObservations(obs []SessionObservation, minSessions float64) (*ModelSet, error) {
	if len(obs) == 0 {
		return nil, fmt.Errorf("mobiletraffic: no observations")
	}
	// Assign service indices in first-seen order, and BS indices in
	// ascending-identifier order: the collector is dense in the BS
	// index, so large sparse identifiers must not size it. Dense
	// identifiers 0..n-1 map to themselves.
	idx := map[string]int{}
	var names []string
	bsIdx := map[int]int{}
	for _, o := range obs {
		if _, ok := idx[o.Service]; !ok {
			idx[o.Service] = len(names)
			names = append(names, o.Service)
		}
		bsIdx[o.BS] = 0
	}
	ids := make([]int, 0, len(bsIdx))
	for id := range bsIdx {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for i, id := range ids {
		bsIdx[id] = i
	}
	coll, err := probe.NewCollector(len(names))
	if err != nil {
		return nil, err
	}
	for i, o := range obs {
		if o.Minute < 0 || o.Minute >= netsim.MinutesPerDay {
			return nil, fmt.Errorf("mobiletraffic: observation %d: minute %d out of range", i, o.Minute)
		}
		if o.Volume <= 0 || o.Duration <= 0 {
			return nil, fmt.Errorf("mobiletraffic: observation %d: volume and duration must be positive", i)
		}
		err := coll.Observe(netsim.Session{
			Service:  idx[o.Service],
			BS:       bsIdx[o.BS],
			Day:      o.Day,
			Minute:   o.Minute,
			Volume:   o.Volume,
			Duration: o.Duration,
		})
		if err != nil {
			return nil, fmt.Errorf("mobiletraffic: observation %d: %w", i, err)
		}
	}
	catalog := make([]services.Profile, len(names))
	for name, i := range idx {
		catalog[i] = services.Profile{Name: name}
	}
	opts := &core.FitOptions{MinSessions: minSessions}
	if minSessions <= 0 {
		opts = nil
	}
	return core.FitServiceModels(coll, catalog, opts)
}
