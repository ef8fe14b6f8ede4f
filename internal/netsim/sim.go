package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"mobiletraffic/internal/obs"
	"mobiletraffic/internal/services"
)

// Session is one simulated transport-layer session served (possibly in
// part) by a single BS, the unit of observation of the whole paper.
type Session struct {
	BS      int     // topology index of the serving BS
	Service int     // index into the simulator's service catalog
	Day     int     // simulation day
	Minute  int     // minute of day of session establishment
	Start   float64 // second of day of establishment
	// Duration is the time in seconds the session was served by this
	// BS; for sessions interrupted by a handover it is the dwell time.
	Duration float64
	// Volume is the traffic in bytes the session generated at this BS.
	Volume float64
	// Truncated marks sessions cut short by UE mobility: the partial,
	// transient sessions the paper highlights as overlooked by prior
	// traffic models (insight e, §4.5).
	Truncated bool
}

// Throughput returns the session's mean throughput in bytes/second.
func (s *Session) Throughput() float64 {
	if s.Duration <= 0 {
		return 0
	}
	return s.Volume / s.Duration
}

// SimConfig configures session synthesis. Zero values take documented
// defaults.
type SimConfig struct {
	// Days is the number of simulated days (default 3; the paper
	// observes 45 but finds day-type invariance, §4.4).
	Days int
	// MoveProb is the probability that a session belongs to an
	// in-transit UE and is truncated by a handover (default 0.25; any
	// negative value disables mobility entirely).
	MoveProb float64
	// MeanDwell is the mean BS dwell time in seconds for in-transit UEs
	// (default 45 s, consistent with the paper's reading of Netflix's
	// sub-minute transient mode).
	MeanDwell float64
	// ShareJitterCV scales the per-BS perturbation of service session
	// shares (default 0.01: Table 1 reports session-share CVs around 1%).
	ShareJitterCV float64
	// Weekend scales arrival rates on Saturdays and Sundays (default 1:
	// §4.4 finds workday/weekend session-level statistics
	// indistinguishable).
	Weekend float64
	Seed    int64
}

func (c SimConfig) withDefaults() SimConfig {
	if c.Days <= 0 {
		c.Days = 3
	}
	switch {
	case c.MoveProb == 0:
		c.MoveProb = 0.25
	case c.MoveProb < 0:
		c.MoveProb = 0
	}
	if c.MeanDwell <= 0 {
		c.MeanDwell = 45
	}
	if c.ShareJitterCV <= 0 {
		c.ShareJitterCV = 0.01
	}
	if c.Weekend <= 0 {
		c.Weekend = 1
	}
	return c
}

// Simulator generates the session workload of a Topology according to
// the ground-truth service catalog.
type Simulator struct {
	Topo     *Topology
	Config   SimConfig
	Services []services.Profile
	// baseProbs holds the nationwide per-service session probabilities;
	// bsProbs the per-BS jittered variants (constant over time, CV ~1%,
	// §5.1).
	baseProbs []float64
	bsProbs   [][]float64
	// bsAlias holds one Walker alias table per BS over that BS's
	// jittered shares, so the categorical service draw is O(1) instead
	// of an O(#services) cumulative scan.
	bsAlias []*services.AliasTable
	// phase is the precomputed 1440-entry DayWeight table: phase[m]
	// stores the exact float DayWeight(m) returns, so the sampler reads
	// it in place of two math.Exp calls per minute.
	phase []float64
	// Workload accounting (netsim_*_total), batched per sampled day so
	// the per-session loop stays atomics-free; nil handles when
	// instrumentation is disabled.
	obsSessions *obs.Counter
	obsSplits   *obs.Counter
	// colsFree is the freelist of DayColumns scratch GenerateDay
	// samples into, guarded by colsMu because GenerateDay may be called
	// from concurrent workers. A freelist rather than a sync.Pool: a
	// pool may drop buffers (the race detector drops them at random),
	// while the freelist keeps every scratch it made, so a steady
	// caller reuses its scratch instead of reallocating a full day.
	colsMu   sync.Mutex
	colsFree []*DayColumns
	// maxDay is the analytic day-size bound MaxDaySessions returns,
	// computed once at construction.
	maxDay int
}

// NewSimulator builds a simulator over the topology using the full
// 31-service catalog.
func NewSimulator(topo *Topology, cfg SimConfig) (*Simulator, error) {
	profiles, _ := services.SessionShareProbs()
	return NewSimulatorWithCatalog(topo, cfg, profiles)
}

// NewSimulatorWithCatalog builds a simulator over a custom service
// catalog — e.g. a future-year catalog with drifted popularity to study
// model aging (§7 notes the models "will require updates over the
// years"). Profiles must have positive session shares.
func NewSimulatorWithCatalog(topo *Topology, cfg SimConfig, profiles []services.Profile) (*Simulator, error) {
	if topo == nil || len(topo.BSs) == 0 {
		return nil, fmt.Errorf("netsim: empty topology")
	}
	if len(profiles) == 0 {
		return nil, fmt.Errorf("netsim: empty service catalog")
	}
	c := cfg.withDefaults()
	var total float64
	for _, p := range profiles {
		if p.SessionSharePct < 0 {
			return nil, fmt.Errorf("netsim: negative session share for %s", p.Name)
		}
		total += p.SessionSharePct
	}
	if total <= 0 {
		return nil, fmt.Errorf("netsim: catalog session shares sum to zero")
	}
	probs := make([]float64, len(profiles))
	for i, p := range profiles {
		probs[i] = p.SessionSharePct / total
	}
	// Own a copy of the catalog and memoize each profile's power-law
	// terms once, so the per-session sampling hot path never re-derives
	// them (two math.Pow calls per session otherwise).
	owned := make([]services.Profile, len(profiles))
	copy(owned, profiles)
	for i := range owned {
		owned[i].Precompute()
	}
	s := &Simulator{
		Topo:        topo,
		Config:      c,
		Services:    owned,
		baseProbs:   probs,
		obsSessions: obs.CounterOf("netsim_sessions_generated_total"),
		obsSplits:   obs.CounterOf("netsim_handover_splits_total"),
	}
	s.phase = make([]float64, MinutesPerDay)
	for m := range s.phase {
		s.phase[m] = DayWeight(m)
	}
	s.maxDay = computeMaxDaySessions(topo, c, s.phase)
	rng := rand.New(rand.NewSource(c.Seed ^ 0x5eed))
	s.bsProbs = make([][]float64, len(topo.BSs))
	s.bsAlias = make([]*services.AliasTable, len(topo.BSs))
	for b := range topo.BSs {
		p := make([]float64, len(probs))
		var total float64
		for i, v := range probs {
			p[i] = v * math.Max(0, 1+c.ShareJitterCV*rng.NormFloat64())
			total += p[i]
		}
		for i := range p {
			p[i] /= total
		}
		s.bsProbs[b] = p
		tab, err := services.NewAliasTable(p)
		if err != nil {
			return nil, fmt.Errorf("netsim: BS %d alias table: %w", b, err)
		}
		s.bsAlias[b] = tab
	}
	return s, nil
}

// ServiceIndex returns the catalog index of the named service.
func (s *Simulator) ServiceIndex(name string) (int, error) {
	for i, p := range s.Services {
		if p.Name == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("netsim: unknown service %q", name)
}

// IsWeekend reports whether the simulation day falls on a weekend
// (days count from Monday = 0).
func IsWeekend(day int) bool {
	d := day % 7
	return d == 5 || d == 6
}

// BSDayRNG derives a deterministic random stream for one (BS, day)
// cell from a master seed, so independent consumers — the simulator's
// session synthesis, the fault injector of internal/faults — can
// generate per-cell streams in any order (and in parallel) while
// staying bit-identical to a serial run.
func BSDayRNG(masterSeed int64, bsIdx, day int) *rand.Rand {
	seed := uint64(masterSeed)
	seed = seed*0x9E3779B97F4A7C15 + uint64(bsIdx)*0xBF58476D1CE4E5B9 + uint64(day)*0x94D049BB133111EB + 1
	// SplitMix64 finalizer for good bit dispersion across (bs, day).
	seed ^= seed >> 30
	seed *= 0xBF58476D1CE4E5B9
	seed ^= seed >> 27
	return rand.New(rand.NewSource(int64(seed)))
}

// getCols takes a DayColumns scratch off the freelist, or makes one
// pre-sized to the campaign's largest day so sampling never grows it.
func (s *Simulator) getCols() *DayColumns {
	s.colsMu.Lock()
	if n := len(s.colsFree); n > 0 {
		c := s.colsFree[n-1]
		s.colsFree = s.colsFree[:n-1]
		s.colsMu.Unlock()
		return c
	}
	s.colsMu.Unlock()
	c := new(DayColumns)
	c.Resize(s.maxDay)
	c.Resize(0)
	return c
}

// putCols returns a scratch taken by getCols to the freelist.
func (s *Simulator) putCols(c *DayColumns) {
	s.colsMu.Lock()
	s.colsFree = append(s.colsFree, c)
	s.colsMu.Unlock()
}

// GenerateDay synthesizes all sessions established at the BS (by
// topology index) during the given day, invoking yield for each in
// minute-major order. It is the session-level view of SampleDayColumns:
// the day is sampled into a DayColumns scratch from the freelist and
// each session is read back out of the columns, so the stream is
// identical, session for session, to the columnar one and
// deterministic in the simulator seed. The freelist keeps repeated
// calls free of per-day allocations.
func (s *Simulator) GenerateDay(bsIdx, day int, yield func(Session)) error {
	c := s.getCols()
	defer s.putCols(c)
	if err := s.SampleDayColumns(bsIdx, day, c); err != nil {
		return err
	}
	for i, n := 0, c.N(); i < n; i++ {
		// Value columns live in grouped order; the session's slot
		// bridges back to emission order.
		g := c.Slot[i]
		yield(Session{
			BS:        bsIdx,
			Service:   int(c.Svc[i]),
			Day:       day,
			Minute:    int(c.Minute[i]),
			Start:     c.Start[i],
			Duration:  c.Duration[g],
			Volume:    c.Volume[g],
			Truncated: c.Truncated[i],
		})
	}
	return nil
}
