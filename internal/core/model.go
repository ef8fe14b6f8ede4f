package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"

	"mobiletraffic/internal/mathx"
	"mobiletraffic/internal/obs"
)

// ServiceModel is the complete released model of one service (§5.4):
// the parameter tuple [mu_s, sigma_s, {k_n, mu_n, sigma_n}_n, alpha_s,
// beta_s] plus bookkeeping. Traffic volume statistics are extracted
// from the volume mixture; duration follows from the inverse power law;
// average throughput is their ratio.
type ServiceModel struct {
	Name         string        `json:"name"`
	SessionShare float64       `json:"session_share"` // probability a new session belongs to this service
	Volume       VolumeModel   `json:"volume"`
	Duration     DurationModel `json:"duration"`
	// VolumeEMD is the §5.4 quality metric of the volume model against
	// the measurement PDF it was fitted on.
	VolumeEMD float64 `json:"volume_emd"`
	// DurationNoise is the log-domain jitter used when generating
	// durations (0 reproduces the deterministic inverse of §5.4).
	DurationNoise float64 `json:"duration_noise,omitempty"`
}

// GenSession is one synthetic session drawn from a ServiceModel:
// volume from F_s, duration via the inverse v_s^{-1}, throughput as
// their ratio (§5.4).
type GenSession struct {
	Service    string
	Volume     float64 // bytes
	Duration   float64 // seconds
	Throughput float64 // bytes/second
}

// ModelSet is the released collection of per-service models together
// with the shared arrival model(s) per BS load class.
type ModelSet struct {
	Services []ServiceModel  `json:"services"`
	Arrivals []*ArrivalModel `json:"arrivals,omitempty"` // per BS load class
}

// MarshalJSON is provided by the embedded struct tags; ToJSON returns
// an indented rendering of the released parameters.
func (s *ModelSet) ToJSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// ModelSetFromJSON parses a released parameter file.
func ModelSetFromJSON(data []byte) (*ModelSet, error) {
	var out ModelSet
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("core: parse model set: %w", err)
	}
	return &out, nil
}

// ByName returns the service model with the given name.
func (s *ModelSet) ByName(name string) (*ServiceModel, error) {
	for i := range s.Services {
		if s.Services[i].Name == name {
			return &s.Services[i], nil
		}
	}
	return nil, fmt.Errorf("core: model set has no service %q", name)
}

// Validate checks that every released parameter tuple is usable for
// generation: finite parameters, positive widths and prefactors, and
// session shares inside [0, 1] that do not sum past one. A parameter
// file that fails Validate would produce NaN volumes or unsampleable
// distributions, so loaders should reject it outright.
func (s *ModelSet) Validate() error {
	span := obs.StartSpan("validate")
	defer span.End()
	finite := mathx.IsFinite
	var problems []string
	bad := func(format string, args ...interface{}) {
		problems = append(problems, fmt.Sprintf(format, args...))
	}
	if len(s.Services) == 0 {
		bad("no services")
	}
	var shareSum float64
	for i := range s.Services {
		m := &s.Services[i]
		name := m.Name
		if name == "" {
			name = fmt.Sprintf("service #%d", i)
			bad("%s: empty name", name)
		}
		if !finite(m.SessionShare) || m.SessionShare < 0 || m.SessionShare > 1 {
			bad("%s: session share %v outside [0, 1]", name, m.SessionShare)
		} else {
			shareSum += m.SessionShare
		}
		if !finite(m.Volume.MainMu) {
			bad("%s: non-finite volume mu %v", name, m.Volume.MainMu)
		}
		if !finite(m.Volume.MainSigma) || m.Volume.MainSigma <= 0 {
			bad("%s: volume sigma %v not positive", name, m.Volume.MainSigma)
		}
		if !finite(m.Volume.MaxVolume) || m.Volume.MaxVolume < 0 {
			bad("%s: invalid max volume %v", name, m.Volume.MaxVolume)
		}
		for j, p := range m.Volume.Peaks {
			if !finite(p.K) || p.K <= 0 || !finite(p.Mu) || !finite(p.Sigma) || p.Sigma <= 0 {
				bad("%s: peak %d has invalid parameters (k=%v mu=%v sigma=%v)", name, j+1, p.K, p.Mu, p.Sigma)
			}
		}
		if !finite(m.Duration.Alpha) || m.Duration.Alpha <= 0 {
			bad("%s: power-law alpha %v not positive", name, m.Duration.Alpha)
		}
		if !finite(m.Duration.Beta) || m.Duration.Beta == 0 {
			bad("%s: power-law beta %v not invertible", name, m.Duration.Beta)
		}
		if math.IsInf(m.VolumeEMD, 0) || m.VolumeEMD < 0 {
			bad("%s: invalid volume EMD %v", name, m.VolumeEMD)
		}
		if !finite(m.DurationNoise) || m.DurationNoise < 0 {
			bad("%s: invalid duration noise %v", name, m.DurationNoise)
		}
	}
	if shareSum > 1+1e-6 {
		bad("session shares sum to %v > 1", shareSum)
	}
	for i, a := range s.Arrivals {
		if a == nil {
			bad("arrival class %d: nil model", i+1)
			continue
		}
		if !finite(a.PeakMu) || a.PeakMu < 0 || !finite(a.PeakSigma) || a.PeakSigma < 0 {
			bad("arrival class %d: invalid daytime Gaussian (mu=%v sigma=%v)", i+1, a.PeakMu, a.PeakSigma)
		}
		if !finite(a.OffShape) || a.OffShape <= 0 || !finite(a.OffScale) || a.OffScale <= 0 {
			bad("arrival class %d: invalid nighttime Pareto (shape=%v scale=%v)", i+1, a.OffShape, a.OffScale)
		}
	}
	if len(problems) > 0 {
		return fmt.Errorf("core: invalid model set:\n  %s", strings.Join(problems, "\n  "))
	}
	return nil
}

// Normalize rescales the session shares to sum to one, returning an
// error when they are all zero.
func (s *ModelSet) Normalize() error {
	var total float64
	for _, m := range s.Services {
		total += m.SessionShare
	}
	if total <= 0 {
		return errors.New("core: model set has zero total session share")
	}
	for i := range s.Services {
		s.Services[i].SessionShare /= total
	}
	return nil
}

// Generator produces synthetic per-minute session workloads from a
// ModelSet: arrival counts from the bi-modal arrival model of the
// requested BS class, service attribution by the Table 1 shares, and
// per-session volume/duration/throughput from the per-service models —
// the complete generation recipe of §5.4 / §6.1. Draws come from a
// precomputed table-driven plan on an inline PCG stream.
type Generator struct {
	Set *ModelSet
	// pcg is the serial stream: inline (no pointer chase, no
	// sync.Mutex), beside the precomputed generation plan.
	pcg  mathx.PCG
	plan *genPlan
	// seed is the master seed, kept for deriving substreams (the
	// per-(BS, day) campaign cells and per-(client, stream) server
	// generators of the parallel generation plane).
	seed uint64
	// byName resolves Session's name argument to a service index.
	byName map[string]int
}

// NewGenerator validates the model set and prepares a generator with
// the given seed. The caller's set is not modified: session shares are
// normalized into generator-private tables.
func NewGenerator(set *ModelSet, seed int64) (*Generator, error) {
	if set == nil || len(set.Services) == 0 {
		return nil, errors.New("core: generator needs a non-empty model set")
	}
	var total float64
	for i := range set.Services {
		total += set.Services[i].SessionShare
	}
	if total <= 0 {
		return nil, errors.New("core: model set has zero total session share")
	}
	shares := make([]float64, len(set.Services))
	for i := range set.Services {
		shares[i] = set.Services[i].SessionShare / total
	}
	plan, err := newGenPlan(set, shares)
	if err != nil {
		return nil, err
	}
	g := &Generator{Set: set, plan: plan, seed: uint64(seed)}
	g.byName = make(map[string]int, len(set.Services))
	for i := range set.Services {
		g.byName[set.Services[i].Name] = i
	}
	g.pcg.SeedStream(uint64(seed), 0x67656e, 2)
	return g, nil
}

// NewGeneratorEngine is NewGenerator behind an engine argument that
// accepts only "" and GenV2. It exists for the bench/ harness, which
// calls it, and goes with the next benchmark change.
func NewGeneratorEngine(set *ModelSet, seed int64, engine Engine) (*Generator, error) {
	if engine != "" && engine != GenV2 {
		return nil, fmt.Errorf("core: unknown generation engine %q (want v2)", engine)
	}
	return NewGenerator(set, seed)
}

// Substream returns an independent generator on the (client, stream)
// cell of this generator's stream family: same compiled plan and model
// set (shared, immutable), its own PCG seeded via
// SeedStream(master^genClientDomain, client, stream). Substreams are
// pure functions of (master seed, client, stream) — the order they are
// created or drawn from never affects any stream's output — so a
// session-stream server can hand every consumer its own generator and
// stay deterministic under any interleaving.
func (g *Generator) Substream(client, stream uint64) *Generator {
	return g.substream(genClientDomain, client, stream)
}

// substream derives the (a, b) cell generator of the given key domain.
// The plan, byName table and ModelSet are shared read-only; only the
// 16-byte PCG is per-substream state, so deriving one is allocation-
// cheap enough to do per (BS, day) campaign cell.
func (g *Generator) substream(domain, a, b uint64) *Generator {
	sub := &Generator{Set: g.Set, plan: g.plan, seed: g.seed, byName: g.byName}
	sub.pcg.SeedStream(g.seed^domain, a, b)
	return sub
}

// generate draws one session of service index svc: both the volume
// and the duration cost one Gaussian variate and one math.Exp, using
// the natural log of the volume to skip the logarithm half of the
// power-law inversion.
func (g *Generator) generate(svc int) GenSession {
	sp := &g.plan.svcs[svc]
	v, lnV := sp.sampleVolumeLn(&g.pcg)
	d := sp.sampleDurationLn(lnV, &g.pcg)
	return GenSession{
		Service:    g.Set.Services[svc].Name,
		Volume:     v,
		Duration:   d,
		Throughput: v / d,
	}
}

// Minute generates the sessions established in one minute at a BS of
// the given load class (index into Set.Arrivals); peak selects the
// daytime or nighttime arrival mode. Allocates a fresh slice per call;
// steady-state loops should use MinuteAppend with a reused buffer.
func (g *Generator) Minute(class int, peak bool) ([]GenSession, error) {
	out, err := g.MinuteAppend(nil, class, peak)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// MinuteAppend generates one minute's sessions and appends them to
// dst, returning the extended slice. Passing a buffer with spare
// capacity makes the steady state allocation-free (pinned by
// TestGenV2MinuteAppendAllocs); the draw sequence is identical to
// Minute.
func (g *Generator) MinuteAppend(dst []GenSession, class int, peak bool) ([]GenSession, error) {
	if len(g.Set.Arrivals) == 0 {
		return dst, errors.New("core: model set has no arrival models")
	}
	if class < 0 || class >= len(g.Set.Arrivals) {
		return dst, fmt.Errorf("core: arrival class %d out of range [0, %d)", class, len(g.Set.Arrivals))
	}
	n := g.Set.Arrivals[class].SampleCountFast(peak, &g.pcg)
	dst = growSessions(dst, n)
	for k := 0; k < n; k++ {
		svc := g.plan.svcPick.Pick(g.pcg.Float64())
		dst = append(dst, g.generate(svc))
	}
	return dst, nil
}

// growSessions ensures dst has room for n more sessions with at most
// one allocation, so a minute fill never reallocates mid-loop.
func growSessions(dst []GenSession, n int) []GenSession {
	if cap(dst)-len(dst) >= n {
		return dst
	}
	grown := make([]GenSession, len(dst), len(dst)+n)
	copy(grown, dst)
	return grown
}

// SessionFor generates a single session of the service at the given
// index — the hot-path form of Session, without a name round-trip.
func (g *Generator) SessionFor(idx int) (GenSession, error) {
	if idx < 0 || idx >= len(g.Set.Services) {
		return GenSession{}, fmt.Errorf("core: service index %d out of range [0, %d)", idx, len(g.Set.Services))
	}
	return g.generate(idx), nil
}

// Session generates a single session of the named service.
func (g *Generator) Session(name string) (GenSession, error) {
	idx, ok := g.byName[name]
	if !ok {
		return GenSession{}, fmt.Errorf("core: model set has no service %q", name)
	}
	return g.SessionFor(idx)
}
