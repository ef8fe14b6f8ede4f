// Package faults injects deterministic, seeded failures into the
// netsim→probe measurement plane. The paper's pipeline runs on a real
// operator's probes, where the export is never pristine: probes go
// dark for whole BS×day cells, collection days are truncated by
// restarts, the gateway tap loses or duplicates flow records under
// load, signaling gaps leave flows without a usable location history,
// and the DPI classifier misroutes bursts of flows of one service to
// another. An Injector reproduces all of these over the simulated
// session stream so the graceful-degradation fitting pipeline
// (core.FitServiceModelsReport) can be verified against known fault
// intensities.
//
// Every fault decision is drawn from a per-(BS, day) random stream
// derived with netsim.BSDayRNG, so an injected campaign is
// reproducible for a given seed regardless of worker parallelism or
// generation order — the same property the simulator itself
// guarantees.
package faults

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"mobiletraffic/internal/netsim"
	"mobiletraffic/internal/obs"
)

// Config sets the fault intensities. All probabilities are per-unit
// rates in [0, 1]; the zero value injects nothing.
type Config struct {
	// OutageProb is the probability that a (BS, day) probe exports
	// nothing at all — a dark cell in the measurement campaign.
	OutageProb float64
	// TruncatedDayProb is the probability that a (BS, day) export is
	// cut short by a probe restart: sessions established after a
	// uniformly drawn cutoff minute are lost.
	TruncatedDayProb float64
	// FlowLossProb is the per-record loss rate at the gateway probe.
	FlowLossProb float64
	// FlowDupProb is the per-record duplication rate at the gateway
	// probe (a retransmitted export record counted twice).
	FlowDupProb float64
	// SignalGapProb is the probability that a flow's UE has no usable
	// signaling history; such flows cannot be geo-referenced and the
	// operator drops them from the per-BS statistics (§3.1).
	SignalGapProb float64
	// MisclassProb is the expected fraction of records carrying a
	// wrong service label. Misclassification arrives in bursts — a DPI
	// signature misfire reroutes a run of records to one wrong service
	// — so the burst-start probability is MisclassProb/MeanBurstLen.
	MisclassProb float64
	// MeanBurstLen is the mean length (in records) of a
	// misclassification burst; default 8 when zero or negative.
	MeanBurstLen float64
	// Seed drives every fault decision; independent of the simulator
	// seed so fault realizations can be varied against a fixed
	// workload.
	Seed int64
}

// DefaultMeanBurstLen is the mean misclassification burst length used
// when Config.MeanBurstLen is unset.
const DefaultMeanBurstLen = 8

// Scale returns a copy of the config with every fault probability
// multiplied by intensity (clamped to [0, 1]); the seed and burst
// length are preserved. Scale(0) is a fault-free config, Scale(1) the
// config itself — the knob a fault-intensity sweep turns.
func (c Config) Scale(intensity float64) Config {
	clamp := func(p float64) float64 {
		p *= intensity
		if p < 0 {
			return 0
		}
		if p > 1 {
			return 1
		}
		return p
	}
	out := c
	out.OutageProb = clamp(c.OutageProb)
	out.TruncatedDayProb = clamp(c.TruncatedDayProb)
	out.FlowLossProb = clamp(c.FlowLossProb)
	out.FlowDupProb = clamp(c.FlowDupProb)
	out.SignalGapProb = clamp(c.SignalGapProb)
	out.MisclassProb = clamp(c.MisclassProb)
	return out
}

func (c Config) validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"OutageProb", c.OutageProb},
		{"TruncatedDayProb", c.TruncatedDayProb},
		{"FlowLossProb", c.FlowLossProb},
		{"FlowDupProb", c.FlowDupProb},
		{"SignalGapProb", c.SignalGapProb},
		{"MisclassProb", c.MisclassProb},
	} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("faults: %s = %v outside [0, 1]", p.name, p.v)
		}
	}
	return nil
}

// Stats counts injected faults with atomic counters, so a parallel
// collection campaign can share one Injector across workers.
type Stats struct {
	outageDays    atomic.Int64
	truncatedDays atomic.Int64
	observed      atomic.Int64 // sessions entering the injector
	emitted       atomic.Int64 // sessions leaving it (incl. duplicates)
	truncDropped  atomic.Int64 // sessions lost to day truncation
	lost          atomic.Int64 // records lost at the gateway
	duplicated    atomic.Int64 // records duplicated at the gateway
	unreferenced  atomic.Int64 // records without signaling history
	misclassified atomic.Int64 // records with a remapped service label
}

// Snapshot is a plain-integer copy of the fault counters for
// reporting.
type Snapshot struct {
	OutageDays    int64 // (BS, day) cells that exported nothing
	TruncatedDays int64 // (BS, day) cells cut short
	Observed      int64 // sessions entering the injector
	Emitted       int64 // sessions leaving it (incl. duplicates)
	TruncDropped  int64 // sessions lost to day truncation
	Lost          int64 // records lost at the gateway probe
	Duplicated    int64 // records duplicated at the gateway probe
	Unreferenced  int64 // records dropped for missing signaling
	Misclassified int64 // records with a wrong service label
}

// Dropped returns the total number of sessions the injector removed
// from the stream (truncation + gateway loss + signaling gaps); outage
// days never enter the stream and are not included.
func (s Snapshot) Dropped() int64 { return s.TruncDropped + s.Lost + s.Unreferenced }

// Injector composes the configured faults over a session stream. It is
// safe for concurrent use: per-(BS, day) fault streams obtained from
// Day carry all mutable state, and the shared counters are atomic.
type Injector struct {
	cfg         Config
	numServices int
	stats       Stats
	// obsKind counts injected faults by kind
	// (faults_injected_total{kind=...}); handles are resolved once at
	// construction and are nil (free) when instrumentation is
	// disabled. They never touch the fault RNG, so realizations are
	// identical with instrumentation on or off.
	obsKind struct {
		outage, truncDay, loss, dup, gap, misclass *obs.Counter
	}
}

// New validates the config and builds an injector for a catalog of
// numServices services (needed to remap misclassified labels).
func New(cfg Config, numServices int) (*Injector, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if numServices <= 0 {
		return nil, fmt.Errorf("faults: injector needs >= 1 service, got %d", numServices)
	}
	if cfg.MeanBurstLen <= 0 {
		cfg.MeanBurstLen = DefaultMeanBurstLen
	}
	inj := &Injector{cfg: cfg, numServices: numServices}
	inj.obsKind.outage = obs.CounterOf("faults_injected_total", "kind", "outage_day")
	inj.obsKind.truncDay = obs.CounterOf("faults_injected_total", "kind", "truncated_day")
	inj.obsKind.loss = obs.CounterOf("faults_injected_total", "kind", "flow_loss")
	inj.obsKind.dup = obs.CounterOf("faults_injected_total", "kind", "flow_dup")
	inj.obsKind.gap = obs.CounterOf("faults_injected_total", "kind", "signal_gap")
	inj.obsKind.misclass = obs.CounterOf("faults_injected_total", "kind", "misclass")
	return inj, nil
}

// Config returns the injector's (validated, defaulted) configuration.
func (inj *Injector) Config() Config { return inj.cfg }

// Stats returns a snapshot of the fault counters accumulated so far.
func (inj *Injector) Stats() Snapshot {
	return Snapshot{
		OutageDays:    inj.stats.outageDays.Load(),
		TruncatedDays: inj.stats.truncatedDays.Load(),
		Observed:      inj.stats.observed.Load(),
		Emitted:       inj.stats.emitted.Load(),
		TruncDropped:  inj.stats.truncDropped.Load(),
		Lost:          inj.stats.lost.Load(),
		Duplicated:    inj.stats.duplicated.Load(),
		Unreferenced:  inj.stats.unreferenced.Load(),
		Misclassified: inj.stats.misclassified.Load(),
	}
}

// DayStream is the fault state of one (BS, day) probe export. It must
// be fed that cell's sessions in generation order and is not safe for
// concurrent use — each worker owns the streams of the cells it
// simulates, mirroring how each probe site owns its own export.
type DayStream struct {
	inj        *Injector
	rng        *rand.Rand
	down       bool
	cutoff     int // sessions at minute >= cutoff are lost
	burstLeft  int // remaining records in the current misclass burst
	burstShift int // service-index shift applied during the burst
}

// Day derives the deterministic fault stream of one (BS, day) cell.
// Whole-day decisions (outage, truncation cutoff) are drawn
// immediately, so Down can be checked before paying for session
// generation.
func (inj *Injector) Day(bs, day int) *DayStream {
	d := &DayStream{
		inj:    inj,
		rng:    netsim.BSDayRNG(inj.cfg.Seed^0xfa017, bs, day),
		cutoff: netsim.MinutesPerDay,
	}
	if d.rng.Float64() < inj.cfg.OutageProb {
		d.down = true
		inj.stats.outageDays.Add(1)
		inj.obsKind.outage.Inc()
		return d
	}
	if d.rng.Float64() < inj.cfg.TruncatedDayProb {
		d.cutoff = d.rng.Intn(netsim.MinutesPerDay)
		inj.stats.truncatedDays.Add(1)
		inj.obsKind.truncDay.Inc()
	}
	return d
}

// Down reports whether the whole (BS, day) export is lost; callers can
// skip session generation entirely for such cells.
func (d *DayStream) Down() bool { return d.down }

// CutoffMinute returns the first lost minute of a truncated day
// (netsim.MinutesPerDay when the day is complete).
func (d *DayStream) CutoffMinute() int { return d.cutoff }

// Apply pushes one observed session through the fault stream, invoking
// emit zero times (lost), once (passed, possibly relabeled) or twice
// (duplicated). Faults compose in measurement-plane order: outage and
// day truncation first, then gateway record loss, then the signaling
// gap check, then DPI misclassification, and finally export
// duplication.
func (d *DayStream) Apply(s netsim.Session, emit func(netsim.Session)) {
	st := &d.inj.stats
	st.observed.Add(1)
	if d.down {
		return
	}
	if s.Minute >= d.cutoff {
		st.truncDropped.Add(1)
		return
	}
	cfg := &d.inj.cfg
	if cfg.FlowLossProb > 0 && d.rng.Float64() < cfg.FlowLossProb {
		st.lost.Add(1)
		d.inj.obsKind.loss.Inc()
		return
	}
	if cfg.SignalGapProb > 0 && d.rng.Float64() < cfg.SignalGapProb {
		st.unreferenced.Add(1)
		d.inj.obsKind.gap.Inc()
		return
	}
	if d.burstLeft == 0 && cfg.MisclassProb > 0 &&
		d.rng.Float64() < cfg.MisclassProb/cfg.MeanBurstLen {
		// A DPI signature misfires: a geometric-length run of records
		// is consistently rerouted to one wrong service. Starting a
		// burst of mean length MeanBurstLen with probability
		// MisclassProb/MeanBurstLen keeps the per-record rate at
		// MisclassProb.
		d.burstLeft = 1 + d.geometric(cfg.MeanBurstLen)
		d.burstShift = 0
		if d.inj.numServices > 1 {
			d.burstShift = 1 + d.rng.Intn(d.inj.numServices-1)
		}
	}
	if d.burstLeft > 0 {
		d.burstLeft--
		if d.burstShift != 0 {
			s.Service = (s.Service + d.burstShift) % d.inj.numServices
			st.misclassified.Add(1)
			d.inj.obsKind.misclass.Inc()
		}
	}
	st.emitted.Add(1)
	emit(s)
	if cfg.FlowDupProb > 0 && d.rng.Float64() < cfg.FlowDupProb {
		st.duplicated.Add(1)
		d.inj.obsKind.dup.Inc()
		st.emitted.Add(1)
		emit(s)
	}
}

// ApplyColumns pushes one (BS, day) column of sessions through the
// fault stream: src is the cell's minute-major DayColumns (as
// netsim.SampleDayColumns emits), dst receives the surviving sessions
// — every column copied, the service label possibly remapped,
// duplicated records emitted twice in a row — and is resized to the
// emitted count (dst.Counts is cleared, not maintained; the Start
// column is copied only when src carries one). Misclassification
// bursts re-map service labels, so the sampler's by-service grouping
// cannot describe the output: dst is emitted with the grouping marked
// invalid (SvcSeg truncated) and its value columns in plain session
// order — src's grouped value columns are gathered through src.Slot —
// so downstream columnar folds take their ungrouped path. src is not
// modified; dst must not alias it.
//
// The fault realization is bit-identical to feeding the same sessions
// through Apply one by one in column order: the per-session RNG draws
// are consumed in exactly Apply's sequence, with the day-truncation
// suffix (which consumes no draws in Apply) dropped as one column
// range. Only the shared Stats/metrics counters are batched — one
// atomic add per fault kind per column instead of one per session.
func (d *DayStream) ApplyColumns(src, dst *netsim.DayColumns) {
	n := src.N()
	st := &d.inj.stats
	st.observed.Add(int64(n))
	dst.Counts = dst.Counts[:0]
	dst.SvcSeg = dst.SvcSeg[:0]
	dst.SkipStart = len(src.Start) != n
	dst.Resize(0)
	if d.down {
		return
	}
	keep := n
	if d.cutoff < netsim.MinutesPerDay {
		keep = src.CutoffIndex(d.cutoff)
		st.truncDropped.Add(int64(n - keep))
	}
	// Session order bridges to src's value columns through the grouped
	// slot when src carries the sampler's grouping, or the identity
	// when src is already in session order.
	grouped := src.Grouped(d.inj.numServices)
	cfg := &d.inj.cfg
	rng := d.rng
	var lost, gap, misclass, dup, emitted int64
	out := 0
	for i := 0; i < keep; i++ {
		if cfg.FlowLossProb > 0 && rng.Float64() < cfg.FlowLossProb {
			lost++
			continue
		}
		if cfg.SignalGapProb > 0 && rng.Float64() < cfg.SignalGapProb {
			gap++
			continue
		}
		if d.burstLeft == 0 && cfg.MisclassProb > 0 &&
			rng.Float64() < cfg.MisclassProb/cfg.MeanBurstLen {
			// Same burst model as Apply: a geometric-length run of
			// records consistently rerouted to one wrong service.
			d.burstLeft = 1 + d.geometric(cfg.MeanBurstLen)
			d.burstShift = 0
			if d.inj.numServices > 1 {
				d.burstShift = 1 + rng.Intn(d.inj.numServices-1)
			}
		}
		sv := src.Svc[i]
		if d.burstLeft > 0 {
			d.burstLeft--
			if d.burstShift != 0 {
				sv = int32((int(sv) + d.burstShift) % d.inj.numServices)
				misclass++
			}
		}
		dupHere := cfg.FlowDupProb > 0 && rng.Float64() < cfg.FlowDupProb
		copies := 1
		if dupHere {
			copies = 2
			dup++
		}
		emitted += int64(copies)
		if out+copies > dst.N() {
			dst.Resize(out + copies + (keep-i)*copies)
		}
		g := i
		if grouped {
			g = int(src.Slot[i])
		}
		for c := 0; c < copies; c++ {
			dst.Minute[out] = src.Minute[i]
			dst.Svc[out] = sv
			if !dst.SkipStart {
				dst.Start[out] = src.Start[i]
			}
			dst.Duration[out] = src.Duration[g]
			dst.Volume[out] = src.Volume[g]
			dst.LnV[out] = src.LnV[g]
			dst.LnD[out] = src.LnD[g]
			dst.Truncated[out] = src.Truncated[i]
			out++
		}
	}
	dst.Resize(out)
	st.emitted.Add(emitted)
	if lost > 0 {
		st.lost.Add(lost)
		d.inj.obsKind.loss.Add(lost)
	}
	if gap > 0 {
		st.unreferenced.Add(gap)
		d.inj.obsKind.gap.Add(gap)
	}
	if misclass > 0 {
		st.misclassified.Add(misclass)
		d.inj.obsKind.misclass.Add(misclass)
	}
	if dup > 0 {
		st.duplicated.Add(dup)
		d.inj.obsKind.dup.Add(dup)
	}
}

// geometric draws a geometric variate with the given mean.
func (d *DayStream) geometric(mean float64) int {
	if mean <= 1 {
		return 0
	}
	n := 0
	p := 1 / mean
	for d.rng.Float64() > p {
		n++
		if n > 10000 { // guard against pathological p
			break
		}
	}
	return n
}
