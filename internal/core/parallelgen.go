package core

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"mobiletraffic/internal/netsim"
	"mobiletraffic/internal/obs"
)

// This file is the deterministic parallel generation plane: campaign
// generation decomposed into independent per-(BS, day) cells, each
// drawing from its own substream (SeedStream(master^genCampaignDomain,
// key, day)), executed on the shared claim-from-a-counter worker pool
// and stitched back in cell index order. Because every cell's stream
// is a pure function of (master seed, key, day), the output is
// bit-identical for any worker count — including 1 — and for any
// schedule the pool happens to run.
//
// Inside a cell, the per-minute draws run on the batch kernels of
// internal/mathx (FillFloat64 / FillNorm and AliasTable.PickBatch):
// for a minute with n arrivals the cell consumes a fixed rectangle of
// draws — one phase uniform, the arrival count draw, then exactly
// 5·n variates in a fixed order (service uniforms, component uniforms,
// volume Gaussians, duration-noise Gaussians, start uniforms) — so the
// draw layout is independent of which services were picked or whether
// a model has mixture peaks or noise. It realizes the same released
// distributions as MinuteAppend but maps draws differently, so campaign
// output is statistically (not byte-for-byte) equivalent to the scalar
// path; both are checked against the same analytic ground truth.

// CampaignSpec describes a generation campaign: a grid of (BS, day)
// cells over the given arrival models.
type CampaignSpec struct {
	// Arrivals holds one arrival model per BS in the campaign.
	Arrivals []*ArrivalModel
	// Keys holds the substream key of each BS; nil uses the slice
	// index. Callers with stable topology identifiers should pass them
	// here so a BS keeps its traffic when the campaign is re-sliced.
	Keys []uint64
	// Days is the number of days generated per BS.
	Days int
	// MinutesPerDay truncates each day (0 means a full 1440 minutes).
	// The substream layout is per-day, so a truncated campaign is a
	// prefix of the full one.
	MinutesPerDay int
	// StartMinute is minute 0's offset into the phase-weight table,
	// for campaigns that do not start at midnight.
	StartMinute int
	// PhaseWeights gives the probability that a minute is in the
	// daytime arrival mode, indexed by (StartMinute + minute) modulo
	// its length. Nil uses the 1440-entry netsim.DayWeight diurnal
	// profile.
	PhaseWeights []float64
	// Workers bounds the worker pool (<= 0 uses every CPU). The
	// output does not depend on it.
	Workers int
}

// DayBlock is one (BS, day) cell of campaign output in
// structure-of-arrays layout with a CSR minute index: the sessions of
// minute m are rows Offsets[m] to Offsets[m+1].
type DayBlock struct {
	BS  int // index into CampaignSpec.Arrivals
	Day int
	// Offsets has one entry per minute plus a trailing total.
	Offsets []int32
	// Per-session columns, all of length Offsets[len(Offsets)-1].
	Svc      []int32   // service index into the generator's ModelSet
	Volume   []float64 // bytes
	Duration []float64 // seconds
	Start    []float64 // session start in seconds from the day origin
}

// Sessions returns the number of sessions in the block.
func (b *DayBlock) Sessions() int { return len(b.Svc) }

// MinuteRange returns the half-open row range of minute m.
func (b *DayBlock) MinuteRange(m int) (lo, hi int) {
	return int(b.Offsets[m]), int(b.Offsets[m+1])
}

// phaseWeightTable returns the 1440-minute diurnal profile shared by
// campaigns that do not override PhaseWeights, built once on first use
// and safe to call from concurrent campaigns.
var phaseWeightTable = sync.OnceValue(func() []float64 {
	w := make([]float64, 24*60)
	for m := range w {
		w[m] = netsim.DayWeight(m)
	}
	return w
})

// genScratch is one worker's reusable draw buffers: the batch kernels
// fill them once per minute, so the steady state of a campaign worker
// performs no per-minute allocation.
type genScratch struct {
	u, uc, zv, zd, us []float64
	svc               []int32
}

func (s *genScratch) grow(n int) {
	if cap(s.u) >= n {
		s.u = s.u[:n]
		s.uc = s.uc[:n]
		s.zv = s.zv[:n]
		s.zd = s.zd[:n]
		s.us = s.us[:n]
		s.svc = s.svc[:n]
		return
	}
	c := 2 * cap(s.u)
	if c < n {
		c = n
	}
	s.u = make([]float64, n, c)
	s.uc = make([]float64, n, c)
	s.zv = make([]float64, n, c)
	s.zd = make([]float64, n, c)
	s.us = make([]float64, n, c)
	s.svc = make([]int32, n, c)
}

// campaignParams is the validated, defaulted form of a CampaignSpec.
type campaignParams struct {
	minutes     int
	startMinute int
	weights     []float64
	// dayWeight sums the phase weights over one day's minutes: the
	// expected number of daytime-mode minutes in a cell.
	dayWeight float64
	// slotCap is the largest cellCapacity of the campaign, the size a
	// fold slot is allocated at so it fits every later cell.
	slotCap int
	cells   int
	workers int
}

// cellCapacity is the block capacity of one cell of the arrival model:
// its expected session count plus a margin for days above the mean.
func (p *campaignParams) cellCapacity(arr *ArrivalModel) int {
	est := expectedCellSessions(arr, p.minutes, p.dayWeight)
	return est + est/8 + 64
}

// validateCampaign checks a spec and resolves its defaults, shared by
// the materializing and folding campaign surfaces.
func validateCampaign(spec CampaignSpec) (campaignParams, error) {
	var p campaignParams
	if len(spec.Arrivals) == 0 {
		return p, errors.New("core: campaign needs at least one arrival model")
	}
	for i, a := range spec.Arrivals {
		if a == nil {
			return p, fmt.Errorf("core: campaign arrival model %d is nil", i)
		}
	}
	if spec.Keys != nil && len(spec.Keys) != len(spec.Arrivals) {
		return p, fmt.Errorf("core: campaign has %d keys for %d arrival models", len(spec.Keys), len(spec.Arrivals))
	}
	if spec.Days <= 0 {
		return p, fmt.Errorf("core: campaign needs days >= 1, got %d", spec.Days)
	}
	p.minutes = spec.MinutesPerDay
	if p.minutes == 0 {
		p.minutes = 24 * 60
	}
	if p.minutes < 0 {
		return p, fmt.Errorf("core: campaign needs minutes per day >= 0, got %d", p.minutes)
	}
	p.weights = spec.PhaseWeights
	if p.weights == nil {
		p.weights = phaseWeightTable()
	}
	if len(p.weights) == 0 {
		return p, errors.New("core: campaign phase-weight table is empty")
	}
	if spec.StartMinute < 0 {
		return p, fmt.Errorf("core: campaign start minute %d is negative", spec.StartMinute)
	}
	p.startMinute = spec.StartMinute
	for m := 0; m < p.minutes; m++ {
		p.dayWeight += p.weights[(p.startMinute+m)%len(p.weights)]
	}
	for _, a := range spec.Arrivals {
		p.slotCap = max(p.slotCap, p.cellCapacity(a))
	}
	p.cells = len(spec.Arrivals) * spec.Days
	p.workers = resolveWorkers(p.cells, spec.Workers)
	return p, nil
}

// GenerateCampaign generates every (BS, day) cell of the spec on the
// worker pool and returns the blocks in cell order (BS-major:
// block index = bs*Days + day). The result is bit-identical for every
// worker count and depends only on (generator seed, spec).
//
// GenerateCampaign materializes the whole campaign at once; callers
// that fold cells into an aggregate (a demand trace, a file, a
// collector) should use GenerateCampaignFold, which keeps O(workers)
// cells live instead of cells = BSs × days.
func (g *Generator) GenerateCampaign(spec CampaignSpec) ([]DayBlock, error) {
	p, err := validateCampaign(spec)
	if err != nil {
		return nil, err
	}
	blocks := make([]DayBlock, p.cells)
	scratch := make([]genScratch, p.workers)
	runTasksWorker(p.cells, p.workers, func(w, cell int) {
		bs := cell / spec.Days
		day := cell % spec.Days
		key := uint64(bs)
		if spec.Keys != nil {
			key = spec.Keys[bs]
		}
		blk := &blocks[cell]
		blk.BS, blk.Day = bs, day
		g.generateCell(blk, spec.Arrivals[bs], key, uint64(day), &p, 0, &scratch[w])
	})
	if obs.Enabled() {
		var sessions int64
		for i := range blocks {
			sessions += int64(blocks[i].Sessions())
		}
		obs.CounterOf("gen_sessions_total").Add(sessions)
		obs.CounterOf("gen_minutes_total").Add(int64(p.cells) * int64(p.minutes))
	}
	return blocks, nil
}

// GenerateCampaignFold generates the same cells as GenerateCampaign
// but never materializes the campaign: cells are produced concurrently
// on the worker pool and handed to visit strictly in cell order
// (BS-major, the order GenerateCampaign returns), with the block
// storage recycled through a freelist once visit returns. The blocks
// visit sees are bit-identical to GenerateCampaign's for every worker
// count; only their lifetime differs. The *DayBlock argument — and its
// backing arrays — is only valid during the visit call: the fold
// reuses it for a later cell, so callers that need to keep cell data
// must copy it out. A non-nil error from visit stops the campaign
// early and is returned.
func (g *Generator) GenerateCampaignFold(spec CampaignSpec, visit func(*DayBlock) error) error {
	p, err := validateCampaign(spec)
	if err != nil {
		return err
	}
	scratch := make([]genScratch, p.workers)
	var sessions, minutes int64
	err = FoldTasks(p.cells, p.workers, func(w, cell int, blk *DayBlock) {
		bs := cell / spec.Days
		day := cell % spec.Days
		key := uint64(bs)
		if spec.Keys != nil {
			key = spec.Keys[bs]
		}
		blk.BS, blk.Day = bs, day
		g.generateCell(blk, spec.Arrivals[bs], key, uint64(day), &p, p.slotCap, &scratch[w])
	}, func(cell int, blk *DayBlock) error {
		sessions += int64(blk.Sessions())
		minutes += int64(p.minutes)
		return visit(blk)
	})
	if obs.Enabled() {
		obs.CounterOf("gen_sessions_total").Add(sessions)
		obs.CounterOf("gen_minutes_total").Add(minutes)
	}
	return err
}

// expectedCellSessions estimates the mean session count of one
// (BS, day) cell from the arrival model and the phase-weight profile:
// each minute contributes the phase-weighted mix of the daytime
// Gaussian mean and the (capped) nighttime Pareto mean, so a day of
// the given minutes, dayWeight of them daytime in expectation, sums to
// the closed form below. A fresh block's first allocation lands at its
// steady-state size instead of doubling toward it, which matters to
// callers that run many short-lived folds (one per antenna study)
// under a memory budget.
func expectedCellSessions(arr *ArrivalModel, minutes int, dayWeight float64) int {
	// The sampler caps the Pareto rate at PeakMu/2; use the smaller of
	// that cap and the uncapped Pareto mean scale*shape/(shape-1).
	offMean := arr.PeakMu * 0.5
	if arr.OffShape > 1 {
		if m := arr.OffScale * arr.OffShape / (arr.OffShape - 1); m < offMean {
			offMean = m
		}
	}
	return int(dayWeight*arr.PeakMu + (float64(minutes)-dayWeight)*offMean)
}

// generateCell fills one (BS, day) block from the cell's substream.
// Per minute the stream consumes: one phase uniform, the arrival count
// draw, then — when n > 0 — five rectangular batches of n variates in
// a fixed order. Every variate is drawn unconditionally (component
// uniforms even for peak-free models, noise Gaussians even at zero
// noise), so the draw layout never depends on sampled structure and
// two cells with the same key and day are always identical.
// A block whose session columns already hold the cell's capacity
// estimate (cellCapacity) is refilled in place: the fold path recycles
// blocks through a freelist. Any other block allocates its columns
// once, at the larger of that estimate and alloc. The fold passes the
// campaign's largest estimate as alloc, so a slot first filled by a
// light cell still fits every heavier one without regrowing;
// GenerateCampaign passes 0, so each materialized block keeps its own
// estimate.
func (g *Generator) generateCell(blk *DayBlock, arr *ArrivalModel, key, day uint64, p *campaignParams, alloc int, sc *genScratch) {
	var rng = g.pcg // copy the type, not the state:
	rng.SeedStream(g.seed^genCampaignDomain, key, day)

	minutes, startMinute, weights := p.minutes, p.startMinute, p.weights
	if cap(blk.Offsets) >= minutes+1 {
		blk.Offsets = blk.Offsets[:minutes+1]
		blk.Offsets[0] = 0
	} else {
		blk.Offsets = make([]int32, minutes+1)
	}
	need := p.cellCapacity(arr)
	if min(cap(blk.Svc), cap(blk.Volume), cap(blk.Duration), cap(blk.Start)) >= need {
		blk.Svc = blk.Svc[:0]
		blk.Volume = blk.Volume[:0]
		blk.Duration = blk.Duration[:0]
		blk.Start = blk.Start[:0]
	} else {
		c := max(need, alloc)
		blk.Svc = make([]int32, 0, c)
		blk.Volume = make([]float64, 0, c)
		blk.Duration = make([]float64, 0, c)
		blk.Start = make([]float64, 0, c)
	}

	plan := g.plan
	for m := 0; m < minutes; m++ {
		peak := rng.Float64() < weights[(startMinute+m)%len(weights)]
		n := arr.SampleCountFast(peak, &rng)
		if n > 0 {
			sc.grow(n)
			rng.FillFloat64(sc.u)
			plan.svcPick.PickBatch(sc.u, sc.svc)
			rng.FillFloat64(sc.uc)
			rng.FillNorm(sc.zv)
			rng.FillNorm(sc.zd)
			rng.FillFloat64(sc.us)
			base := float64(m) * 60
			for i := 0; i < n; i++ {
				svc := sc.svc[i]
				sp := &plan.svcs[svc]
				ci := 0
				if sp.comp != nil {
					ci = sp.comp.Pick(sc.uc[i])
				}
				lnV := sp.muLn[ci] + sp.sigLn[ci]*sc.zv[i]
				var v float64
				if lnV >= sp.lnCap {
					v, lnV = sp.maxVol, sp.lnCap
				} else {
					v = math.Exp(lnV)
				}
				var d float64
				if sp.degenerate {
					d = 1
				} else {
					x := sp.invBeta*(lnV-sp.lnAlpha) + sp.noiseLn*sc.zd[i]
					switch {
					case x <= 0:
						d = 1
					case x >= lnMaxDuration:
						d = MaxSessionDuration
					default:
						d = math.Exp(x)
					}
				}
				blk.Svc = append(blk.Svc, svc)
				blk.Volume = append(blk.Volume, v)
				blk.Duration = append(blk.Duration, d)
				blk.Start = append(blk.Start, base+sc.us[i]*60)
			}
		}
		blk.Offsets[m+1] = int32(len(blk.Svc))
	}
}
