package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"sync"
	"time"

	"mobiletraffic/internal/campaign"
	"mobiletraffic/internal/core"
	"mobiletraffic/internal/experiments"
	"mobiletraffic/internal/faults"
	"mobiletraffic/internal/netsim"
	"mobiletraffic/internal/probe"
)

// moveProb is experiments.NewEnv's default share of in-transit sessions;
// the replays build their simulator with it.
const moveProb = 0.25

// buildSim is the simulate stage of experiments.NewEnv.
func buildSim(numBS, days int, seed int64) (*netsim.Topology, *netsim.Simulator, error) {
	topo, err := netsim.NewTopology(netsim.TopologyConfig{NumBS: numBS, Seed: seed})
	if err != nil {
		return nil, nil, err
	}
	sim, err := netsim.NewSimulator(topo, netsim.SimConfig{Days: days, Seed: seed, MoveProb: moveProb})
	if err != nil {
		return nil, nil, err
	}
	return topo, sim, nil
}

// tracedBuildSim is buildSim inside a netsim.build span.
func tracedBuildSim(tr *tracer, numBS, days int, seed int64) (*netsim.Topology, *netsim.Simulator, error) {
	h := tr.begin("netsim.build", -1, 0)
	defer tr.end(h)
	return buildSim(numBS, days, seed)
}

// tracedFit runs the two fits of experiments.NewEnv, each in its span.
func tracedFit(tr *tracer, coll *probe.Collector, topo *netsim.Topology, sim *netsim.Simulator) (*core.ModelSet, error) {
	h := tr.begin("core.fit_services", -1, 0)
	models, err := core.FitServiceModels(coll, sim.Services, nil)
	tr.end(h)
	if err != nil {
		return nil, fmt.Errorf("fit models: %w", err)
	}
	h = tr.begin("core.fit_arrivals", -1, 0)
	arrivals, err := core.FitArrivalsByDecile(coll, topo)
	tr.end(h)
	if err != nil {
		return nil, fmt.Errorf("fit arrivals: %w", err)
	}
	models.Arrivals = arrivals
	return models, nil
}

// dayScratch holds one worker's column buffers, sized like the
// program's own collection scratch so no day re-allocates.
type dayScratch struct {
	cols, faulted netsim.DayColumns
}

func newDayScratch(sim *netsim.Simulator) *dayScratch {
	sc := &dayScratch{}
	for _, c := range []*netsim.DayColumns{&sc.cols, &sc.faulted} {
		c.SkipStart = true
		c.Resize(sim.MaxDaySessions())
		c.Resize(0)
	}
	return sc
}

// collectDays mirrors the program's per-BS collection body: every day of
// one base station sampled as columns, passed through the cell's fault
// stream when an injector is given, and folded into coll.
func collectDays(tr *tracer, parent, worker int, sim *netsim.Simulator, coll *probe.Collector, sc *dayScratch, inj *faults.Injector, bs, days int) error {
	for day := 0; day < days; day++ {
		var stream *faults.DayStream
		if inj != nil {
			h := tr.begin("faults.apply", parent, worker)
			stream = inj.Day(bs, day)
			tr.end(h)
			if stream.Down() {
				continue
			}
		}
		h := tr.begin("netsim.sample", parent, worker)
		err := sim.SampleDayColumns(bs, day, &sc.cols)
		tr.end(h)
		if err != nil {
			return err
		}
		tr.add("netsim.sessions", float64(sc.cols.N()))
		cols := &sc.cols
		if stream != nil {
			h = tr.begin("faults.apply", parent, worker)
			stream.ApplyColumns(cols, &sc.faulted)
			tr.end(h)
			cols = &sc.faulted
		}
		h = tr.begin("probe.observe", parent, worker)
		err = coll.ObserveColumns(bs, day, cols)
		tr.end(h)
		if err != nil {
			return err
		}
	}
	return nil
}

// fanOut runs fn(worker, i) for every i in [0, n) on up to workers
// goroutines claiming indices in order, and returns each worker's busy
// seconds and the first error.
func fanOut(n, workers int, fn func(worker, i int) error) ([]float64, error) {
	var mu sync.Mutex
	next := 0
	busy := make([]float64, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= n || errs[w] != nil {
					return
				}
				start := time.Now()
				errs[w] = fn(w, i)
				busy[w] += time.Since(start).Seconds()
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return busy, err
		}
	}
	return busy, nil
}

// --- characterize ----------------------------------------------------

type characterizeFixture struct {
	sc    scale
	seeds []int64
}

// variantSeeds builds every variant's simulator, which the operations
// rebuild themselves as experiments.NewEnv does: set-up times that build
// so work moved into it shows.
func variantSeeds(sc scale, seed int64, days int) ([]int64, int, error) {
	seeds := make([]int64, sc.Variants)
	numServices := 0
	for v := range seeds {
		seeds[v] = variantSeed(seed, v)
		_, sim, err := buildSim(sc.NumBS, days, seeds[v])
		if err != nil {
			return nil, 0, err
		}
		numServices = len(sim.Services)
	}
	return seeds, numServices, nil
}

func setupCharacterize(sc scale, seed int64, _ string) (fixture, error) {
	seeds, _, err := variantSeeds(sc, seed, sc.Days)
	if err != nil {
		return nil, err
	}
	return &characterizeFixture{sc: sc, seeds: seeds}, nil
}

func (f *characterizeFixture) close() {}

func (f *characterizeFixture) op(v int) (result, error) {
	env, err := experiments.NewEnv(experiments.Config{NumBS: f.sc.NumBS, Days: f.sc.Days, Seed: f.seeds[v]})
	if err != nil {
		return nil, err
	}
	return newModelsResult(env.Models)
}

func (f *characterizeFixture) replay(v int, tr *tracer) (result, error) {
	topo, sim, err := tracedBuildSim(tr, f.sc.NumBS, f.sc.Days, f.seeds[v])
	if err != nil {
		return nil, err
	}
	numBS := len(topo.BSs)
	partials := make([]*probe.Collector, workers)
	scratch := make([]*dayScratch, workers)
	for w := range partials {
		if partials[w], err = probe.NewCollectorSized(len(sim.Services), numBS, f.sc.Days); err != nil {
			return nil, err
		}
		scratch[w] = newDayScratch(sim)
	}
	start := time.Now()
	busy, err := fanOut(numBS, workers, func(w, bs int) error {
		return collectDays(tr, -1, w, sim, partials[w], scratch[w], nil, bs, f.sc.Days)
	})
	if err != nil {
		return nil, err
	}
	wall := time.Since(start).Seconds()
	for _, b := range busy {
		tr.add("experiments.collect_idle_s", wall-b)
	}
	h := tr.begin("probe.merge", -1, 0)
	err = partials[0].MergeAll(partials[1:], workers)
	tr.end(h)
	if err != nil {
		return nil, err
	}
	models, err := tracedFit(tr, partials[0], topo, sim)
	if err != nil {
		return nil, err
	}
	return newModelsResult(models)
}

// --- campaign --------------------------------------------------------

const campaignShards = 4

// chaosFaults is the chaos experiment's acceptance fault mix.
func chaosFaults(seed int64) faults.Config {
	return faults.Config{
		OutageProb:       0.20,
		TruncatedDayProb: 0.10,
		FlowLossProb:     0.05,
		FlowDupProb:      0.02,
		SignalGapProb:    0.03,
		MisclassProb:     0.02,
		Seed:             seed,
	}
}

// campaignFixture runs each variant with the simulator and the faults
// under the variant's seed.
type campaignFixture struct {
	sc          scale
	seeds       []int64
	numServices int
	dir         string // parent of every operation's checkpoint directory
}

func setupCampaign(sc scale, seed int64, workdir string) (fixture, error) {
	seeds, numServices, err := variantSeeds(sc, seed, sc.CampaignDays)
	if err != nil {
		return nil, err
	}
	for _, s := range seeds {
		if _, err := faults.New(chaosFaults(s), numServices); err != nil {
			return nil, err
		}
	}
	dir, err := os.MkdirTemp(workdir, "campaign-*")
	if err != nil {
		return nil, err
	}
	return &campaignFixture{sc: sc, seeds: seeds, numServices: numServices, dir: dir}, nil
}

func (f *campaignFixture) close() { os.RemoveAll(f.dir) }

// campaignResult is the model set a campaign wrote and the one its
// resume refitted from the checkpoints.
type campaignResult struct {
	written, resumed *modelsResult
	resumedShards    int
}

func (r *campaignResult) check() (*output, error) {
	if !bytes.Equal(r.written.json, r.resumed.json) {
		return nil, fmt.Errorf("resumed models differ from the written ones")
	}
	if r.resumedShards != campaignShards {
		return nil, fmt.Errorf("resume loaded %d of %d shards", r.resumedShards, campaignShards)
	}
	return r.written.check()
}

func (f *campaignFixture) op(v int) (result, error) {
	dir, err := os.MkdirTemp(f.dir, "op-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	inj, err := faults.New(chaosFaults(f.seeds[v]), f.numServices)
	if err != nil {
		return nil, err
	}
	cfg := experiments.Config{NumBS: f.sc.NumBS, Days: f.sc.CampaignDays, Seed: f.seeds[v]}
	opts := experiments.CampaignOptions{Shards: campaignShards, Workers: workers, CheckpointDir: dir, Faults: inj}
	ctx := context.Background()
	env, _, err := experiments.NewEnvSharded(ctx, cfg, opts)
	if err != nil {
		return nil, err
	}
	opts.Resume = true
	resumed, report, err := experiments.NewEnvSharded(ctx, cfg, opts)
	if err != nil {
		return nil, err
	}
	return newCampaignResult(env.Models, resumed.Models, report.Resumed)
}

func newCampaignResult(written, resumed *core.ModelSet, resumedShards int) (*campaignResult, error) {
	w, err := newModelsResult(written)
	if err != nil {
		return nil, err
	}
	r, err := newModelsResult(resumed)
	if err != nil {
		return nil, err
	}
	return &campaignResult{written: w, resumed: r, resumedShards: resumedShards}, nil
}

func (f *campaignFixture) replay(v int, tr *tracer) (result, error) {
	dir, err := os.MkdirTemp(f.dir, "replay-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	seed := f.seeds[v]
	inj, err := faults.New(chaosFaults(seed), f.numServices)
	if err != nil {
		return nil, err
	}
	days := f.sc.CampaignDays
	topo, sim, err := tracedBuildSim(tr, f.sc.NumBS, days, seed)
	if err != nil {
		return nil, err
	}
	numBS := len(topo.BSs)
	write := tr.begin("campaign.write", -1, 0)
	// The shard body of experiments.CollectSharded.
	shard := func(ctx context.Context, sh campaign.Shard, attempt int) (*probe.Collector, error) {
		lane := tr.acquireLane()
		defer tr.releaseLane(lane)
		h := tr.begin("campaign.shard", write, lane)
		defer tr.end(h)
		coll, err := probe.NewCollectorSized(len(sim.Services), numBS, days)
		if err != nil {
			return nil, err
		}
		sc := newDayScratch(sim)
		for bs := sh.StartBS; bs < sh.EndBS; bs++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if err := collectDays(tr, h, lane, sim, coll, sc, inj, bs, days); err != nil {
				return nil, err
			}
			campaign.Heartbeat(ctx)
		}
		return coll, nil
	}
	cfg := campaign.Config{
		NumBS:         numBS,
		Shards:        campaignShards,
		Workers:       workers,
		CheckpointDir: dir,
		Seed:          seed,
		ConfigTag:     fmt.Sprintf("bench campaign bs=%d days=%d seed=%d", numBS, days, seed),
	}
	ctx := context.Background()
	coll, report, err := campaign.Run(ctx, cfg, shard)
	tr.end(write)
	if err != nil {
		return nil, err
	}
	tr.add("campaign.retries", float64(report.Retries))
	stats := inj.Stats()
	tr.add("faults.outage_days", float64(stats.OutageDays))
	if stats.Observed > 0 {
		tr.add("faults.keep_ratio", float64(stats.Emitted)/float64(stats.Observed))
	}
	if tr != nil {
		size, err := fileSize(dir)
		if err != nil {
			return nil, err
		}
		tr.add("probe.checkpoint_bytes", float64(size))
	}
	written, err := tracedFit(tr, coll, topo, sim)
	if err != nil {
		return nil, err
	}

	cfg.Resume = true
	h := tr.begin("campaign.resume", -1, 0)
	coll, report, err = campaign.Run(ctx, cfg, shard)
	tr.end(h)
	if err != nil {
		return nil, err
	}
	tr.add("campaign.resumed", float64(report.Resumed))
	resumed, err := tracedFit(tr, coll, topo, sim)
	if err != nil {
		return nil, err
	}
	return newCampaignResult(written, resumed, report.Resumed)
}
