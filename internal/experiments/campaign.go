package experiments

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"sync"
	"time"

	"mobiletraffic/internal/campaign"
	"mobiletraffic/internal/core"
	"mobiletraffic/internal/faults"
	"mobiletraffic/internal/netsim"
	"mobiletraffic/internal/obs"
	"mobiletraffic/internal/probe"
)

// CampaignOptions configures the fault-tolerant sharded collection
// path (internal/campaign) of a measurement campaign.
type CampaignOptions struct {
	// Shards partitions the BS range (default: one per CPU).
	Shards int
	// Workers bounds concurrent shard attempts (default: one per CPU).
	Workers int
	// CheckpointDir enables durable per-shard checkpoints + manifest.
	CheckpointDir string
	// Resume loads completed shard checkpoints instead of recomputing.
	Resume bool
	// ShardTimeout aborts and retries an attempt that runs longer.
	ShardTimeout time.Duration
	// MaxRetries is the per-shard retry budget (default 2).
	MaxRetries int
	// StallAfter flags a shard as stalled when its heartbeat (one per
	// completed BS) goes quiet for this long; 0 disables.
	StallAfter time.Duration
	// Faults optionally injects data-plane faults into every shard's
	// measurement stream (same semantics as the in-process collector).
	Faults *faults.Injector
	// Process optionally injects process-level faults — crash, hang,
	// slow worker — into the shard workers themselves.
	Process *faults.ProcessFaults
}

// campaignTag folds everything that determines shard contents into the
// manifest's config-hash tag: the same checkpoint directory must never
// be resumed under a different workload.
func campaignTag(c Config, numServices int) string {
	return fmt.Sprintf("bs=%d days=%d seed=%d move=%g services=%d volgrid=%d durgrid=%d",
		c.NumBS, c.Days, c.Seed, c.MoveProb, numServices,
		len(probe.DefaultVolumeEdges), len(probe.DefaultDurationEdges))
}

// CollectSharded runs the measurement campaign through the supervised
// sharded runner: the BS range splits into contiguous shards, each
// shard simulates its base stations into a pre-sized partial collector
// (bit-identical to the in-process collector's per-BS work, via
// collectBS), and the supervisor handles checkpointing, retry and
// graceful degradation. The merged collector is bit-identical to a
// serial or in-process-parallel collection for any shard count — each
// BS's cells are computed by exactly one shard from its own
// deterministic random streams, and the final fold runs in ascending
// shard order. Shard attempts take their collection scratch from a
// freelist, so a campaign builds at most one per concurrent attempt.
func CollectSharded(ctx context.Context, sim *netsim.Simulator, c Config, opts CampaignOptions) (*probe.Collector, *campaign.Report, error) {
	return collectSharded(ctx, sim, c, opts, &scratchFreelist{sim: sim, faulted: opts.Faults != nil})
}

// collectSharded is CollectSharded drawing shard scratch from free.
func collectSharded(ctx context.Context, sim *netsim.Simulator, c Config, opts CampaignOptions, free *scratchFreelist) (*probe.Collector, *campaign.Report, error) {
	numBS := len(sim.Topo.BSs)
	fn := campaign.ShardFunc(func(ctx context.Context, sh campaign.Shard, attempt int) (*probe.Collector, error) {
		// Process-level faults gate the attempt before any shard work, so
		// a crashed or hung attempt never emits a partial collector.
		if err := opts.Process.Attempt(ctx, sh.Index, attempt); err != nil {
			return nil, err
		}
		coll, err := probe.NewCollectorSized(len(sim.Services), numBS, c.Days)
		if err != nil {
			return nil, err
		}
		sc := free.get()
		defer free.put(sc)
		for bs := sh.StartBS; bs < sh.EndBS; bs++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if err := collectBS(sim, coll, sc, opts.Faults, bs, c.Days); err != nil {
				return nil, err
			}
			// One heartbeat per completed BS feeds the supervisor's
			// stall detector and the /statusz heartbeat-age column.
			campaign.Heartbeat(ctx)
		}
		return coll, nil
	})
	tag := campaignTag(c, len(sim.Services))
	if opts.Faults != nil {
		fc := opts.Faults.Config()
		tag += fmt.Sprintf(" faults=%+v", fc)
	}
	return campaign.Run(ctx, campaign.Config{
		NumBS:         numBS,
		Shards:        opts.Shards,
		Workers:       opts.Workers,
		CheckpointDir: opts.CheckpointDir,
		Resume:        opts.Resume,
		ShardTimeout:  opts.ShardTimeout,
		MaxRetries:    opts.MaxRetries,
		StallAfter:    opts.StallAfter,
		Seed:          c.Seed,
		ConfigTag:     tag,
	}, fn)
}

// scratchFreelist hands shard attempts a collection scratch and takes
// it back when the attempt returns, so shards reuse the ~5 MB of column
// buffers instead of building them per attempt. It is mutex-guarded
// rather than a sync.Pool for the reason netsim's GenerateDay freelist
// is: a pool may drop what it holds, the freelist keeps every scratch.
type scratchFreelist struct {
	sim     *netsim.Simulator
	faulted bool

	mu    sync.Mutex
	free  []*collectScratch
	built int // scratches made so far
}

// get takes a scratch off the freelist, or builds one.
func (f *scratchFreelist) get() *collectScratch {
	f.mu.Lock()
	if n := len(f.free); n > 0 {
		sc := f.free[n-1]
		f.free = f.free[:n-1]
		f.mu.Unlock()
		return sc
	}
	f.built++
	f.mu.Unlock()
	return newCollectScratch(f.sim, f.faulted)
}

// put returns a scratch taken by get to the freelist.
func (f *scratchFreelist) put(sc *collectScratch) {
	f.mu.Lock()
	f.free = append(f.free, sc)
	f.mu.Unlock()
}

// NewEnvSharded is NewEnv over the fault-tolerant sharded collection
// path. The fitted models are bit-identical to NewEnv's for any shard
// count when every shard completes; a degraded campaign (shards failed
// after retries) still fits the surviving measurements and reports the
// gap. On interruption (ctx canceled) it returns the campaign report
// and an error wrapping campaign.ErrInterrupted — completed shards are
// already checkpointed for a -resume run.
func NewEnvSharded(ctx context.Context, cfg Config, opts CampaignOptions) (*Env, *campaign.Report, error) {
	c := cfg.withDefaults()
	simSpan := obs.StartSpan("simulate")
	topo, err := netsim.NewTopology(netsim.TopologyConfig{NumBS: c.NumBS, Seed: c.Seed})
	if err != nil {
		simSpan.End()
		return nil, nil, fmt.Errorf("experiments: topology: %w", err)
	}
	sim, err := netsim.NewSimulator(topo, netsim.SimConfig{
		Days:     c.Days,
		Seed:     c.Seed,
		MoveProb: c.MoveProb,
	})
	simSpan.End()
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: simulator: %w", err)
	}
	coll, report, err := CollectSharded(ctx, sim, c, opts)
	if err != nil {
		return nil, report, fmt.Errorf("experiments: sharded collect: %w", err)
	}
	models, err := core.FitServiceModels(coll, sim.Services, nil)
	if err != nil {
		return nil, report, fmt.Errorf("experiments: fit models: %w", err)
	}
	arrivals, err := core.FitArrivalsByDecile(coll, topo)
	if err != nil {
		return nil, report, fmt.Errorf("experiments: fit arrivals: %w", err)
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
	}, report, nil
}

// --- Extension: kill/resume determinism under process faults ---------

// The kill/resume experiment: ROADMAP item 2 requires that a
// nationwide campaign survives worker loss with bit-identical output.
// For each shard count, the campaign is run three ways against the
// uninterrupted reference fit: (a) a worker crash on the first
// attempt, recovered by supervised retry; (b) a simulated process kill
// — every shard past a cut point fails permanently, completed shards
// checkpoint, and a second run resumes from the manifest; (c) a shard
// that exhausts its retry budget, which must degrade the campaign
// (complete report, surviving-shard fit) rather than fail it. The
// released ModelSet JSON of (a) and (b) must be byte-identical to the
// reference.

// KillResumeConfig sizes the kill/resume sweep.
type KillResumeConfig struct {
	// ShardCounts are the campaign widths exercised (default 1, 4, 7).
	ShardCounts []int
	// MaxRetries is the supervisor retry budget (default 2).
	MaxRetries int
}

func (c KillResumeConfig) withDefaults() KillResumeConfig {
	if len(c.ShardCounts) == 0 {
		c.ShardCounts = []int{1, 4, 7}
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 2
	}
	return c
}

// KillResumeRow is one shard count's outcomes.
type KillResumeRow struct {
	Shards int
	// Crash-retry phase: a worker panic on the first attempt.
	CrashRetries   int
	CrashIdentical bool
	// Kill/resume phase: shards >= Shards/2 die permanently, the rerun
	// resumes from checkpoints.
	KilledShards    int
	ResumedShards   int
	ResumeIdentical bool
	// Degraded phase: one shard exhausts its retry budget.
	DegradedFailed int
	DegradedLostBS int
	DegradedFitted int // services still fitted from the surviving shards
}

// KillResumeResult is the experiment output.
type KillResumeResult struct {
	Rows     []KillResumeRow
	Baseline int // services in the reference fit
}

// ExpKillResume runs the kill/resume determinism sweep against env's
// uninterrupted reference models.
func ExpKillResume(env *Env, cfg KillResumeConfig) (*KillResumeResult, error) {
	c := cfg.withDefaults()
	ctx := context.Background()
	refJSON, err := env.Models.ToJSON()
	if err != nil {
		return nil, fmt.Errorf("experiments: reference models: %w", err)
	}
	out := &KillResumeResult{Baseline: len(env.Models.Services)}
	for _, shards := range c.ShardCounts {
		row := KillResumeRow{Shards: shards}

		// (a) Crash on first attempt of shard 0: the supervisor's panic
		// capture + retry must recover bit-identically, no checkpoints
		// involved.
		crash, err := faults.NewProcess(faults.ProcessConfig{CrashShard: 0, CrashAttempts: 1})
		if err != nil {
			return nil, err
		}
		envA, repA, err := NewEnvSharded(ctx, env.Config, CampaignOptions{
			Shards: shards, MaxRetries: c.MaxRetries, Process: crash,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: crash-retry campaign (%d shards): %w", shards, err)
		}
		row.CrashRetries = repA.Retries
		jsonA, err := envA.Models.ToJSON()
		if err != nil {
			return nil, err
		}
		row.CrashIdentical = bytes.Equal(refJSON, jsonA)

		// (b) Simulated kill mid-campaign: shards >= cut fail
		// permanently in run 1 (completed shards checkpoint), run 2
		// resumes and recomputes exactly the missing ones.
		dir, err := os.MkdirTemp("", "mobiletraffic-killresume-*")
		if err != nil {
			return nil, fmt.Errorf("experiments: checkpoint dir: %w", err)
		}
		// Shards >= cut fail permanently. Shard 0 is untargetable by
		// design (faults.ProcessConfig), so the 1-shard case
		// degenerates to a pure checkpoint-then-resume round trip.
		cut := shards/2 + 1
		kill, err := faults.NewProcess(faults.ProcessConfig{FailFromShard: cut})
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		_, repB, err := NewEnvSharded(ctx, env.Config, CampaignOptions{
			Shards: shards, MaxRetries: 0, CheckpointDir: dir, Process: kill,
		})
		// Multi-shard widths degrade but complete; err stays nil.
		if err != nil && shards > 1 {
			os.RemoveAll(dir)
			return nil, fmt.Errorf("experiments: killed campaign (%d shards): %w", shards, err)
		}
		if repB != nil {
			row.KilledShards = repB.Failed
		}
		envB, repB2, err := NewEnvSharded(ctx, env.Config, CampaignOptions{
			Shards: shards, MaxRetries: c.MaxRetries, CheckpointDir: dir, Resume: true,
		})
		if err != nil {
			os.RemoveAll(dir)
			return nil, fmt.Errorf("experiments: resumed campaign (%d shards): %w", shards, err)
		}
		row.ResumedShards = repB2.Resumed
		jsonB, err := envB.Models.ToJSON()
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		row.ResumeIdentical = bytes.Equal(refJSON, jsonB)
		os.RemoveAll(dir)

		// (c) Retry exhaustion degrades, never fails: the last shard
		// dies on every attempt; the campaign must still produce a
		// (gapped) fit and a faithful report.
		if shards > 1 {
			exhaust, err := faults.NewProcess(faults.ProcessConfig{FailFromShard: shards - 1})
			if err != nil {
				return nil, err
			}
			envC, repC, err := NewEnvSharded(ctx, env.Config, CampaignOptions{
				Shards: shards, MaxRetries: 1, Process: exhaust,
			})
			if err != nil {
				return nil, fmt.Errorf("experiments: degraded campaign (%d shards): %w", shards, err)
			}
			row.DegradedFailed = repC.Failed
			row.DegradedLostBS = repC.LostBS
			row.DegradedFitted = len(envC.Models.Services)
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Table renders the kill/resume sweep.
func (r *KillResumeResult) Table() *Table {
	t := &Table{
		Title: "Extension — kill/resume: sharded campaign fault tolerance and determinism",
		Header: []string{"shards", "crash retries", "crash identical", "killed", "resumed",
			"resume identical", "failed", "lost BSs", "fitted (degraded)"},
	}
	yes := func(b bool) string {
		if b {
			return "yes"
		}
		return "NO"
	}
	for _, row := range r.Rows {
		t.AddRow(row.Shards, row.CrashRetries, yes(row.CrashIdentical),
			row.KilledShards, row.ResumedShards, yes(row.ResumeIdentical),
			row.DegradedFailed, row.DegradedLostBS, row.DegradedFitted)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("reference fit models %d services; 'identical' compares released ModelSet JSON byte-for-byte", r.Baseline),
		"crash = worker panic recovered by supervised retry; kill = permanent shard loss checkpointed then resumed; degraded = retry budget exhausted, campaign completes with a reported gap")
	return t
}
