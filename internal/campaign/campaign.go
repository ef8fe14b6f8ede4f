// Package campaign is the fault-tolerance layer of a sharded
// measurement campaign. The paper's collection spans 282k base
// stations over 45 days — at that scale characterization is a
// long-lived distributed job, not a process that either finishes or is
// rerun from scratch. This package partitions the BS range into
// shards, drives them through a supervised worker pool (per-shard
// timeout, bounded retry with exponential backoff and jitter, panic
// capture), checkpoints every completed shard crash-safely
// (probe.WriteCheckpointFile) under a durable manifest, and on resume
// loads completed shards instead of recomputing them.
//
// Determinism: each base station belongs to exactly one shard, shard
// collectors are index-aligned dense slabs, and the final fold runs in
// ascending shard order (probe.MergeAllReport), so every destination
// cell is the unique shard cell that holds it, handed over whole,
// regardless of shard count, worker count, retry history, or whether a
// shard was recomputed or loaded from a bit-exact checkpoint. A resumed campaign
// therefore produces a bit-identical collector — and bit-identical
// fitted models — to an uninterrupted run. A shard that exhausts its
// retry budget degrades the campaign instead of failing it: the merge
// skips the gap and the Report says exactly which BS ranges are
// missing.
package campaign

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mobiletraffic/internal/obs"
	"mobiletraffic/internal/probe"
)

// Shard is one contiguous BS range [StartBS, EndBS) of the campaign.
type Shard struct {
	Index   int
	StartBS int
	EndBS   int
}

// NumBS returns the number of base stations in the shard.
func (s Shard) NumBS() int { return s.EndBS - s.StartBS }

// Plan partitions [0, numBS) into shards contiguous near-equal ranges
// in index order. The first numBS%shards shards carry one extra BS.
// shards is clamped to [1, numBS].
func Plan(numBS, shards int) []Shard {
	if shards < 1 {
		shards = 1
	}
	if shards > numBS {
		shards = numBS
	}
	if numBS <= 0 {
		return nil
	}
	out := make([]Shard, shards)
	base, extra := numBS/shards, numBS%shards
	start := 0
	for i := range out {
		n := base
		if i < extra {
			n++
		}
		out[i] = Shard{Index: i, StartBS: start, EndBS: start + n}
		start += n
	}
	return out
}

// ShardFunc computes one shard's partial collector. It must be safe to
// call concurrently for distinct shards and must honor ctx
// cancellation (checking between base stations is enough). attempt
// starts at 1 and counts retries of the same shard.
type ShardFunc func(ctx context.Context, sh Shard, attempt int) (*probe.Collector, error)

// Config drives a campaign run.
type Config struct {
	// NumBS is the campaign extent; shards partition [0, NumBS).
	NumBS int
	// Shards is the number of shards (default min(NumBS, NumCPU)).
	Shards int
	// Workers bounds concurrent shard attempts (default min(Shards, NumCPU)).
	Workers int
	// CheckpointDir enables durable checkpoints and the manifest;
	// empty runs the campaign in memory only.
	CheckpointDir string
	// Resume loads completed shard checkpoints from CheckpointDir
	// instead of recomputing them. The manifest's config hash and
	// shard plan must match; a missing manifest starts fresh.
	Resume bool
	// ShardTimeout aborts (and retries) a shard attempt that runs
	// longer; 0 disables the timeout.
	ShardTimeout time.Duration
	// MaxRetries is the retry budget after the first attempt (default
	// 2; negative disables retries).
	MaxRetries int
	// BackoffBase and BackoffMax bound the exponential retry backoff
	// (defaults 50ms and 2s). Jitter is drawn from a seeded stream so
	// test runs are reproducible.
	BackoffBase, BackoffMax time.Duration
	// Seed feeds the backoff jitter only — it never influences shard
	// contents.
	Seed int64
	// ConfigTag folds campaign-identifying configuration (simulator
	// seed, days, sampler, grids, ...) into the manifest's config
	// hash, so a checkpoint directory cannot be resumed under a
	// different workload.
	ConfigTag string
	// StallAfter flags a running shard as stalled — a flight-recorder
	// event plus campaign_shards_stalled_total — when its heartbeat age
	// exceeds this threshold (shard funcs heartbeat via
	// campaign.Heartbeat). 0 disables stall detection.
	StallAfter time.Duration
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = runtime.NumCPU()
	}
	if c.Shards > c.NumBS {
		c.Shards = c.NumBS
	}
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU()
	}
	if c.Workers > c.Shards {
		c.Workers = c.Shards
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 2
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 50 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 2 * time.Second
	}
	return c
}

// hash returns the manifest config hash of this campaign.
func (c Config) hash() string {
	return ConfigHash("v", manifestVersion, "numBS", c.NumBS, "shards", c.Shards, "tag", c.ConfigTag)
}

// ShardOutcome is one shard's fate in the Report.
type ShardOutcome struct {
	Shard
	Status   ShardStatus
	Attempts int
	Err      string // last error of a failed/interrupted shard
}

// Report is the campaign's account of itself: every shard's outcome,
// the merge report of the final fold, and the coverage gap left by
// shards that exhausted their retries.
type Report struct {
	Shards      []ShardOutcome
	Completed   int // shards computed in this run
	Resumed     int // shards loaded from checkpoints
	Failed      int // shards that exhausted their retry budget
	Interrupted int // shards cut off by cancellation
	Retries     int // total retry attempts across all shards
	// LostBS counts base stations in failed/interrupted shards — the
	// coverage gap of a degraded campaign.
	LostBS int
	// Merge is the final fold's per-partial account (nil when no shard
	// completed).
	Merge *probe.MergeReport
}

// Degraded reports whether the campaign is missing any shard.
func (r *Report) Degraded() bool { return r.Failed > 0 || r.Interrupted > 0 }

// Summary renders a one-line account of the campaign.
func (r *Report) Summary() string {
	s := fmt.Sprintf("campaign: %d shards (%d computed, %d resumed", len(r.Shards), r.Completed, r.Resumed)
	if r.Retries > 0 {
		s += fmt.Sprintf(", %d retries", r.Retries)
	}
	s += ")"
	if r.Degraded() {
		s += fmt.Sprintf("; DEGRADED: %d failed, %d interrupted, %d BSs lost", r.Failed, r.Interrupted, r.LostBS)
		for _, sh := range r.Shards {
			if sh.Status == ShardFailed {
				s += fmt.Sprintf("; shard %d [%d,%d): %s", sh.Index, sh.StartBS, sh.EndBS, sh.Err)
			}
		}
	}
	return s
}

// ErrInterrupted is wrapped by Run when the campaign context is
// canceled before every shard completes. Completed shards are already
// checkpointed and the manifest reflects them, so a later Resume run
// picks up where this one stopped.
var ErrInterrupted = errors.New("campaign: interrupted")

// Run executes the sharded campaign: plan, optionally resume completed
// shards from CheckpointDir, supervise the rest through the worker
// pool, checkpoint each completed shard, and fold everything that
// survived into one collector in shard-index order.
//
// A shard failure after the retry budget degrades the result instead
// of failing the run: the returned Report names the gap and the merged
// collector covers the surviving shards. Run returns an error only
// when no shard at all completed, when the checkpoint directory is
// unusable, or — wrapping ErrInterrupted — when ctx was canceled
// first.
func Run(ctx context.Context, cfg Config, fn ShardFunc) (*probe.Collector, *Report, error) {
	span := obs.StartSpan("campaign")
	defer span.End()
	if cfg.NumBS <= 0 {
		return nil, nil, fmt.Errorf("campaign: NumBS = %d", cfg.NumBS)
	}
	if fn == nil {
		return nil, nil, fmt.Errorf("campaign: nil shard func")
	}
	c := cfg.withDefaults()
	plan := Plan(c.NumBS, c.Shards)
	hash := c.hash()
	// The config hash as an info gauge: /metrics alone identifies which
	// campaign configuration a scrape belongs to.
	obs.GaugeOf("campaign_config_info", "config_sha256", hash).Set(1)

	st := &runState{
		cfg:        c,
		plan:       plan,
		collectors: make([]*probe.Collector, len(plan)),
		outcomes:   make([]ShardOutcome, len(plan)),
		progress:   obs.NewProgress(ProgressName, len(plan)),
	}
	obs.TrackProgressOf(st.progress)
	for i, sh := range plan {
		st.outcomes[i] = ShardOutcome{Shard: sh, Status: ShardPending}
	}
	stopStallWatch := watchStalls(st.progress, c.StallAfter)
	defer stopStallWatch()

	if c.CheckpointDir != "" {
		if err := os.MkdirAll(c.CheckpointDir, 0o755); err != nil {
			return nil, nil, fmt.Errorf("campaign: checkpoint dir: %w", err)
		}
		st.manifest = &Manifest{Version: manifestVersion, ConfigHash: hash, NumBS: c.NumBS}
		for _, sh := range plan {
			st.manifest.Shards = append(st.manifest.Shards,
				ManifestShard{Index: sh.Index, StartBS: sh.StartBS, EndBS: sh.EndBS, Status: ShardPending})
		}
		if c.Resume {
			if err := st.resume(hash); err != nil {
				return nil, nil, err
			}
		}
		if err := st.manifest.WriteFile(c.CheckpointDir); err != nil {
			return nil, nil, err
		}
	}

	// Dispatch every non-resumed shard to the worker pool. The task
	// channel is pre-filled and closed, so workers drain it even after
	// cancellation — marking the leftovers interrupted instead of
	// deadlocking a feeder.
	tasks := make(chan int, len(plan))
	for i := range plan {
		if st.outcomes[i].Status == ShardPending {
			tasks <- i
		}
	}
	close(tasks)
	var wg sync.WaitGroup
	for w := 0; w < c.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range tasks {
				if ctx.Err() != nil {
					st.finishFailed(i, ShardOutcome{Shard: plan[i], Status: ShardInterrupted, Err: ctx.Err().Error()})
					continue
				}
				st.runShard(ctx, span, w, i, fn)
			}
		}(w)
	}
	wg.Wait()

	report := st.report()
	// The final manifest write is the campaign's durable goodbye: on a
	// clean finish it records done/failed, on SIGINT/SIGTERM it marks
	// the cut-off shards interrupted so a resume recomputes exactly
	// those.
	if st.manifest != nil {
		if err := st.manifest.WriteFile(c.CheckpointDir); err != nil {
			return nil, report, err
		}
	}

	merged, err := st.merge(report)
	if err != nil {
		return nil, report, err
	}
	if ctx.Err() != nil {
		event(obs.EventInterrupted, -1, 0,
			fmt.Sprintf("%d of %d shards checkpointed", report.Completed+report.Resumed, len(plan)))
		return merged, report, fmt.Errorf("%w: %d of %d shards checkpointed", ErrInterrupted, report.Completed+report.Resumed, len(plan))
	}
	return merged, report, nil
}

// runState carries a campaign run's mutable state; the mutex guards
// the manifest and outcome slots against concurrent shard completions
// (each collectors slot is written by exactly one worker).
type runState struct {
	cfg        Config
	plan       []Shard
	collectors []*probe.Collector
	outcomes   []ShardOutcome
	manifest   *Manifest
	progress   *obs.Progress
	retries    int
	mu         sync.Mutex
}

// resume loads completed shard checkpoints recorded by a prior run's
// manifest. The checkpoints decode on up to cfg.Workers goroutines;
// their outcomes, counters and events are then applied in shard order.
// Corrupt or missing checkpoints demote their shard back to pending —
// recomputed, never trusted.
func (st *runState) resume(hash string) error {
	prior, err := LoadManifest(st.cfg.CheckpointDir)
	if err != nil {
		return err
	}
	if prior == nil {
		return nil // nothing to resume; start fresh
	}
	if err := prior.matches(hash, st.plan); err != nil {
		return err
	}
	var done []int // shards with a checkpoint to load, ascending
	for i, ms := range prior.Shards {
		if (ms.Status == ShardDone || ms.Status == ShardResumed) && ms.Checkpoint != "" {
			done = append(done, i)
		}
	}
	loaded := make([]*probe.Collector, len(prior.Shards))
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < min(st.cfg.Workers, len(done)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1))
				if k >= len(done) {
					return
				}
				i := done[k]
				coll, err := probe.ReadCheckpointFile(filepath.Join(st.cfg.CheckpointDir, prior.Shards[i].Checkpoint))
				if err == nil {
					loaded[i] = coll
				}
			}
		}()
	}
	wg.Wait()
	for _, i := range done {
		ms := prior.Shards[i]
		if loaded[i] == nil {
			// A torn or bit-rotted checkpoint is a recompute, not a
			// failure: the codec's CRC caught it.
			obs.CounterOf("campaign_checkpoint_corrupt_total").Inc()
			continue
		}
		st.collectors[i] = loaded[i]
		st.outcomes[i] = ShardOutcome{Shard: st.plan[i], Status: ShardResumed, Attempts: ms.Attempts}
		st.manifest.Shards[i] = ManifestShard{
			Index: ms.Index, StartBS: ms.StartBS, EndBS: ms.EndBS,
			Status: ShardResumed, Attempts: ms.Attempts, Checkpoint: ms.Checkpoint,
		}
		obs.CounterOf("campaign_shards_resumed_total").Inc()
		event(obs.EventResume, ms.Index, ms.Attempts, ms.Checkpoint)
		st.progress.Start(i)
		st.progress.Done(i)
	}
	return nil
}

// runShard supervises one shard: bounded retries around runAttempt,
// checkpoint + manifest update on success, degradation on exhaustion.
func (st *runState) runShard(ctx context.Context, span *obs.Span, worker, i int, fn ShardFunc) {
	sh := st.plan[i]
	shSpan := span.Child("campaign/shard", "shard", strconv.Itoa(sh.Index))
	shSpan.SetTID(1 + worker)
	defer shSpan.End()
	jitter := rand.New(rand.NewSource(st.cfg.Seed ^ int64(sh.Index)<<17 ^ 0x5ca1ab1e))
	shardLabel := strconv.Itoa(sh.Index)
	var lastErr error
	for attempt := 1; ; attempt++ {
		st.progress.Start(i)
		event(obs.EventShardStart, sh.Index, attempt, fmt.Sprintf("[%d,%d)", sh.StartBS, sh.EndBS))
		attemptStart := time.Now()
		coll, err := runAttempt(ctx, st, sh, attempt, fn)
		wall := time.Since(attemptStart).Seconds()
		if err == nil {
			obs.HistogramOf(ShardSecondsMetric, nil, "outcome", "ok").Observe(wall)
			event(obs.EventShardDone, sh.Index, attempt, fmt.Sprintf("%.3fs", wall))
			st.complete(i, attempt, coll)
			return
		}
		obs.HistogramOf(ShardSecondsMetric, nil, "outcome", "err").Observe(wall)
		lastErr = err
		if ctx.Err() != nil {
			st.finishFailed(i, ShardOutcome{Shard: sh, Status: ShardInterrupted, Attempts: attempt, Err: err.Error()})
			return
		}
		if attempt > st.cfg.MaxRetries {
			obs.CounterOf("campaign_shards_failed_total",
				"shard", shardLabel, "attempt", strconv.Itoa(attempt)).Inc()
			event(obs.EventShardFailed, sh.Index, attempt, lastErr.Error())
			st.finishFailed(i, ShardOutcome{Shard: sh, Status: ShardFailed, Attempts: attempt, Err: lastErr.Error()})
			return
		}
		obs.CounterOf("campaign_shard_retries_total",
			"shard", shardLabel, "attempt", strconv.Itoa(attempt)).Inc()
		event(obs.EventShardRetry, sh.Index, attempt, lastErr.Error())
		st.mu.Lock()
		st.retries++
		st.mu.Unlock()
		// Exponential backoff with full jitter, capped at BackoffMax.
		backoff := st.cfg.BackoffBase << (attempt - 1)
		if backoff > st.cfg.BackoffMax || backoff <= 0 {
			backoff = st.cfg.BackoffMax
		}
		backoff = time.Duration(jitter.Int63n(int64(backoff)) + 1)
		select {
		case <-time.After(backoff):
		case <-ctx.Done():
			st.finishFailed(i, ShardOutcome{Shard: sh, Status: ShardInterrupted, Attempts: attempt, Err: lastErr.Error()})
			return
		}
	}
}

// runAttempt executes one supervised attempt: the shard func runs in
// its own goroutine under the per-shard timeout with the shard's
// heartbeat callback on its context, panics are captured as errors,
// and a hung attempt is abandoned when its context expires (the
// goroutine drains into the buffered channel once it notices).
func runAttempt(ctx context.Context, st *runState, sh Shard, attempt int, fn ShardFunc) (*probe.Collector, error) {
	cfg := st.cfg
	actx := ctx
	if cfg.ShardTimeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, cfg.ShardTimeout)
		defer cancel()
	}
	shardIdx := sh.Index
	actx = withHeartbeat(actx, func() { st.progress.Heartbeat(shardIdx) })
	type result struct {
		coll *probe.Collector
		err  error
	}
	done := make(chan result, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				obs.CounterOf("campaign_shard_panics_total").Inc()
				event(obs.EventShardPanic, sh.Index, attempt, fmt.Sprint(p))
				done <- result{nil, fmt.Errorf("campaign: shard %d attempt %d panicked: %v\n%s",
					sh.Index, attempt, p, debug.Stack())}
			}
		}()
		coll, err := fn(actx, sh, attempt)
		done <- result{coll, err}
	}()
	select {
	case r := <-done:
		if r.err == nil && r.coll == nil {
			return nil, fmt.Errorf("campaign: shard %d returned no collector", sh.Index)
		}
		return r.coll, r.err
	case <-actx.Done():
		if errors.Is(actx.Err(), context.DeadlineExceeded) {
			obs.CounterOf("campaign_shard_timeouts_total").Inc()
			event(obs.EventShardTimeout, sh.Index, attempt, cfg.ShardTimeout.String())
			return nil, fmt.Errorf("campaign: shard %d attempt %d exceeded timeout %v", sh.Index, attempt, cfg.ShardTimeout)
		}
		return nil, fmt.Errorf("campaign: shard %d attempt %d: %w", sh.Index, attempt, actx.Err())
	}
}

// complete records a successful shard: checkpoint first (durable
// before visible), then the manifest flips the shard to done — the
// write ordering that makes a crash between the two merely re-derive
// the checkpoint.
func (st *runState) complete(i, attempts int, coll *probe.Collector) {
	sh := st.plan[i]
	out := ShardOutcome{Shard: sh, Status: ShardDone, Attempts: attempts}
	name := ""
	if st.cfg.CheckpointDir != "" {
		name = checkpointName(sh.Index)
		if err := coll.WriteCheckpointFile(filepath.Join(st.cfg.CheckpointDir, name)); err != nil {
			// A shard that computed but cannot persist still serves
			// this run; resume will recompute it.
			out.Err = err.Error()
			name = ""
		} else {
			event(obs.EventCheckpoint, sh.Index, attempts, name)
		}
	}
	st.finish(i, coll, out)
	st.progress.Done(i)
	if st.manifest != nil {
		st.mu.Lock()
		st.manifest.Shards[i].Status = ShardDone
		st.manifest.Shards[i].Attempts = attempts
		st.manifest.Shards[i].Checkpoint = name
		st.manifest.WriteFile(st.cfg.CheckpointDir)
		st.mu.Unlock()
	}
}

// finishFailed records a failed/interrupted outcome for shard i and
// flips its progress unit to the failed state.
func (st *runState) finishFailed(i int, out ShardOutcome) {
	st.finish(i, nil, out)
	st.progress.Fail(i, string(out.Status)+": "+out.Err)
}

// finish records a terminal outcome for shard i.
func (st *runState) finish(i int, coll *probe.Collector, out ShardOutcome) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.collectors[i] = coll
	st.outcomes[i] = out
	if st.manifest != nil && out.Status != ShardDone {
		st.manifest.Shards[i].Status = out.Status
		st.manifest.Shards[i].Attempts = out.Attempts
		st.manifest.Shards[i].Error = out.Err
	}
}

// report assembles the Report from the outcome slots.
func (st *runState) report() *Report {
	r := &Report{Shards: append([]ShardOutcome(nil), st.outcomes...), Retries: st.retries}
	for _, out := range st.outcomes {
		switch out.Status {
		case ShardDone:
			r.Completed++
		case ShardResumed:
			r.Resumed++
		case ShardFailed:
			r.Failed++
			r.LostBS += out.NumBS()
		default: // interrupted or never left pending
			r.Interrupted++
			r.LostBS += out.NumBS()
		}
	}
	return r
}

// merge folds the surviving shard collectors, in ascending shard
// order, into one campaign collector, consuming them; failed shards
// appear as skipped partials in the merge report. Shard checkpoints on
// disk are never touched.
func (st *runState) merge(report *Report) (*probe.Collector, error) {
	span := obs.StartSpan("campaign/merge")
	defer span.End()
	var first *probe.Collector
	for _, coll := range st.collectors {
		if coll != nil {
			first = coll
			break
		}
	}
	if first == nil {
		return nil, fmt.Errorf("campaign: no shard completed")
	}
	dest, err := probe.NewCollectorGrids(first.NumServices, 0, 0, first.VolumeEdges, first.DurationEdges)
	if err != nil {
		return nil, fmt.Errorf("campaign: merge target: %w", err)
	}
	mrep, err := dest.MergeAllReport(st.collectors, st.cfg.Workers)
	if err != nil {
		return nil, err
	}
	report.Merge = mrep
	event(obs.EventMerge, -1, 0,
		fmt.Sprintf("%d merged, %d skipped", mrep.Merged, mrep.Skipped))
	return dest, nil
}
