package campaign

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mobiletraffic/internal/netsim"
	"mobiletraffic/internal/probe"
)

const (
	testServices = 3
	testDays     = 2
)

// testShardFunc deterministically simulates a shard: every BS in the
// range contributes a handful of synthetic sessions whose values depend
// only on (bs, day), so any sharding of [0, numBS) merges to the same
// collector and retries are bit-identical to first attempts.
func testShardFunc(numBS int) ShardFunc {
	return func(ctx context.Context, sh Shard, attempt int) (*probe.Collector, error) {
		coll, err := probe.NewCollectorSized(testServices, numBS, testDays)
		if err != nil {
			return nil, err
		}
		for bs := sh.StartBS; bs < sh.EndBS; bs++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			for day := 0; day < testDays; day++ {
				for k := 0; k < 4; k++ {
					s := netsim.Session{
						Service:  (bs + k) % testServices,
						BS:       bs,
						Day:      day,
						Minute:   (bs*97 + day*31 + k*13) % netsim.MinutesPerDay,
						Volume:   float64(1+bs) * 1e4 * float64(1+k),
						Duration: float64(1+day) * 7.5,
					}
					if err := coll.Observe(s); err != nil {
						return nil, err
					}
				}
			}
		}
		return coll, nil
	}
}

// reference computes the uninterrupted single-shard result every test
// compares against.
func reference(t *testing.T, numBS int) *probe.Collector {
	t.Helper()
	coll, _, err := Run(context.Background(), Config{NumBS: numBS, Shards: 1}, testShardFunc(numBS))
	if err != nil {
		t.Fatal(err)
	}
	return coll
}

// sameCells fails unless a and b hold bit-identical cell statistics.
func sameCells(t *testing.T, a, b *probe.Collector) {
	t.Helper()
	ak, bk := a.Keys(), b.Keys()
	if len(ak) != len(bk) {
		t.Fatalf("cell counts differ: %d vs %d", len(ak), len(bk))
	}
	for _, key := range ak {
		sa, _ := a.Get(key)
		sb, ok := b.Get(key)
		if !ok {
			t.Fatalf("cell %+v missing", key)
		}
		if math.Float64bits(sa.Sessions) != math.Float64bits(sb.Sessions) {
			t.Fatalf("cell %+v sessions %v vs %v", key, sa.Sessions, sb.Sessions)
		}
		for i := range sa.Volume.P {
			if math.Float64bits(sa.Volume.P[i]) != math.Float64bits(sb.Volume.P[i]) {
				t.Fatalf("cell %+v volume bin %d differs", key, i)
			}
		}
	}
}

func TestPlan(t *testing.T) {
	cases := []struct {
		numBS, shards int
		want          int // shard count after clamping
	}{
		{10, 3, 3}, {10, 10, 10}, {10, 25, 10}, {10, 0, 1}, {10, -2, 1}, {1, 4, 1},
	}
	for _, c := range cases {
		plan := Plan(c.numBS, c.shards)
		if len(plan) != c.want {
			t.Fatalf("Plan(%d,%d) = %d shards, want %d", c.numBS, c.shards, len(plan), c.want)
		}
		next := 0
		for i, sh := range plan {
			if sh.Index != i || sh.StartBS != next || sh.EndBS <= sh.StartBS {
				t.Fatalf("Plan(%d,%d) shard %d = %+v (next start %d)", c.numBS, c.shards, i, sh, next)
			}
			next = sh.EndBS
		}
		if next != c.numBS {
			t.Fatalf("Plan(%d,%d) covers [0,%d)", c.numBS, c.shards, next)
		}
	}
	if Plan(0, 4) != nil {
		t.Fatal("Plan with no BSs must be empty")
	}
}

// TestRunBitIdentical verifies the tentpole determinism contract: the
// merged collector is bit-identical across shard counts.
func TestRunBitIdentical(t *testing.T) {
	const numBS = 11
	ref := reference(t, numBS)
	for _, shards := range []int{2, 3, 4, 7, 11} {
		coll, report, err := Run(context.Background(), Config{NumBS: numBS, Shards: shards}, testShardFunc(numBS))
		if err != nil {
			t.Fatalf("%d shards: %v", shards, err)
		}
		if report.Completed != shards || report.Degraded() {
			t.Fatalf("%d shards: report %+v", shards, report)
		}
		sameCells(t, ref, coll)
	}
}

// TestRunRecoversPanic verifies supervised retry: a shard whose first
// attempt panics is retried and the campaign result is unchanged.
func TestRunRecoversPanic(t *testing.T) {
	const numBS = 8
	ref := reference(t, numBS)
	inner := testShardFunc(numBS)
	fn := func(ctx context.Context, sh Shard, attempt int) (*probe.Collector, error) {
		if sh.Index == 1 && attempt == 1 {
			panic("injected worker crash")
		}
		return inner(ctx, sh, attempt)
	}
	coll, report, err := Run(context.Background(), Config{
		NumBS: numBS, Shards: 4, Seed: 9,
		BackoffBase: time.Millisecond, BackoffMax: 2 * time.Millisecond,
	}, fn)
	if err != nil {
		t.Fatal(err)
	}
	if report.Retries != 1 || report.Completed != 4 || report.Degraded() {
		t.Fatalf("report %+v, want 1 retry and 4 completed", report)
	}
	if report.Shards[1].Attempts != 2 {
		t.Fatalf("shard 1 attempts = %d, want 2", report.Shards[1].Attempts)
	}
	sameCells(t, ref, coll)
}

// TestRunTimeoutRetries verifies a hung attempt is abandoned at the
// shard timeout and the retry recovers the shard.
func TestRunTimeoutRetries(t *testing.T) {
	const numBS = 6
	ref := reference(t, numBS)
	inner := testShardFunc(numBS)
	fn := func(ctx context.Context, sh Shard, attempt int) (*probe.Collector, error) {
		if sh.Index == 0 && attempt == 1 {
			<-ctx.Done() // hung worker: freed only by the attempt timeout
			return nil, ctx.Err()
		}
		return inner(ctx, sh, attempt)
	}
	coll, report, err := Run(context.Background(), Config{
		NumBS: numBS, Shards: 3, ShardTimeout: 20 * time.Millisecond,
		BackoffBase: time.Millisecond, BackoffMax: 2 * time.Millisecond,
	}, fn)
	if err != nil {
		t.Fatal(err)
	}
	if report.Retries != 1 || report.Degraded() {
		t.Fatalf("report %+v, want 1 retry and no degradation", report)
	}
	if report.Shards[0].Attempts != 2 || report.Shards[0].Err != "" {
		t.Fatalf("shard 0 outcome %+v, want 2 attempts and a clean error", report.Shards[0])
	}
	sameCells(t, ref, coll)
}

// TestRunDegrades verifies retry exhaustion: the shard fails, the
// campaign completes with the surviving shards and the report names the
// coverage gap.
func TestRunDegrades(t *testing.T) {
	const numBS = 9
	inner := testShardFunc(numBS)
	fn := func(ctx context.Context, sh Shard, attempt int) (*probe.Collector, error) {
		if sh.Index == 2 {
			return nil, errors.New("injected permanent failure")
		}
		return inner(ctx, sh, attempt)
	}
	coll, report, err := Run(context.Background(), Config{
		NumBS: numBS, Shards: 3, MaxRetries: 1,
		BackoffBase: time.Millisecond, BackoffMax: 2 * time.Millisecond,
	}, fn)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Degraded() || report.Failed != 1 || report.Completed != 2 {
		t.Fatalf("report %+v, want 1 failed / 2 completed", report)
	}
	if report.Shards[2].Attempts != 2 { // first attempt + MaxRetries
		t.Fatalf("failed shard attempts = %d, want 2", report.Shards[2].Attempts)
	}
	if report.LostBS != report.Shards[2].NumBS() {
		t.Fatalf("LostBS = %d, want %d", report.LostBS, report.Shards[2].NumBS())
	}
	if report.Merge == nil || report.Merge.Skipped != 1 {
		t.Fatalf("merge report %+v, want 1 skipped partial", report.Merge)
	}
	if !strings.Contains(report.Summary(), "DEGRADED") {
		t.Fatalf("summary %q does not flag degradation", report.Summary())
	}
	// The surviving shards' cells are intact: no BS of shards 0/1 lost.
	lost := report.Shards[2]
	for _, key := range coll.Keys() {
		if key.BS >= lost.StartBS && key.BS < lost.EndBS {
			t.Fatalf("cell %+v belongs to the failed shard", key)
		}
	}
}

// TestRunAllFailed verifies a campaign where nothing completes is an
// error, not an empty success.
func TestRunAllFailed(t *testing.T) {
	fn := func(ctx context.Context, sh Shard, attempt int) (*probe.Collector, error) {
		return nil, errors.New("boom")
	}
	_, report, err := Run(context.Background(), Config{
		NumBS: 4, Shards: 2, MaxRetries: -1,
		BackoffBase: time.Millisecond, BackoffMax: 2 * time.Millisecond,
	}, fn)
	if err == nil || !strings.Contains(err.Error(), "no shard completed") {
		t.Fatalf("err = %v, want no-shard-completed", err)
	}
	if report == nil || report.Failed != 2 {
		t.Fatalf("report %+v, want 2 failed", report)
	}
}

// TestRunCheckpointResume is the kill/resume core: run 1 loses every
// shard past a cut (completed shards checkpoint durably), run 2 resumes
// and must recompute exactly the missing shards, yielding a collector
// bit-identical to the uninterrupted reference.
func TestRunCheckpointResume(t *testing.T) {
	const numBS, shards = 10, 4
	ref := reference(t, numBS)
	dir := t.TempDir()
	inner := testShardFunc(numBS)
	cut := 2
	fail := func(ctx context.Context, sh Shard, attempt int) (*probe.Collector, error) {
		if sh.Index >= cut {
			return nil, errors.New("injected kill")
		}
		return inner(ctx, sh, attempt)
	}
	cfg := Config{
		NumBS: numBS, Shards: shards, CheckpointDir: dir, MaxRetries: -1,
		BackoffBase: time.Millisecond, BackoffMax: 2 * time.Millisecond,
		ConfigTag: "test-campaign",
	}
	_, rep1, err := Run(context.Background(), cfg, fail)
	if err != nil {
		t.Fatal(err)
	}
	if rep1.Completed != cut || rep1.Failed != shards-cut {
		t.Fatalf("run 1 report %+v", rep1)
	}
	for i := 0; i < cut; i++ {
		if _, err := os.Stat(filepath.Join(dir, checkpointName(i))); err != nil {
			t.Fatalf("completed shard %d has no checkpoint: %v", i, err)
		}
	}

	// Run 2: resume. Track which shards recompute — it must be exactly
	// the failed ones.
	var mu sync.Mutex
	recomputed := map[int]bool{}
	resumeFn := func(ctx context.Context, sh Shard, attempt int) (*probe.Collector, error) {
		mu.Lock()
		recomputed[sh.Index] = true
		mu.Unlock()
		return inner(ctx, sh, attempt)
	}
	cfg.Resume = true
	coll, rep2, err := Run(context.Background(), cfg, resumeFn)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Resumed != cut || rep2.Completed != shards-cut || rep2.Degraded() {
		t.Fatalf("run 2 report %+v, want %d resumed / %d computed", rep2, cut, shards-cut)
	}
	for i := 0; i < shards; i++ {
		if recomputed[i] != (i >= cut) {
			t.Fatalf("shard %d recomputed=%v, want %v", i, recomputed[i], i >= cut)
		}
	}
	sameCells(t, ref, coll)

	// Run 3: resuming a fully-done campaign computes nothing.
	coll3, rep3, err := Run(context.Background(), cfg, func(ctx context.Context, sh Shard, attempt int) (*probe.Collector, error) {
		return nil, fmt.Errorf("shard %d must not recompute", sh.Index)
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep3.Resumed != shards || rep3.Completed != 0 {
		t.Fatalf("run 3 report %+v, want all resumed", rep3)
	}
	sameCells(t, ref, coll3)
}

// TestResumeCorruptCheckpoint verifies a torn checkpoint demotes its
// shard to recompute — the CRC catches the damage, the campaign heals.
func TestResumeCorruptCheckpoint(t *testing.T) {
	const numBS, shards = 8, 4
	ref := reference(t, numBS)
	dir := t.TempDir()
	cfg := Config{
		NumBS: numBS, Shards: shards, CheckpointDir: dir,
		BackoffBase: time.Millisecond, BackoffMax: 2 * time.Millisecond,
		ConfigTag: "test-campaign",
	}
	if _, _, err := Run(context.Background(), cfg, testShardFunc(numBS)); err != nil {
		t.Fatal(err)
	}
	// Tear shard 1's checkpoint mid-file.
	path := filepath.Join(dir, checkpointName(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	var recomputed atomic.Int64
	cfg.Resume = true
	inner := testShardFunc(numBS)
	coll, rep, err := Run(context.Background(), cfg, func(ctx context.Context, sh Shard, attempt int) (*probe.Collector, error) {
		if sh.Index != 1 {
			return nil, fmt.Errorf("shard %d recomputed despite a valid checkpoint", sh.Index)
		}
		recomputed.Add(1)
		return inner(ctx, sh, attempt)
	})
	if err != nil {
		t.Fatal(err)
	}
	if recomputed.Load() != 1 || rep.Resumed != shards-1 || rep.Completed != 1 {
		t.Fatalf("report %+v (recomputed %d), want shard 1 recomputed", rep, recomputed.Load())
	}
	sameCells(t, ref, coll)
}

// TestResumeWorkersBitIdentical resumes the same checkpoint directory
// with checkpoints decoding on one and on four goroutines: both resumes
// demote the torn checkpoint among the parallel loads to a recompute,
// and both yield collectors whose encodings equal the reference's.
func TestResumeWorkersBitIdentical(t *testing.T) {
	const numBS, shards = 12, 6
	encode := func(c *probe.Collector) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := c.WriteCheckpoint(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	want := encode(reference(t, numBS))
	dir := t.TempDir()
	cfg := Config{NumBS: numBS, Shards: shards, CheckpointDir: dir, ConfigTag: "test-campaign"}
	if _, _, err := Run(context.Background(), cfg, testShardFunc(numBS)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, checkpointName(3))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Resume = true
	inner := testShardFunc(numBS)
	for _, workers := range []int{1, 4} {
		if err := os.WriteFile(path, data[:len(data)-1], 0o644); err != nil {
			t.Fatal(err)
		}
		cfg.Workers = workers
		var recomputed atomic.Int64
		coll, rep, err := Run(context.Background(), cfg, func(ctx context.Context, sh Shard, attempt int) (*probe.Collector, error) {
			if sh.Index != 3 {
				return nil, fmt.Errorf("shard %d recomputed despite a valid checkpoint", sh.Index)
			}
			recomputed.Add(1)
			return inner(ctx, sh, attempt)
		})
		if err != nil {
			t.Fatalf("%d workers: %v", workers, err)
		}
		if recomputed.Load() != 1 || rep.Resumed != shards-1 || rep.Completed != 1 {
			t.Fatalf("%d workers: report %+v (recomputed %d), want shard 3 recomputed", workers, rep, recomputed.Load())
		}
		if !bytes.Equal(encode(coll), want) {
			t.Fatalf("%d workers: resumed collector differs from the reference", workers)
		}
	}
}

// TestResumeConfigMismatch verifies a checkpoint directory cannot be
// resumed under a different campaign configuration or shard plan.
func TestResumeConfigMismatch(t *testing.T) {
	const numBS = 8
	dir := t.TempDir()
	cfg := Config{NumBS: numBS, Shards: 4, CheckpointDir: dir, ConfigTag: "workload-a"}
	if _, _, err := Run(context.Background(), cfg, testShardFunc(numBS)); err != nil {
		t.Fatal(err)
	}
	cfg.Resume = true
	cfg.ConfigTag = "workload-b"
	if _, _, err := Run(context.Background(), cfg, testShardFunc(numBS)); err == nil ||
		!strings.Contains(err.Error(), "different campaign config") {
		t.Fatalf("config mismatch: err = %v", err)
	}
	cfg.ConfigTag = "workload-a"
	cfg.Shards = 2
	if _, _, err := Run(context.Background(), cfg, testShardFunc(numBS)); err == nil {
		t.Fatal("shard plan mismatch must refuse to resume")
	}
}

// TestRunInterrupted verifies cancellation mid-campaign: completed
// shards are checkpointed, the rest are marked interrupted, and the
// error wraps ErrInterrupted so callers can advertise -resume.
func TestRunInterrupted(t *testing.T) {
	const numBS, shards = 8, 4
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	inner := testShardFunc(numBS)
	fn := func(c context.Context, sh Shard, attempt int) (*probe.Collector, error) {
		if sh.Index == 1 {
			// The "signal" lands as shard 1 starts: with one worker,
			// shard 0 is already checkpointed and everything from here
			// on is cut off.
			cancel()
			return nil, c.Err()
		}
		return inner(c, sh, attempt)
	}
	coll, report, err := Run(ctx, Config{
		NumBS: numBS, Shards: shards, Workers: 1, CheckpointDir: dir,
		ConfigTag: "test-campaign",
	}, fn)
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if report.Completed < 1 || report.Interrupted < 1 {
		t.Fatalf("report %+v, want >=1 completed and >=1 interrupted", report)
	}
	if coll == nil {
		t.Fatal("interrupted campaign with completed shards must still return the partial merge")
	}
	// The final manifest reflects the interruption durably.
	m, err := LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	var done, interrupted int
	for _, sh := range m.Shards {
		switch sh.Status {
		case ShardDone:
			done++
		case ShardInterrupted, ShardPending:
			interrupted++
		}
	}
	if done != report.Completed || done+interrupted != shards {
		t.Fatalf("manifest records %d done / %d interrupted, report %+v", done, interrupted, report)
	}

	// Resume completes the campaign bit-identically.
	ref := reference(t, numBS)
	cfg2 := Config{NumBS: numBS, Shards: shards, CheckpointDir: dir, Resume: true, ConfigTag: "test-campaign"}
	coll2, rep2, err := Run(context.Background(), cfg2, testShardFunc(numBS))
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Resumed != report.Completed || rep2.Degraded() {
		t.Fatalf("resume report %+v, want %d resumed", rep2, report.Completed)
	}
	sameCells(t, ref, coll2)
}

// TestRunValidation covers the hard input errors.
func TestRunValidation(t *testing.T) {
	if _, _, err := Run(context.Background(), Config{NumBS: 0}, testShardFunc(1)); err == nil {
		t.Fatal("NumBS 0 must error")
	}
	if _, _, err := Run(context.Background(), Config{NumBS: 4}, nil); err == nil {
		t.Fatal("nil shard func must error")
	}
	// A shard func returning (nil, nil) is a supervisor error, not a crash.
	_, _, err := Run(context.Background(), Config{
		NumBS: 2, Shards: 1, MaxRetries: -1,
	}, func(ctx context.Context, sh Shard, attempt int) (*probe.Collector, error) {
		return nil, nil
	})
	if err == nil || !strings.Contains(err.Error(), "no shard completed") {
		t.Fatalf("nil/nil shard func: err = %v", err)
	}
}
