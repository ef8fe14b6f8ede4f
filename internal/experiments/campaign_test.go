package experiments

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mobiletraffic/internal/faults"
	"mobiletraffic/internal/netsim"
	"mobiletraffic/internal/probe"
)

// TestShardedBitIdentity is the acceptance gate of the sharded runner:
// for shard counts 1, 4 and 7 the fitted ModelSet JSON must be
// byte-identical to the in-process NewEnv pipeline.
func TestShardedBitIdentity(t *testing.T) {
	cfg := Config{NumBS: 11, Days: 2, Seed: 11}
	ref, err := NewEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}
	refJSON, err := ref.Models.ToJSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 4, 7} {
		env, report, err := NewEnvSharded(context.Background(), cfg, CampaignOptions{Shards: shards})
		if err != nil {
			t.Fatalf("%d shards: %v", shards, err)
		}
		if report.Degraded() || report.Completed != shards {
			t.Fatalf("%d shards: report %+v", shards, report)
		}
		got, err := env.Models.ToJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(refJSON, got) {
			t.Fatalf("%d shards: ModelSet JSON differs from the in-process reference", shards)
		}
	}
}

// TestShardedWithDataFaults verifies the sharded runner composes with
// the data-plane fault injector identically to the in-process path:
// fault streams are per-(BS, day), so sharding must not change the
// realization.
func TestShardedWithDataFaults(t *testing.T) {
	cfg := Config{NumBS: 10, Days: 1, Seed: 13}
	fcfg := faults.Config{OutageProb: 0.2, FlowLossProb: 0.1, Seed: 5}

	numServices := catalogSize(t, cfg.Seed)
	env := func(shards int) []byte {
		t.Helper()
		inj, err := faults.New(fcfg, numServices)
		if err != nil {
			t.Fatal(err)
		}
		e, rep, err := NewEnvSharded(context.Background(), cfg, CampaignOptions{Shards: shards, Faults: inj})
		if err != nil {
			t.Fatalf("%d shards: %v", shards, err)
		}
		if rep.Degraded() {
			t.Fatalf("%d shards: degraded report %+v", shards, rep)
		}
		j, err := e.Models.ToJSON()
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	a, b := env(1), env(3)
	if !bytes.Equal(a, b) {
		t.Fatal("fault-injected campaign differs across shard counts")
	}
}

// TestShardedFaultyWorkersBitIdentical pins the columnar collect plane
// under concurrent shard workers with faults enabled: for worker
// counts 1, 4 and 7 over a fixed shard layout, the fitted ModelSet
// JSON must be byte-identical. Per-(BS, day) substreams and fault
// streams are derived, not sequenced, so scheduling must not matter;
// the CI race job runs this under -race, where any sharing between
// the per-worker DayColumns scratches, fault day-streams or partial
// collectors surfaces as a data race.
func TestShardedFaultyWorkersBitIdentical(t *testing.T) {
	cfg := Config{NumBS: 14, Days: 1, Seed: 21}
	fcfg := faults.Config{
		OutageProb: 0.15, TruncatedDayProb: 0.1, FlowLossProb: 0.05,
		FlowDupProb: 0.02, SignalGapProb: 0.03, MisclassProb: 0.02, Seed: 9,
	}
	numServices := catalogSize(t, cfg.Seed)
	env := func(workers int) []byte {
		t.Helper()
		inj, err := faults.New(fcfg, numServices)
		if err != nil {
			t.Fatal(err)
		}
		e, _, err := NewEnvSharded(context.Background(), cfg, CampaignOptions{
			Shards: 7, Workers: workers, Faults: inj,
		})
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		j, err := e.Models.ToJSON()
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	one := env(1)
	for _, w := range []int{4, 7} {
		if !bytes.Equal(one, env(w)) {
			t.Fatalf("fault-injected campaign differs between 1 and %d workers", w)
		}
	}
}

// catalogSize builds a minimal environment just to learn the service
// catalog size (the fault injector needs the count up front).
func catalogSize(t *testing.T, seed int64) int {
	t.Helper()
	e, err := NewEnv(Config{NumBS: 10, Days: 1, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return len(e.Catalog)
}

// TestShardedResumeRejectsOtherConfig verifies the manifest config hash
// covers the experiment parameters: a checkpoint directory written
// under one seed refuses to resume under another.
func TestShardedResumeRejectsOtherConfig(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{NumBS: 10, Days: 1, Seed: 3}
	if _, _, err := NewEnvSharded(context.Background(), cfg, CampaignOptions{Shards: 2, CheckpointDir: dir}); err != nil {
		t.Fatal(err)
	}
	other := cfg
	other.Seed = 4
	_, _, err := NewEnvSharded(context.Background(), other, CampaignOptions{Shards: 2, CheckpointDir: dir, Resume: true})
	if err == nil || !strings.Contains(err.Error(), "different campaign config") {
		t.Fatalf("seed change: err = %v", err)
	}
}

// TestExpKillResume runs the full chaos experiment at small scale: all
// three phases (crash-retry, kill/resume, retry exhaustion) across a
// couple of shard counts, asserting the determinism columns.
func TestExpKillResume(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	env, err := NewEnv(Config{NumBS: 11, Days: 1, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	r, err := ExpKillResume(env, KillResumeConfig{ShardCounts: []int{1, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(r.Rows))
	}
	for _, row := range r.Rows {
		if !row.CrashIdentical {
			t.Errorf("%d shards: crash-retry fit differs from the reference", row.Shards)
		}
		if row.CrashRetries < 1 {
			t.Errorf("%d shards: crash phase recorded no retry", row.Shards)
		}
		if !row.ResumeIdentical {
			t.Errorf("%d shards: resumed fit differs from the reference", row.Shards)
		}
		if row.Shards > 1 {
			if row.KilledShards < 1 || row.ResumedShards < 1 {
				t.Errorf("%d shards: kill/resume phase killed %d, resumed %d", row.Shards, row.KilledShards, row.ResumedShards)
			}
			if row.DegradedFailed != 1 || row.DegradedLostBS < 1 {
				t.Errorf("%d shards: degraded phase %+v", row.Shards, row)
			}
			if row.DegradedFitted < 1 {
				t.Errorf("%d shards: degraded campaign fitted no services", row.Shards)
			}
		}
	}
	if got := r.Table().Render(); !strings.Contains(got, "kill/resume") {
		t.Fatalf("table render missing title: %q", got)
	}
}

// TestCampaignInterruptPath verifies the cmd/characterize contract: a
// canceled campaign surfaces campaign.ErrInterrupted and leaves a
// resumable checkpoint directory behind.
func TestCampaignInterruptPath(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{NumBS: 10, Days: 1, Seed: 19}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the "signal" arrives before any shard completes
	_, _, err := NewEnvSharded(ctx, cfg, CampaignOptions{Shards: 3, CheckpointDir: dir})
	if err == nil {
		t.Fatal("pre-canceled campaign must error")
	}
	// Nothing completed, so the merge has nothing; a live resume run
	// then computes everything and matches the reference.
	ref, err := NewEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}
	refJSON, err := ref.Models.ToJSON()
	if err != nil {
		t.Fatal(err)
	}
	env, rep, err := NewEnvSharded(context.Background(), cfg, CampaignOptions{Shards: 3, CheckpointDir: dir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 3 {
		t.Fatalf("resume-after-abort report %+v", rep)
	}
	got, err := env.Models.ToJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(refJSON, got) {
		t.Fatal("resume after aborted campaign differs from the reference")
	}
}

// TestCheckpointBytesPin pins the checkpoint wire format to digests of
// real campaign output: the first shard's checkpoint file and the
// re-encoded merged collection of a 5-shard, 10-BS, 2-day campaign
// under the chaos acceptance fault mix (outages, truncation, loss,
// duplication, signaling gaps and misclassification, so the ungrouped
// ingest path fills the cells). Any change to the encoding, to the
// in-memory cell layout's round trip through it, or to the collected
// statistics changes a digest. The version-1 oracle encoding of the
// same collectors is pinned too: its digests are those of the last
// version-1 release, so the statistics are the ones it wrote.
func TestCheckpointBytesPin(t *testing.T) {
	dir := t.TempDir()
	coll := pinCampaign(t, dir, false)
	shardPath := filepath.Join(dir, "shard-0000.ckpt")
	shard, err := os.ReadFile(shardPath)
	if err != nil {
		t.Fatal(err)
	}
	shardColl, err := probe.ReadCheckpointFile(shardPath)
	if err != nil {
		t.Fatal(err)
	}
	var merged bytes.Buffer
	if err := coll.WriteCheckpoint(&merged); err != nil {
		t.Fatal(err)
	}
	shardV1 := writeCheckpointV1(shardColl)
	for _, pin := range []struct {
		name string
		data []byte
		want string
		size int
	}{
		{"shard-0000.ckpt", shard, "bd98b2f5c26f759c45c2fe0f1302c91a1b8933d7afee35bffe0b76c7ae594ec8", 193759},
		{"merged", merged.Bytes(), "1f832263f16a1444a34be4def4f08d8960c5716b939ca41c0c48e70fbbf5568f", 817410},
		{"shard-0000.ckpt v1", shardV1, "cd6a026e4ba602491d30e2a17feacaf182815f1782b569b36bf6aa999103f9ce", 1275546},
		{"merged v1", writeCheckpointV1(coll), "b639f6ce16d75e8c7636eed1da64717bd26a3ef61d61e7039eef9db8a5375235", 5411738},
	} {
		if got := fmt.Sprintf("%x", sha256.Sum256(pin.data)); got != pin.want || len(pin.data) != pin.size {
			t.Errorf("%s: checkpoint sha256 = %s (%d B), want %s (%d B)", pin.name, got, len(pin.data), pin.want, pin.size)
		}
	}
	if 5*len(shard) > len(shardV1) {
		t.Errorf("shard checkpoint is %d B, more than 1/5 of its %d B version-1 encoding", len(shard), len(shardV1))
	}
}

// TestResumeOverV1Checkpoints resumes a campaign whose checkpoint
// directory holds version-1 shard files: the decoder refuses each as
// an unsupported version, so the resume recomputes every shard and
// still yields the collection of the original run.
func TestResumeOverV1Checkpoints(t *testing.T) {
	dir := t.TempDir()
	ref := pinCampaign(t, dir, false)
	var want bytes.Buffer
	if err := ref.WriteCheckpoint(&want); err != nil {
		t.Fatal(err)
	}
	paths, err := filepath.Glob(filepath.Join(dir, "shard-*.ckpt"))
	if err != nil || len(paths) != 5 {
		t.Fatalf("shard checkpoints %v (err %v), want 5", paths, err)
	}
	for _, path := range paths {
		coll, err := probe.ReadCheckpointFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, writeCheckpointV1(coll), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := probe.ReadCheckpointFile(path); err == nil || !strings.Contains(err.Error(), "unsupported checkpoint version 1") {
			t.Fatalf("version-1 checkpoint: err = %v", err)
		}
	}
	coll := pinCampaign(t, dir, true)
	var got bytes.Buffer
	if err := coll.WriteCheckpoint(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("resume over version-1 checkpoints changed the collection")
	}
}

// pinCampaign runs (or, with resume, resumes) the checkpoint pin
// campaign in dir and returns its merged collector. A resume must
// recompute every shard: the callers leave no checkpoint it can load.
func pinCampaign(t *testing.T, dir string, resume bool) *probe.Collector {
	t.Helper()
	c := Config{NumBS: 10, Days: 2, Seed: 1}.withDefaults()
	topo, err := netsim.NewTopology(netsim.TopologyConfig{NumBS: c.NumBS, Seed: c.Seed})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := netsim.NewSimulator(topo, netsim.SimConfig{Days: c.Days, Seed: c.Seed, MoveProb: c.MoveProb})
	if err != nil {
		t.Fatal(err)
	}
	inj, err := faults.New(faults.Config{
		OutageProb: 0.20, TruncatedDayProb: 0.10, FlowLossProb: 0.05,
		FlowDupProb: 0.02, SignalGapProb: 0.03, MisclassProb: 0.02, Seed: 1,
	}, len(sim.Services))
	if err != nil {
		t.Fatal(err)
	}
	coll, rep, err := CollectSharded(context.Background(), sim, c, CampaignOptions{
		Shards: 5, Workers: 1, CheckpointDir: dir, Faults: inj, Resume: resume,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Degraded() || rep.Completed != 5 || rep.Resumed != 0 {
		t.Fatalf("report %+v", rep)
	}
	return coll
}

// writeCheckpointV1 is the version-1 checkpoint encoder, kept as an
// oracle of the statistics the pins cover: the version-2 header and
// CRC trailer, and cells of raw f64 values — slab index (u64), session
// total, minute counts, volume bins, duration-volume sums, duration
// counts.
func writeCheckpointV1(c *probe.Collector) []byte {
	numBS, days := c.Extent()
	keys := c.Keys()
	b := append([]byte(nil), "MTCP"...)
	b = binary.LittleEndian.AppendUint16(b, 1)
	for _, v := range []int{c.NumServices, numBS, days, netsim.MinutesPerDay, len(c.VolumeEdges), len(c.DurationEdges)} {
		b = binary.LittleEndian.AppendUint32(b, uint32(v))
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(len(keys)))
	f64s := func(vs ...float64) {
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
	}
	f64s(c.VolumeEdges...)
	f64s(c.DurationEdges...)
	for _, k := range keys {
		st, _ := c.Get(k)
		b = binary.LittleEndian.AppendUint64(b, uint64((k.Service*numBS+k.BS)*days+k.Day))
		f64s(st.Sessions)
		for _, n := range st.MinuteCounts {
			f64s(float64(n))
		}
		f64s(st.Volume.P...)
		f64s(st.DurVolSum...)
		f64s(st.DurCount...)
	}
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, crc32.MakeTable(crc32.Castagnoli)))
}
