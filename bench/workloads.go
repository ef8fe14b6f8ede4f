package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"time"

	"mobiletraffic/internal/core"
	"mobiletraffic/internal/services"
)

// workers is the concurrency every workload runs at: the benchmark host
// has two CPUs, and more workers than CPUs would measure the scheduler.
const workers = 2

// scale sizes the workloads and their measurement. The benchmark runs
// fullScale; the tests run a small one.
type scale struct {
	NumBS         int // base stations of every simulated campaign
	Days          int // days of characterize and of the generation fixture
	CampaignDays  int // days of the checkpointed campaign
	SliceAntennas int // antennas of the Table 2 study
	SliceDays     int // evaluation days of the Table 2 study
	// TraceDays is the days generated per load decile by tracegen. The
	// reader's record slice grows in capacity steps at 349.5k, 437k and
	// 547k records, and a day of the ten deciles holds 175k to 184k
	// records across seeds 1 to 24. Two days (350k to 367k) stay within
	// one step; three straddle the 547k step, 26 MB of allocation apart
	// from one seed to the next.
	TraceDays int
	// Variants is how many input variants, each under its own seed
	// derived from the run's seed, a run rotates through. One draw of a
	// campaign's probe outages can shift its work by 15 %; rotating
	// through several keeps a run's numbers from hanging on one draw.
	Variants int
	// MinOps is the least number of timed operations, however short
	// the run: 50 leave ten beyond op_p80_ref. A 25 s run completes 45
	// to 116 when the host is busy, so only a slow phase needs more time.
	MinOps int
	// An end-to-end run sets up at least SetupRuns times and for at
	// least SetupBudget; setup_s is the median. Cheap fixtures thus get
	// many samples, which keeps a sub-millisecond median steady.
	SetupRuns   int
	SetupBudget time.Duration
}

var fullScale = scale{
	NumBS: 20, Days: 7, CampaignDays: 3, SliceAntennas: 2, SliceDays: 2, TraceDays: 2,
	Variants: 8, MinOps: 50, SetupRuns: 5, SetupBudget: time.Second,
}

// variantSeed derives the seed of input variant v; variant 0 runs under
// the run's seed itself.
func variantSeed(seed int64, v int) int64 { return seed + int64(v)*1_000_003 }

// workload is one closed-loop benchmark workload: one client issuing the
// next operation when the previous one returns.
type workload struct {
	name string
	// why is the reason the workload is in the benchmark: the layers it
	// drives and the ones it bypasses.
	why   string
	setup func(sc scale, seed int64, workdir string) (fixture, error)
	// opMetric, when set, names the per-layer metric that records the
	// untraced operation's wall time in the traced run. It marks a
	// replay that re-drives only part of the operation.
	opMetric string
}

// fixture is a workload's prepared input, one per variant.
type fixture interface {
	// op runs one operation on variant v through the program's own entry
	// point; it is what the end-to-end metrics time.
	op(v int) (result, error)
	// replay re-drives the same operation through the public calls of
	// each layer, in production order and at the same worker count,
	// recording a span around every call. A nil tracer runs it untraced.
	replay(v int, tr *tracer) (result, error)
	// close removes whatever the fixture wrote to disk.
	close()
}

// result is an operation's output, checked after the timing stops.
type result interface {
	check() (*output, error)
}

// output is the checked form of a result.
type output struct {
	// digest identifies the output a replay must reproduce byte for byte.
	digest string
	// full identifies the whole output of an untraced operation, which
	// must repeat exactly across operations; empty when it equals digest.
	full string
	// quality holds the output-quality metrics of the traced run.
	quality map[string]float64
}

var workloads = []workload{
	{
		name: "characterize",
		why: "in-process 2-worker campaign to models: columnar sampler, probe ingest, merge and fits; " +
			"no faults, no disk, no generation",
		setup: setupCharacterize,
	},
	{
		name: "campaign",
		why: "faulted 4-shard checkpointed campaign plus resume: fault gates, ungrouped ingest, " +
			"checkpoint write/fsync/read and two refits",
		setup: setupCampaign,
	},
	{
		name: "slicing",
		why: "Table 2 on a fixed environment: generation fold, demand rasterizing, category tiles, " +
			"slice allocation; bypasses probe ingest and fits",
		setup:    setupSlicing,
		opMetric: "experiments.table2_s",
	},
	{
		name: "tracegen",
		why: "10-decile 2-day generation fold written as MTTR, flushed, read back and summarized; " +
			"bypasses measurement and slicing",
		setup: setupTracegen,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// modelsResult is the output of the measurement workloads: the released
// ModelSet JSON.
type modelsResult struct {
	json []byte
}

func newModelsResult(set *core.ModelSet) (*modelsResult, error) {
	js, err := set.ToJSON()
	if err != nil {
		return nil, fmt.Errorf("encode models: %w", err)
	}
	return &modelsResult{json: js}, nil
}

// Loose sanity bars on the fits, far outside seed-to-seed variation: a
// fit that misses them is broken, not noisy.
const (
	maxBetaMAE  = 0.5
	maxShareL1  = 0.2
	minServices = 20
)

func (r *modelsResult) check() (*output, error) {
	set, err := core.ModelSetFromJSON(r.json)
	if err != nil {
		return nil, err
	}
	if err := set.Validate(); err != nil {
		return nil, err
	}
	mae, l1 := fitQuality(set)
	if len(set.Services) < minServices || !(mae <= maxBetaMAE) || !(l1 <= maxShareL1) {
		return nil, fmt.Errorf("fit off ground truth: %d services, beta MAE %.3f, share L1 %.4f",
			len(set.Services), mae, l1)
	}
	return &output{
		digest:  digestBytes(r.json),
		quality: map[string]float64{"core.fit_beta_mae": mae, "core.fit_share_l1": l1},
	}, nil
}

// fitQuality compares the fitted models with the simulator's ground
// truth: the mean absolute error of the duration-volume exponent and the
// L1 distance of the session shares, over the fitted services.
func fitQuality(set *core.ModelSet) (betaMAE, shareL1 float64) {
	truth := map[string]services.Profile{}
	for _, p := range services.All() {
		truth[p.Name] = p
	}
	for _, m := range set.Services {
		p := truth[m.Name]
		betaMAE += math.Abs(m.Duration.Beta - p.Beta)
		shareL1 += math.Abs(m.SessionShare - p.SessionSharePct/100)
	}
	if n := len(set.Services); n > 0 {
		betaMAE /= float64(n)
	}
	return betaMAE, shareL1
}

func digestBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// fileSize returns the size of a file, or of every file directly in a
// directory.
func fileSize(path string) (int64, error) {
	st, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	if !st.IsDir() {
		return st.Size(), nil
	}
	entries, err := os.ReadDir(path)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		n += info.Size()
	}
	return n, nil
}
