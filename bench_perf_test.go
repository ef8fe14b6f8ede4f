package mobiletraffic

// Micro-benchmarks of the measurement-to-model hot path: the
// end-to-end campaign (NewEnv), per-session folding into the
// collector (Observe) and the Eq. (2) aggregation scan
// (AggregateVolume). BENCH_pr3.json records their trajectory.

import (
	"bytes"
	"context"
	"io"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"mobiletraffic/internal/core"
	"mobiletraffic/internal/experiments"
	"mobiletraffic/internal/mathx"
	"mobiletraffic/internal/netsim"
	"mobiletraffic/internal/probe"
	"mobiletraffic/internal/trace"
)

// BenchmarkNewEnv times the whole campaign-to-model pipeline at the
// default configuration (NumBS=40, Days=7): simulate, collect, merge,
// fit volumes/durations/arrivals.
func BenchmarkNewEnv(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		env, err := experiments.NewEnv(experiments.Config{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if len(env.Models.Services) == 0 {
			b.Fatal("no services modeled")
		}
	}
}

// BenchmarkCollectorObserve times folding one session into an
// already-touched statistics cell — the per-session cost of the whole
// measurement plane, which a dense store keeps allocation-free.
func BenchmarkCollectorObserve(b *testing.B) {
	coll, err := probe.NewCollector(4)
	if err != nil {
		b.Fatal(err)
	}
	s := netsim.Session{Service: 1, BS: 2, Day: 0, Minute: 600, Volume: 3e6, Duration: 40}
	if err := coll.Observe(s); err != nil { // touch the cell once
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := coll.Observe(s); err != nil {
			b.Fatal(err)
		}
	}
}

// benchColumnsSim builds the default-topology simulator and one
// sampled (BS, day) column set for the columnar micro-benches: the
// busiest base station of the 40-BS default topology, pre-sized to the
// campaign bound so the benched loop never re-allocates.
func benchColumnsSim(b *testing.B) (*netsim.Simulator, *netsim.DayColumns) {
	b.Helper()
	topo, err := netsim.NewTopology(netsim.TopologyConfig{NumBS: 40, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	sim, err := netsim.NewSimulator(topo, netsim.SimConfig{Days: 7, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	cols := &netsim.DayColumns{SkipStart: true}
	cols.Resize(sim.MaxDaySessions())
	cols.Resize(0)
	return sim, cols
}

// busiestBS returns the topology index with the highest peak arrival
// rate, so the columnar micro-benches run on the heaviest day loop.
func busiestBS(sim *netsim.Simulator) int {
	best := 0
	for i, bs := range sim.Topo.BSs {
		if bs.PeakRate > sim.Topo.BSs[best].PeakRate {
			best = i
		}
	}
	return best
}

// BenchmarkSamplerDayColumns times synthesizing one (BS, day) of the
// busiest base station straight into the columnar scratch — arrival
// counts, batched service picks, grouped volume/duration kernels and
// the mobility gate, with zero per-session materialization.
func BenchmarkSamplerDayColumns(b *testing.B) {
	sim, cols := benchColumnsSim(b)
	bs := busiestBS(sim)
	if err := sim.SampleDayColumns(bs, 0, cols); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sim.SampleDayColumns(bs, i%7, cols); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(cols.N()), "sessions/op")
}

// BenchmarkCollectorObserveColumns times folding one sampled (BS, day)
// column set into the collector — the per-day cost of the columnar
// probe ingest (grouped segment walk, threshold binning, bulk session
// counts), steady-state after the cells exist.
func BenchmarkCollectorObserveColumns(b *testing.B) {
	sim, cols := benchColumnsSim(b)
	bs := busiestBS(sim)
	if err := sim.SampleDayColumns(bs, 0, cols); err != nil {
		b.Fatal(err)
	}
	coll, err := probe.NewCollectorSized(len(sim.Services), len(sim.Topo.BSs), 7)
	if err != nil {
		b.Fatal(err)
	}
	if err := coll.ObserveColumns(bs, 0, cols); err != nil { // touch the cells once
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := coll.ObserveColumns(bs, 0, cols); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(cols.N()), "sessions/op")
}

// BenchmarkCampaignResume times the resume path of the fault-tolerant
// sharded runner: every shard loads from its checkpoint (codec decode +
// CRC), the partials fold in shard order, and the models refit — the
// cost of restarting an interrupted nationwide campaign, with zero
// re-simulation.
func BenchmarkCampaignResume(b *testing.B) {
	dir := b.TempDir()
	cfg := experiments.Config{NumBS: 20, Days: 3, Seed: 1}
	opts := experiments.CampaignOptions{Shards: 4, CheckpointDir: dir}
	if _, _, err := experiments.NewEnvSharded(context.Background(), cfg, opts); err != nil {
		b.Fatal(err)
	}
	opts.Resume = true
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env, report, err := experiments.NewEnvSharded(context.Background(), cfg, opts)
		if err != nil {
			b.Fatal(err)
		}
		if report.Resumed != 4 || len(env.Models.Services) == 0 {
			b.Fatalf("resume did not cover the campaign: %s", report.Summary())
		}
	}
}

// traceBenchRecords builds a decimal-quantized 1M-session stream — the
// interchange population the CSV surface produces (%.3f/%.0f values,
// nearly sorted establishment times) that the MTTR columnar encodings
// target.
var traceBenchRecords = sync.OnceValue(func() []trace.Record {
	const n = 1 << 20
	rng := rand.New(rand.NewSource(7))
	svcs := []string{"Netflix", "Twitch", "Waze", "Google Meet", "Pokemon GO", "Spotify"}
	q := func(v float64) float64 { return math.Round(v*1000) / 1000 }
	out := make([]trace.Record, n)
	tm := 0.0
	for i := range out {
		tm += rng.Float64() * 0.12
		vol := math.Round(100 + math.Exp(rng.NormFloat64()*2+12))
		dur := q(0.5 + math.Exp(rng.NormFloat64()+3))
		out[i] = trace.Record{
			TimeS:      q(tm),
			Service:    svcs[rng.Intn(len(svcs))],
			Bytes:      vol,
			DurationS:  dur,
			Throughput: q(vol / dur),
		}
	}
	return out
})

// countingDiscard counts bytes so the benchmark can report the encoded
// trace size without holding it.
type countingDiscard struct{ n int64 }

func (c *countingDiscard) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// benchmarkTraceWrite times encoding the 1M-record stream in one trace
// format, reporting per-record time and the encoded size.
func benchmarkTraceWrite(b *testing.B, format trace.Format) {
	recs := traceBenchRecords()
	b.ReportAllocs()
	b.ResetTimer()
	var size int64
	for i := 0; i < b.N; i++ {
		cw := &countingDiscard{}
		w, err := trace.NewWriter(cw, format)
		if err != nil {
			b.Fatal(err)
		}
		for j := range recs {
			if err := w.Write(recs[j]); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			b.Fatal(err)
		}
		size = cw.n
	}
	b.ReportMetric(float64(size)/float64(len(recs)), "bytes/record")
}

// BenchmarkTraceWriteCSV is the interchange baseline MTTR is judged
// against (BENCH_pr7.json records the ratio).
func BenchmarkTraceWriteCSV(b *testing.B) { benchmarkTraceWrite(b, trace.CSV) }

// BenchmarkTraceWriteBin times the MTTR columnar binary writer on the
// same 1M-record stream: the acceptance bar is ≥3× fewer bytes and
// ≥2× less wall time than CSV.
func BenchmarkTraceWriteBin(b *testing.B) { benchmarkTraceWrite(b, trace.Bin) }

// traceBenchBin is the 1M-record benchmark stream encoded as MTTR.
func traceBenchBin(b *testing.B) ([]trace.Record, []byte) {
	recs := traceBenchRecords()
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, trace.Bin)
	if err != nil {
		b.Fatal(err)
	}
	for j := range recs {
		if err := w.Write(recs[j]); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
	return recs, buf.Bytes()
}

// benchmarkTraceRead times decoding the MTTR stream through the reader
// open returns.
func benchmarkTraceRead(b *testing.B, open func([]byte) io.Reader) {
	recs, data := traceBenchBin(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		back, err := trace.Read(open(data))
		if err != nil {
			b.Fatal(err)
		}
		if len(back) != len(recs) {
			b.Fatalf("read %d records, want %d", len(back), len(recs))
		}
	}
}

// BenchmarkTraceReadBin times decoding the same 1M-record stream from
// a seekable reader: a peek at the footer presizes the result, then
// every block decodes through reused column buffers straight into it,
// with per-record validation.
func BenchmarkTraceReadBin(b *testing.B) {
	benchmarkTraceRead(b, func(d []byte) io.Reader { return bytes.NewReader(d) })
}

// BenchmarkTraceReadBinStream times the same decode from a reader that
// cannot seek, as from a pipe: each block lands in its own exact-size
// chunk and the chunks are joined once the footer checks out.
func BenchmarkTraceReadBinStream(b *testing.B) {
	benchmarkTraceRead(b, func(d []byte) io.Reader { return struct{ io.Reader }{bytes.NewReader(d)} })
}

// BenchmarkTraceSummarize times trace.Summarize over the 1M-record
// stream: the counts plus the volume quantiles by selection.
func BenchmarkTraceSummarize(b *testing.B) {
	recs := traceBenchRecords()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := trace.Summarize(recs); s.Sessions != len(recs) {
			b.Fatalf("summarized %d sessions, want %d", s.Sessions, len(recs))
		}
	}
}

// benchmarkGenerateCampaign times a 10-BS x 7-day campaign (one BS per
// fitted load decile) on the parallel generation plane at the given
// worker count, reporting sessions/op. The output is bit-identical at
// every worker count, so the workers=1 / workers=4 pair measures pure
// scheduling overhead vs scaling.
func benchmarkGenerateCampaign(b *testing.B, workers int) {
	env := benchEnvironment(b)
	gen, err := core.NewGenerator(env.Models, 1)
	if err != nil {
		b.Fatal(err)
	}
	spec := core.CampaignSpec{Arrivals: env.Arrivals, Days: 7, Workers: workers}
	b.ReportAllocs()
	b.ResetTimer()
	var sessions int
	for i := 0; i < b.N; i++ {
		blocks, err := gen.GenerateCampaign(spec)
		if err != nil {
			b.Fatal(err)
		}
		sessions = 0
		for j := range blocks {
			sessions += blocks[j].Sessions()
		}
		if sessions == 0 {
			b.Fatal("campaign generated no sessions")
		}
	}
	b.ReportMetric(float64(sessions), "sessions/op")
}

// skipIfSingleCPU skips benchmarks whose headline is multi-worker
// scaling: on a GOMAXPROCS=1 box they measure scheduling overhead
// only, and their numbers would pollute the benchstat trend.
func skipIfSingleCPU(b *testing.B) {
	if runtime.GOMAXPROCS(0) == 1 {
		b.Skip("multi-worker benchmark needs GOMAXPROCS > 1")
	}
}

// BenchmarkGenerateCampaign is the single-worker baseline of the
// parallel plane (the cost of the batched cell kernel itself).
func BenchmarkGenerateCampaign(b *testing.B) { benchmarkGenerateCampaign(b, 1) }

// BenchmarkGenerateCampaign4 runs the same campaign on 4 workers; on a
// multi-core box the acceptance bar for the plane is >= 2x wall-clock
// over the single-worker baseline (BENCH_pr8.json records both).
func BenchmarkGenerateCampaign4(b *testing.B) {
	skipIfSingleCPU(b)
	benchmarkGenerateCampaign(b, 4)
}

// benchmarkGenerateCampaignFold runs the same campaign through the
// zero-materialization fold: identical blocks, O(workers) of them live
// at once, storage recycled through the freelist. Against
// BenchmarkGenerateCampaign the pair exposes the B/op the fold gives
// back (the whole campaign's blocks) at equal-or-better wall clock.
func benchmarkGenerateCampaignFold(b *testing.B, workers int) {
	env := benchEnvironment(b)
	gen, err := core.NewGenerator(env.Models, 1)
	if err != nil {
		b.Fatal(err)
	}
	spec := core.CampaignSpec{Arrivals: env.Arrivals, Days: 7, Workers: workers}
	b.ReportAllocs()
	b.ResetTimer()
	var sessions int
	for i := 0; i < b.N; i++ {
		sessions = 0
		err := gen.GenerateCampaignFold(spec, func(blk *core.DayBlock) error {
			sessions += blk.Sessions()
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		if sessions == 0 {
			b.Fatal("campaign generated no sessions")
		}
	}
	b.ReportMetric(float64(sessions), "sessions/op")
}

// BenchmarkGenerateCampaignFold is the serial fold baseline: one
// recycled block for the whole campaign.
func BenchmarkGenerateCampaignFold(b *testing.B) { benchmarkGenerateCampaignFold(b, 1) }

// BenchmarkGenerateCampaignFold4 folds on 4 workers: the in-order
// visit serializes consumption, so this measures how well production
// overlaps the fold under the bounded window.
func BenchmarkGenerateCampaignFold4(b *testing.B) {
	skipIfSingleCPU(b)
	benchmarkGenerateCampaignFold(b, 4)
}

// benchGenBatch times one batch kernel against 1024-element buffers.
func benchGenBatch(b *testing.B, fill func(p *mathx.PCG, dst []float64)) {
	var rng mathx.PCG
	rng.SeedStream(1, 2, 3)
	dst := make([]float64, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fill(&rng, dst)
	}
	b.ReportMetric(float64(len(dst)), "draws/op")
}

// BenchmarkGenBatchUniform/Norm/Exp time the fill-N draw kernels the
// campaign cells run on (state kept register-resident across the loop).
func BenchmarkGenBatchUniform(b *testing.B) { benchGenBatch(b, (*mathx.PCG).FillFloat64) }
func BenchmarkGenBatchNorm(b *testing.B)    { benchGenBatch(b, (*mathx.PCG).FillNorm) }
func BenchmarkGenBatchExp(b *testing.B)     { benchGenBatch(b, (*mathx.PCG).FillExp) }

// BenchmarkGenBatchAliasPick times the branch-light batched alias pick
// over a 28-way categorical (the Table 1 service attribution shape).
func BenchmarkGenBatchAliasPick(b *testing.B) {
	weights := make([]float64, 28)
	rng0 := rand.New(rand.NewSource(5))
	for i := range weights {
		weights[i] = rng0.Float64() + 0.01
	}
	tab, err := mathx.NewAliasTable(weights)
	if err != nil {
		b.Fatal(err)
	}
	var rng mathx.PCG
	rng.SeedStream(4, 5, 6)
	us := make([]float64, 1024)
	rng.FillFloat64(us)
	out := make([]int32, len(us))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.PickBatch(us, out)
	}
	b.ReportMetric(float64(len(us)), "picks/op")
}

// BenchmarkAggregateVolume times the Eq. (2) nationwide per-service
// volume aggregation over a realistic campaign's cell population.
func BenchmarkAggregateVolume(b *testing.B) {
	env := benchEnvironment(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := env.Coll.AggregateVolume(probe.ForService(0)); err != nil {
			b.Fatal(err)
		}
	}
}
