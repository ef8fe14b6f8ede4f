package main

import (
	"fmt"
	"math"
	"os"
	"reflect"
	"sort"
	"strconv"

	"mobiletraffic/internal/core"
	"mobiletraffic/internal/experiments"
	"mobiletraffic/internal/netsim"
	"mobiletraffic/internal/probe"
	"mobiletraffic/internal/slicing"
	"mobiletraffic/internal/trace"
)

// buildEnv is the set-up of the generation workloads: a characterized
// environment whose fitted models drive generation.
func buildEnv(sc scale, seed int64) (*experiments.Env, error) {
	return experiments.NewEnv(experiments.Config{NumBS: sc.NumBS, Days: sc.Days, Seed: seed})
}

// --- slicing ---------------------------------------------------------

const (
	modelStrategy = "session-level models"
	slaBar        = 0.95
	minSLAModel   = 0.9 // the model strategy's mean satisfaction floor
)

// slicingFixture shares one environment between its variants, which
// differ in the seed of the study's generators.
type slicingFixture struct {
	env  *experiments.Env
	cfgs []experiments.SlicingConfig
}

func setupSlicing(sc scale, seed int64, _ string) (fixture, error) {
	env, err := buildEnv(sc, seed)
	if err != nil {
		return nil, err
	}
	f := &slicingFixture{env: env}
	for v := 0; v < sc.Variants; v++ {
		f.cfgs = append(f.cfgs, experiments.SlicingConfig{
			Antennas: sc.SliceAntennas, Days: sc.SliceDays, Seed: variantSeed(seed, v) + 2, Workers: workers,
		})
	}
	return f, nil
}

func (f *slicingFixture) close() {}

// slicingResult holds Table 2 rows; a replay reproduces the model row.
type slicingResult struct {
	rows []experiments.StrategyResult
}

func rowKey(r experiments.StrategyResult) string {
	return fmt.Sprintf("%s %x %x %d %d", r.Name, math.Float64bits(r.MeanSatisfied),
		math.Float64bits(r.StdSatisfied), r.SLAMet, r.Slices)
}

func (r *slicingResult) check() (*output, error) {
	var model *experiments.StrategyResult
	full := ""
	for i := range r.rows {
		full += rowKey(r.rows[i]) + "\n"
		if r.rows[i].Name == modelStrategy {
			model = &r.rows[i]
		}
	}
	if model == nil {
		return nil, fmt.Errorf("no %q row", modelStrategy)
	}
	if !(model.MeanSatisfied >= minSLAModel) {
		return nil, fmt.Errorf("model strategy satisfied %.4f of peak minutes, want >= %.2f", model.MeanSatisfied, minSLAModel)
	}
	digest := digestBytes([]byte(rowKey(*model)))
	out := &output{digest: digest, quality: map[string]float64{"slicing.sla_model": model.MeanSatisfied}}
	if len(r.rows) > 1 {
		out.full = digestBytes([]byte(full))
	}
	return out, nil
}

func (f *slicingFixture) op(v int) (result, error) {
	res, err := experiments.ExpTable2(f.env, f.cfgs[v])
	if err != nil {
		return nil, err
	}
	return &slicingResult{rows: res.Strategies}, nil
}

// busiestAntennas is the antenna choice of experiments.ExpTable2: the n
// busiest load classes, ties by index.
func busiestAntennas(env *experiments.Env, n int) []int {
	idx := make([]int, len(env.Topo.BSs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return env.Topo.BSs[idx[a]].Decile > env.Topo.BSs[idx[b]].Decile
	})
	return idx[:min(n, len(idx))]
}

// replay re-drives the model strategy of experiments.ExpTable2 for every
// antenna: real demand from the scalar simulator, the antenna's arrival
// fit, the model reference trace folded from the generator, percentile
// allocation and evaluation. The category strategies run on unexported
// builders and are not replayed.
func (f *slicingFixture) replay(v int, tr *tracer) (result, error) {
	env, c := f.env, f.cfgs[v]
	numServices := len(env.Catalog)
	// model index -> catalog index, -1 for services the models lack.
	toCatalog := make([]int, len(env.Models.Services))
	var catalogIdx []int
	for mi := range toCatalog {
		toCatalog[mi] = -1
		for ci, p := range env.Catalog {
			if p.Name == env.Models.Services[mi].Name {
				toCatalog[mi] = ci
				catalogIdx = append(catalogIdx, ci)
				break
			}
		}
	}
	peak := slicing.PeakMinutes()
	refDays := max(c.Days, 4)
	study := busiestAntennas(env, c.Antennas)
	perAntenna := make([][]slicing.SLAResult, len(study))
	_, err := fanOut(len(study), workers, func(w, ai int) error {
		a := study[ai]
		demand, err := slicing.NewDemandTrace(numServices, c.Days*24*60)
		if err != nil {
			return err
		}
		for day := 0; day < c.Days; day++ {
			h := tr.begin("netsim.generate_day", -1, w)
			n := 0
			err := env.Sim.GenerateDay(a, day, func(s netsim.Session) {
				n++
				_ = demand.AddSession(slicing.SessionSpec{
					Service:  s.Service,
					Start:    float64(day)*86400 + s.Start,
					Duration: s.Duration,
					Volume:   s.Volume,
				})
			})
			tr.end(h)
			tr.add("netsim.sessions", float64(n))
			if err != nil {
				return err
			}
		}
		h := tr.begin("core.fit_arrivals", -1, w)
		filter := probe.BSIn([]int{a})
		arr, err := core.FitArrivalModel(
			env.Coll.MinuteCountSamples(filter, netsim.IsPeakMinute),
			env.Coll.MinuteCountSamples(filter, netsim.IsOffPeakMinute))
		tr.end(h)
		if err != nil {
			return err
		}
		ref, err := slicing.NewDemandTrace(numServices, refDays*24*60)
		if err != nil {
			return err
		}
		gen, err := core.NewGeneratorEngine(env.Models, c.Seed+int64(a), core.GenV2)
		if err != nil {
			return err
		}
		spec := core.CampaignSpec{Arrivals: []*core.ArrivalModel{arr}, Keys: []uint64{uint64(a)}, Days: refDays, Workers: 1}
		err = tracedFold(tr, w, gen, spec, func(blk *core.DayBlock) error {
			h := tr.begin("slicing.rasterize", -1, w)
			defer tr.end(h)
			origin := float64(blk.Day) * 86400
			for i := 0; i < blk.Sessions(); i++ {
				ci := toCatalog[blk.Svc[i]]
				if ci < 0 {
					continue
				}
				_ = ref.AddSession(slicing.SessionSpec{
					Service:  ci,
					Start:    origin + blk.Start[i],
					Duration: blk.Duration[i],
					Volume:   blk.Volume[i],
				})
			}
			return nil
		})
		if err != nil {
			return err
		}
		h = tr.begin("slicing.allocate", -1, w)
		alloc, err := slicing.AllocatePercentile(ref, slaBar, peak)
		tr.end(h)
		if err != nil {
			return err
		}
		h = tr.begin("slicing.evaluate", -1, w)
		res, err := slicing.Evaluate(demand, alloc, peak)
		tr.end(h)
		if err != nil {
			return err
		}
		for _, ci := range catalogIdx {
			perAntenna[ai] = append(perAntenna[ai], res[ci])
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var all []slicing.SLAResult
	for _, rs := range perAntenna {
		all = append(all, rs...)
	}
	s := slicing.Summarize(all, slaBar)
	return &slicingResult{rows: []experiments.StrategyResult{{
		Name:          modelStrategy,
		MeanSatisfied: s.MeanSatisfied,
		StdSatisfied:  s.StdSatisfied,
		SLAMet:        s.SLAMetCount,
		Slices:        s.SliceCount,
	}}}, nil
}

// tracedFold runs a campaign fold with the consumer's wait for each
// block in a core.fold_wait span and counts the blocks and sessions.
func tracedFold(tr *tracer, worker int, gen *core.Generator, spec core.CampaignSpec, visit func(*core.DayBlock) error) error {
	wait := tr.begin("core.fold_wait", -1, worker)
	err := gen.GenerateCampaignFold(spec, func(blk *core.DayBlock) error {
		tr.end(wait)
		tr.add("core.blocks", 1)
		tr.add("core.gen_sessions", float64(blk.Sessions()))
		err := visit(blk)
		wait = tr.begin("core.fold_wait", -1, worker)
		return err
	})
	tr.end(wait)
	return err
}

// --- tracegen --------------------------------------------------------

// tracegenFixture shares one environment between its variants, which
// differ in the generator's seed.
type tracegenFixture struct {
	env  *experiments.Env
	gens []*core.Generator
	days int
	path string
}

func setupTracegen(sc scale, seed int64, workdir string) (fixture, error) {
	env, err := buildEnv(sc, seed)
	if err != nil {
		return nil, err
	}
	fx := &tracegenFixture{env: env, days: sc.TraceDays}
	for v := 0; v < sc.Variants; v++ {
		gen, err := core.NewGenerator(env.Models, variantSeed(seed, v))
		if err != nil {
			return nil, err
		}
		fx.gens = append(fx.gens, gen)
	}
	f, err := os.CreateTemp(workdir, "tracegen-*.mttr")
	if err != nil {
		return nil, err
	}
	f.Close()
	fx.path = f.Name()
	return fx, nil
}

func (f *tracegenFixture) close() { os.Remove(f.path) }

// tracegenResult is the trace read back and what the writer reported.
type tracegenResult struct {
	records []trace.Record
	written int
	bytes   int64
}

func (r *tracegenResult) check() (*output, error) {
	if len(r.records) != r.written || r.written == 0 {
		return nil, fmt.Errorf("read %d records, wrote %d", len(r.records), r.written)
	}
	// FNV-1a over the records' bits: an equality check between runs of
	// one process, several times cheaper than a cryptographic hash over
	// the ~700k records of every operation.
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for _, rec := range r.records {
		for _, v := range [...]float64{rec.TimeS, rec.Bytes, rec.DurationS, rec.Throughput} {
			h = (h ^ math.Float64bits(v)) * prime
		}
		for i := 0; i < len(rec.Service); i++ {
			h = (h ^ uint64(rec.Service[i])) * prime
		}
		h = (h ^ 0xff) * prime
	}
	return &output{
		digest:  strconv.FormatUint(h, 16),
		quality: map[string]float64{"trace.bytes_per_record": float64(r.bytes) / float64(r.written)},
	}, nil
}

func (f *tracegenFixture) op(v int) (result, error) { return f.run(f.gens[v], nil) }

func (f *tracegenFixture) replay(v int, tr *tracer) (result, error) { return f.run(f.gens[v], tr) }

// run generates every load decile's days through the fold into an MTTR
// file, then reads it back and checks the footer summary against one
// computed from the records.
func (f *tracegenFixture) run(gen *core.Generator, tr *tracer) (result, error) {
	file, err := os.Create(f.path)
	if err != nil {
		return nil, err
	}
	defer file.Close()
	w, err := trace.NewWriter(file, trace.Bin)
	if err != nil {
		return nil, err
	}
	set := gen.Set
	spec := core.CampaignSpec{Arrivals: f.env.Arrivals, Days: f.days, Workers: workers}
	err = tracedFold(tr, 0, gen, spec, func(blk *core.DayBlock) error {
		h := tr.begin("trace.write", -1, 0)
		defer tr.end(h)
		origin := float64(blk.Day) * 86400
		for i := 0; i < blk.Sessions(); i++ {
			err := w.Write(trace.Record{
				TimeS:      origin + blk.Start[i],
				Service:    set.Services[blk.Svc[i]].Name,
				Bytes:      blk.Volume[i],
				DurationS:  blk.Duration[i],
				Throughput: blk.Volume[i] / blk.Duration[i],
			})
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	h := tr.begin("trace.flush", -1, 0)
	err = w.Flush()
	if err == nil {
		err = file.Close()
	}
	tr.end(h)
	if err != nil {
		return nil, err
	}
	size, err := fileSize(f.path)
	if err != nil {
		return nil, err
	}
	tr.add("trace.bytes", float64(size))
	tr.add("trace.records", float64(w.Count()))

	h = tr.begin("trace.read", -1, 0)
	records, err := readTrace(f.path)
	tr.end(h)
	if err != nil {
		return nil, err
	}
	h = tr.begin("trace.summary", -1, 0)
	footer, err := trace.ReadSummaryFile(f.path)
	computed := trace.Summarize(records)
	tr.end(h)
	if err != nil {
		return nil, err
	}
	if !reflect.DeepEqual(footer, computed) {
		return nil, fmt.Errorf("trace footer summary %+v differs from the records' %+v", footer, computed)
	}
	return &tracegenResult{records: records, written: w.Count(), bytes: size}, nil
}

func readTrace(path string) ([]trace.Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return trace.Read(f)
}
