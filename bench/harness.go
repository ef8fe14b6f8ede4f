package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"mobiletraffic/internal/mathx"
)

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the pipeline sees, measured with
// tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ref", "ref"},
	{"op_p80_ref", "ref"},
	{"alloc_mb_per_op", "MB"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of the traced run, each the median over the
// traced operations. A layer a workload does not reach reads 0.
var perLayer = []metricDef{
	{"netsim.build_s", "s"},
	{"netsim.sample_busy_s", "s"},
	{"netsim.generate_day_busy_s", "s"},
	{"netsim.sessions", "count"},
	{"faults.apply_busy_s", "s"},
	{"faults.keep_ratio", "1"},
	{"faults.outage_days", "count"},
	{"probe.observe_busy_s", "s"},
	{"probe.merge_s", "s"},
	{"probe.checkpoint_bytes", "B"},
	{"experiments.collect_idle_s", "s"},
	{"experiments.table2_s", "s"},
	{"campaign.write_s", "s"},
	{"campaign.shard_busy_s", "s"},
	{"campaign.outside_shards_s", "s"},
	{"campaign.resume_s", "s"},
	{"campaign.retries", "count"},
	{"campaign.resumed", "count"},
	{"core.fit_services_s", "s"},
	{"core.fit_arrivals_s", "s"},
	{"core.fit_beta_mae", "1"},
	{"core.fit_share_l1", "1"},
	{"core.fold_wait_s", "s"},
	{"core.gen_sessions", "count"},
	{"core.blocks", "count"},
	{"trace.write_busy_s", "s"},
	{"trace.flush_s", "s"},
	{"trace.read_s", "s"},
	{"trace.summary_s", "s"},
	{"trace.bytes", "B"},
	{"trace.records", "count"},
	{"trace.bytes_per_record", "B"},
	{"slicing.rasterize_busy_s", "s"},
	{"slicing.allocate_s", "s"},
	{"slicing.evaluate_s", "s"},
	{"slicing.sla_model", "1"},
	{"unattributed_s", "s"},
	{"span_coverage", "1"},
	{"trace_overhead", "1"},
}

// spanMetrics derives per-layer metrics from span times: the summed
// duration of every span of that name, or with self set, the summed
// time those spans spent outside their child spans.
var spanMetrics = map[string]struct {
	span string
	self bool
}{
	"netsim.build_s":             {"netsim.build", false},
	"netsim.sample_busy_s":       {"netsim.sample", false},
	"netsim.generate_day_busy_s": {"netsim.generate_day", false},
	"faults.apply_busy_s":        {"faults.apply", false},
	"probe.observe_busy_s":       {"probe.observe", false},
	"probe.merge_s":              {"probe.merge", false},
	"campaign.write_s":           {"campaign.write", false},
	"campaign.shard_busy_s":      {"campaign.shard", false},
	"campaign.outside_shards_s":  {"campaign.write", true},
	"campaign.resume_s":          {"campaign.resume", false},
	"core.fit_services_s":        {"core.fit_services", false},
	"core.fit_arrivals_s":        {"core.fit_arrivals", false},
	"core.fold_wait_s":           {"core.fold_wait", false},
	"trace.write_busy_s":         {"trace.write", false},
	"trace.flush_s":              {"trace.flush", false},
	"trace.read_s":               {"trace.read", false},
	"trace.summary_s":            {"trace.summary", false},
	"slicing.rasterize_busy_s":   {"slicing.rasterize", false},
	"slicing.allocate_s":         {"slicing.allocate", false},
	"slicing.evaluate_s":         {"slicing.evaluate", false},
}

const (
	// setupCalEvery spaces the calibration samples taken between
	// set-ups, so fast set-ups are not drowned in kernel runs.
	setupCalEvery = 100 * time.Millisecond
	// keptSpanOps bounds how many traced operations keep their spans in
	// the report, which stays a few hundred kilobytes.
	keptSpanOps = 2
	maxFailures = 5 // failure messages kept in the report
)

// runOptions configures one workload run.
type runOptions struct {
	seed    int64
	seconds float64
	trace   bool
	workdir string
	sc      scale
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// distribution is a per-layer metric over the traced operations.
type distribution struct {
	P10 float64 `json:"p10"`
	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
	N   int     `json:"n"`
}

type hostInfo struct {
	CPUModel   string  `json:"cpu_model"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CalSP50    float64 `json:"cal_s_p50,omitempty"` // median calibration kernel time
}

// runReport is the outcome of one workload run.
type runReport struct {
	Workload  string                  `json:"workload"`
	Seed      int64                   `json:"seed"`
	Seconds   float64                 `json:"seconds"`
	Trace     bool                    `json:"trace"`
	Host      hostInfo                `json:"host"`
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]metricValue  `json:"metrics"`
	Dist      map[string]distribution `json:"distribution,omitempty"`
	// Raw holds uncalibrated timings, for information only.
	Raw      map[string]float64 `json:"raw,omitempty"`
	Failures []string           `json:"failures,omitempty"`
	Spans    []Span             `json:"spans,omitempty"`
}

func (r *runReport) fail(op int, err error) {
	r.Failed++
	if len(r.Failures) < maxFailures {
		r.Failures = append(r.Failures, fmt.Sprintf("op %d: %v", op, err))
	}
}

// sameOutput checks a result and holds it to refs[v], the output of
// variant v's first operation, which the first call records. Replays are
// held to the part of the output they reproduce.
func sameOutput(r result, refs []*output, v int, replay bool) (*output, error) {
	got, err := r.check()
	if err != nil {
		return nil, err
	}
	want := refs[v]
	if want == nil {
		refs[v] = got
		return got, nil
	}
	if got.digest != want.digest {
		return nil, fmt.Errorf("output digest %.12s differs from the reference %.12s", got.digest, want.digest)
	}
	if !replay && got.full != want.full {
		return nil, fmt.Errorf("output digest %.12s differs from the reference %.12s", got.full, want.full)
	}
	return got, nil
}

// run measures one workload: set-up, one untimed warm-up operation, then
// operations rotating through the variants until the time is up — timed
// with tracing off (at least sc.MinOps of them), or traced.
func run(w workload, o runOptions) (*runReport, error) {
	runtime.GOMAXPROCS(workers)
	rep := &runReport{Workload: w.name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace, Host: host()}
	var setupWall, setupCal []float64
	var lastCal time.Time
	setupEnd := time.Now().Add(o.sc.SetupBudget)
	for i := 0; !o.trace && (i < o.sc.SetupRuns || time.Now().Before(setupEnd)); i++ {
		runtime.GC()
		start := time.Now()
		fx, err := w.setup(o.sc, o.seed, o.workdir)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setupWall = append(setupWall, time.Since(start).Seconds())
		fx.close()
		if time.Since(lastCal) >= setupCalEvery {
			setupCal = append(setupCal, calibrate())
			lastCal = time.Now()
		}
	}
	fx, err := w.setup(o.sc, o.seed, o.workdir)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	defer fx.close()

	refs := make([]*output, o.sc.Variants)
	r, err := fx.op(0)
	if err == nil {
		_, err = sameOutput(r, refs, 0, false)
	}
	if err != nil {
		return nil, fmt.Errorf("%s warm-up: %w", w.name, err)
	}
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	if o.trace {
		traced(w, fx, refs, deadline, rep)
	} else {
		if err := timed(fx, refs, deadline, o.sc.MinOps, rep); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		// Set-up time in seconds of the nominal host: the median set-up
		// as a multiple of the kernel's time, times calRefSeconds.
		setupS := mathx.Median(setupWall)
		rep.Metrics["setup_s"] = metricValue{setupS / mathx.Median(setupCal) * calRefSeconds, "s"}
		rep.Raw["setup_s_p50"] = setupS
		rep.Raw["setups"] = float64(len(setupWall))
	}
	rep.Correct = rep.Failed == 0
	return rep, nil
}

// timed runs operations with tracing off, each followed by one
// calibration sample, and fills the end-to-end metrics from the
// operations that succeeded: a failed operation's time and memory say
// nothing of the work it should have done. Each operation's resident-set
// peak is measured on its own. It runs at least minOps operations.
func timed(fx fixture, refs []*output, deadline time.Time, minOps int, rep *runReport) error {
	var ratios, walls, cals []float64
	peaks := make([][]float64, len(refs))
	var allocated uint64
	var ms runtime.MemStats
	debug.FreeOSMemory()
	for i := 0; i < minOps || time.Now().Before(deadline); i++ {
		v := i % len(refs)
		resetPeakRSS()
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		start := time.Now()
		r, err := fx.op(v)
		wall := time.Since(start).Seconds()
		runtime.ReadMemStats(&ms)
		opAlloc := ms.TotalAlloc - before
		peak, perr := peakRSSMB()
		rep.Attempted++
		if err == nil {
			_, err = sameOutput(r, refs, v, false)
		}
		if err == nil {
			err = perr
		}
		// Collecting the garbage and returning it to the OS now keeps
		// background marking out of the calibration sample and starts
		// every operation from the same heap and resident set.
		debug.FreeOSMemory()
		cal := calibrate()
		cals = append(cals, cal)
		if err != nil {
			rep.fail(i, err)
			continue
		}
		allocated += opAlloc
		walls = append(walls, wall)
		ratios = append(ratios, wall/cal)
		peaks[v] = append(peaks[v], peak)
	}
	if len(walls) == 0 {
		return fmt.Errorf("all %d operations failed, first: %s", rep.Attempted, rep.Failures[0])
	}
	// A variant's resident peak is nearly the same on every operation,
	// while variants differ: the median per variant drops the odd
	// operation, the mean over variants weighs each variant equally.
	var peak float64
	measured := 0
	for _, p := range peaks {
		if len(p) > 0 {
			peak += mathx.Median(p)
			measured++
		}
	}
	peak /= float64(measured)
	rep.Host.CalSP50 = mathx.Median(cals)
	rep.Metrics = map[string]metricValue{
		"op_p50_ref":      {mathx.Quantile(ratios, 0.5), "ref"},
		"op_p80_ref":      {mathx.Quantile(ratios, 0.8), "ref"},
		"alloc_mb_per_op": {float64(allocated) / float64(len(walls)) / 1e6, "MB"},
		"peak_rss_mb":     {peak, "MB"},
	}
	rep.Raw = map[string]float64{
		"op_s_p50":  mathx.Quantile(walls, 0.5),
		"op_s_p80":  mathx.Quantile(walls, 0.8),
		"cal_s_p50": rep.Host.CalSP50,
		"ops":       float64(len(walls)),
	}
	return nil
}

// traced runs, per iteration, the untraced operation, then its replay
// traced and untraced (in alternating order), and fills the per-layer
// metrics from the traced replays. Every replay must reproduce the
// operation's output.
func traced(w workload, fx fixture, refs []*output, deadline time.Time, rep *runReport) {
	perOp := map[string][]float64{}
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		v := i % len(refs)
		rep.Attempted++
		runtime.GC()
		start := time.Now()
		r, err := fx.op(v)
		opWall := time.Since(start).Seconds()
		if err == nil {
			_, err = sameOutput(r, refs, v, false)
		}
		if err != nil {
			rep.fail(i, err)
			continue
		}
		var tr *tracer
		var out *output
		var tracedWall, plainWall float64
		for k := 0; k < 2 && err == nil; k++ {
			var t *tracer
			if k == i%2 {
				t = newTracer(i)
			}
			var wall float64
			var got *output
			got, wall, err = replayOnce(fx, v, t, refs)
			if t != nil {
				tr, out, tracedWall = t, got, wall
			} else {
				plainWall = wall
			}
		}
		if err != nil {
			rep.fail(i, err)
			continue
		}
		for name, v := range layerValues(w, tr, out, opWall, tracedWall, plainWall) {
			perOp[name] = append(perOp[name], v)
		}
		if i < keptSpanOps {
			rep.Spans = append(rep.Spans, tr.spans...)
		}
	}
	rep.Metrics = map[string]metricValue{}
	rep.Dist = map[string]distribution{}
	for _, m := range perLayer {
		vals := perOp[m.name]
		d := distribution{N: len(vals)}
		if len(vals) > 0 {
			ps := mathx.Percentiles(vals, []float64{0.1, 0.5, 0.9})
			d.P10, d.P50, d.P90 = ps[0], ps[1], ps[2]
		}
		rep.Dist[m.name] = d
		rep.Metrics[m.name] = metricValue{d.P50, m.unit}
	}
}

// replayOnce runs one replay and checks it against its variant's
// reference output.
func replayOnce(fx fixture, v int, tr *tracer, refs []*output) (*output, float64, error) {
	runtime.GC()
	start := time.Now()
	r, err := fx.replay(v, tr)
	wall := time.Since(start).Seconds()
	if err != nil {
		return nil, wall, fmt.Errorf("replay: %w", err)
	}
	out, err := sameOutput(r, refs, v, true)
	if err != nil {
		return nil, wall, fmt.Errorf("replay: %w", err)
	}
	return out, wall, nil
}

// layerValues derives one traced operation's per-layer metrics.
func layerValues(w workload, tr *tracer, out *output, opWall, tracedWall, plainWall float64) map[string]float64 {
	total, self := spanTimes(tr.spans)
	v := map[string]float64{}
	for name, sm := range spanMetrics {
		if _, ok := total[sm.span]; !ok {
			continue
		}
		if sm.self {
			v[name] = self[sm.span]
		} else {
			v[name] = total[sm.span]
		}
	}
	for name, x := range tr.counts {
		v[name] = x
	}
	for name, x := range out.quality {
		v[name] = x
	}
	covered := coveredWall(tr.spans)
	wall := tracedWall
	if w.opMetric != "" {
		// The replay re-drives only part of the operation, so what its
		// spans leave uncovered is measured against the operation itself.
		wall = opWall
		v[w.opMetric] = opWall
	}
	v["unattributed_s"] = wall - covered
	v["span_coverage"] = covered / wall
	v["trace_overhead"] = tracedWall/plainWall - 1
	return v
}

// resetPeakRSS restarts the kernel's peak-RSS mark of this process at
// its current resident set (Linux clear_refs), so the next peakRSSMB
// covers only what follows. Where the kernel refuses, the mark keeps
// counting from process start.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}

func host() hostInfo {
	return hostInfo{
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// printLines prints one "workload metric value unit" line per metric,
// in definition order.
func printLines(rep *runReport) {
	defs := endToEnd
	if rep.Trace {
		defs = perLayer
	}
	for _, m := range defs {
		if v, ok := rep.Metrics[m.name]; ok {
			fmt.Printf("%s %s %.6g %s\n", rep.Workload, m.name, v.Value, v.Unit)
		}
	}
	for _, f := range rep.Failures {
		fmt.Fprintf(os.Stderr, "%s: failed %s\n", rep.Workload, f)
	}
}
