package main

import (
	"encoding/json"
	"math"
	"regexp"
	"testing"
	"time"
)

// smallScale keeps every run to a second or two, so the suite stays
// fast under -race.
var smallScale = scale{
	NumBS: 10, Days: 1, CampaignDays: 1, SliceAntennas: 1, SliceDays: 1, TraceDays: 1,
	Variants: 1, MinOps: 1, SetupRuns: 1,
}

type benchmarkFile struct {
	Workloads []struct{ Name, Why string }  `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestEveryWorkloadEmitsTheListedMetrics runs each workload for one
// operation, untraced and traced, and checks that it emits exactly the
// metrics BENCHMARK.json lists, with their units and finite values. A
// traced run with no failed operation also shows that the replay,
// traced and untraced, reproduced the program's output byte for byte.
func TestEveryWorkloadEmitsTheListedMetrics(t *testing.T) {
	var def benchmarkFile
	if err := readJSON("../BENCHMARK.json", &def); err != nil {
		t.Fatal(err)
	}
	if len(def.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(def.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if def.Workloads[i].Name != w.name || def.Workloads[i].Why != w.why {
			t.Errorf("BENCHMARK.json workload %d is %+v, the harness has %q: %q", i, def.Workloads[i], w.name, w.why)
		}
	}
	for _, w := range workloads {
		for _, traceOn := range []bool{false, true} {
			rep, err := run(w, runOptions{seed: 1, trace: traceOn, workdir: t.TempDir(), sc: smallScale})
			if err != nil {
				t.Fatalf("%s (trace %v): %v", w.name, traceOn, err)
			}
			if !rep.Correct || rep.Attempted < 1 || rep.Failed != 0 {
				t.Errorf("%s (trace %v): correct %v, %d of %d failed: %v",
					w.name, traceOn, rep.Correct, rep.Failed, rep.Attempted, rep.Failures)
			}
			want := def.EndToEnd
			if traceOn {
				want = def.PerLayer
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s (trace %v): emitted %d metrics, BENCHMARK.json lists %d", w.name, traceOn, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s (trace %v): metric %s not emitted", w.name, traceOn, m.Name)
				case !metricName.MatchString(m.Name):
					t.Errorf("metric name %q has characters outside [A-Za-z0-9_.-]", m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", w.name, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s: metric %s = %v", w.name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestReplayUnderAnotherSeedFails is the negative control of the replay
// check: a replay driven by another seed than its operation must count
// as a failed operation, not pass.
func TestReplayUnderAnotherSeedFails(t *testing.T) {
	for _, w := range workloads {
		fx, err := w.setup(smallScale, 1, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer fx.close()
		r, err := fx.op(0)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := r.check()
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		other, err := w.setup(smallScale, 2, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer other.close()
		rep := &runReport{}
		traced(w, otherReplay{fx, other}, []*output{ref}, time.Now(), rep)
		if rep.Attempted != 1 || rep.Failed != 1 {
			t.Errorf("%s: replay under seed 2 gave %d failed of %d, want 1 of 1", w.name, rep.Failed, rep.Attempted)
		}
	}
}

// otherReplay runs one fixture's operation and another's replay.
type otherReplay struct {
	fixture
	other fixture
}

func (o otherReplay) replay(v int, tr *tracer) (result, error) { return o.other.replay(v, tr) }

func TestSpanTimes(t *testing.T) {
	spans := []Span{
		{Name: "a", Start: 0, End: 4, Parent: -1},
		{Name: "b", Start: 1, End: 2, Parent: 0},
		{Name: "b", Start: 1.5, End: 3, Parent: 0},
		{Name: "c", Start: 5, End: 6, Parent: -1},
	}
	total, self := spanTimes(spans)
	if total["a"] != 4 || self["a"] != 2 || total["b"] != 2.5 || self["c"] != 1 {
		t.Errorf("total %v, self %v", total, self)
	}
	if got := coveredWall(spans); got != 5 {
		t.Errorf("covered wall %v, want 5", got)
	}
}

func TestJudge(t *testing.T) {
	series := func(base, step float64) []float64 {
		xs := make([]float64, 10)
		for i := range xs {
			xs[i] = base + step*float64(i%5)
		}
		return xs
	}
	parent := series(1, 0.01)
	for _, tc := range []struct {
		name   string
		change []float64
		want   string
	}{
		{"faster", series(0.8, 0.01), improved},
		{"same", series(1, 0.01), unchanged},
		{"within bound", series(1.05, 0.01), unchanged},
		{"slower", series(1.2, 0.01), worse},
		{"noisy", series(1, 0.1), unresolved},
	} {
		if got, _, _ := judge(parent, tc.change, 0.1, true); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
	if got, _, _ := judge(series(1, 0.01), series(1.2, 0.01), 0.1, false); got != improved {
		t.Errorf("higher-is-better gain judged %s", got)
	}
}

// TestCompareFailuresOutweighGains checks that a change failing more of a
// workload's operations than the parent is judged worse there, however
// fast its remaining operations ran.
func TestCompareFailuresOutweighGains(t *testing.T) {
	var def benchmarkDef
	if err := json.Unmarshal([]byte(`{"end_to_end": [{"name": "op_p50_ref", "unit": "ref", "better": "lower", "bound": 0.1}]}`), &def); err != nil {
		t.Fatal(err)
	}
	suites := func(op float64, failedCampaignOps int) []*suiteReport {
		var out []*suiteReport
		for i := 0; i < 10; i++ {
			s := &suiteReport{Workloads: map[string]*workloadReport{}}
			for _, w := range []string{"characterize", "campaign"} {
				rep := &runReport{Attempted: 100, Metrics: map[string]metricValue{"op_p50_ref": {op + 0.01*float64(i%3), "ref"}}}
				if w == "campaign" && i == 0 {
					rep.Failed = failedCampaignOps
				}
				s.Workloads[w] = &workloadReport{Untraced: rep}
			}
			out = append(out, s)
		}
		return out
	}
	got := map[string]string{}
	for _, r := range compareSuites(def, suites(1, 0), suites(0.5, 1)) {
		got[r.workload] = r.verdict
	}
	if got["characterize"] != improved || got["campaign"] != worse {
		t.Errorf("verdicts %v, want characterize improved and campaign worse", got)
	}
}
