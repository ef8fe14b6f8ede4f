package experiments

import (
	"strconv"
	"testing"

	"mobiletraffic/internal/faults"
	"mobiletraffic/internal/netsim"
	"mobiletraffic/internal/obs"
)

// obsTestSim builds a small campaign simulator for instrumentation
// tests.
func obsTestSim(t *testing.T, seed int64) (*netsim.Simulator, int) {
	t.Helper()
	const days = 2
	topo, err := netsim.NewTopology(netsim.TopologyConfig{NumBS: 12, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := netsim.NewSimulator(topo, netsim.SimConfig{Days: days, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return sim, days
}

// TestCollectInstrumentationExactness runs the parallel collection
// with a live registry and checks that the counters written
// concurrently by every worker add up to exactly what the collector
// itself accounted — no lost increments under contention (the test is
// also exercised with -race in CI).
func TestCollectInstrumentationExactness(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	old := obs.Default()
	reg := obs.NewRegistry()
	obs.SetDefault(reg)
	defer obs.SetDefault(old)

	sim, days := obsTestSim(t, 9)
	coll, err := Collect(sim, days, nil)
	if err != nil {
		t.Fatal(err)
	}

	wantSessions := int64(coll.TotalSessions())
	if got := reg.Counter("netsim_sessions_generated_total").Value(); got != wantSessions {
		t.Errorf("netsim_sessions_generated_total = %d, want %d", got, wantSessions)
	}
	var flows int64
	for svc := 0; svc < len(sim.Services); svc++ {
		flows += reg.Counter("probe_flows_tracked_total", "service", "svc"+strconv.Itoa(svc)).Value()
	}
	if flows != wantSessions {
		t.Errorf("sum of probe_flows_tracked_total = %d, want %d", flows, wantSessions)
	}
	// Every BS must be accounted to exactly one worker.
	var done int64
	for w := 0; w < 64; w++ {
		done += reg.Counter("collect_bs_total", "worker", strconv.Itoa(w)).Value()
	}
	if done != int64(len(sim.Topo.BSs)) {
		t.Errorf("sum of collect_bs_total = %d, want %d", done, len(sim.Topo.BSs))
	}
	if reg.Histogram(obs.StageSecondsMetric, obs.DefBucketsSeconds, "stage", "collect").Count() != 1 {
		t.Error("collect stage span not recorded in pipeline_stage_seconds")
	}
}

// TestInstrumentationDoesNotPerturbFaults collects the same faulty
// campaign with instrumentation disabled and enabled and demands
// identical fault realizations and session totals: the observability
// layer must never touch the deterministic fault/simulation RNG
// streams.
func TestInstrumentationDoesNotPerturbFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	cfg := faults.Config{
		OutageProb: 0.2, TruncatedDayProb: 0.1, FlowLossProb: 0.05,
		FlowDupProb: 0.02, SignalGapProb: 0.03, MisclassProb: 0.02, Seed: 41,
	}
	run := func(instrumented bool) (faults.Snapshot, float64) {
		old := obs.Default()
		if instrumented {
			obs.SetDefault(obs.NewRegistry())
		} else {
			obs.SetDefault(nil)
		}
		defer obs.SetDefault(old)

		sim, days := obsTestSim(t, 9)
		inj, err := faults.New(cfg, len(sim.Services))
		if err != nil {
			t.Fatal(err)
		}
		coll, err := Collect(sim, days, inj)
		if err != nil {
			t.Fatal(err)
		}
		return inj.Stats(), coll.TotalSessions()
	}

	statsOff, sessionsOff := run(false)
	statsOn, sessionsOn := run(true)
	if statsOff != statsOn {
		t.Errorf("fault stats diverge with instrumentation on:\noff: %+v\non:  %+v", statsOff, statsOn)
	}
	if sessionsOff != sessionsOn {
		t.Errorf("collected sessions diverge: off %v, on %v", sessionsOff, sessionsOn)
	}
}
