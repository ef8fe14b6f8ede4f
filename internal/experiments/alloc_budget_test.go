package experiments

// Allocation-budget regression guard for the columnar collect path
// (ISSUE 10): the parallel campaign must allocate only the per-worker
// partial collectors (cell slabs sized to the campaign extent) and one
// pre-sized DayColumns scratch per worker — the per-(BS, day) sampling
// and ingest loops themselves run allocation-free. The budget scales
// with the worker count because each worker owns a full-extent partial
// collector; a regression here means the day loop started allocating
// (scratch re-growth, per-session materialization, or cell churn).

import (
	"runtime"
	"testing"

	"mobiletraffic/internal/netsim"
)

// Per-worker Collect() footprint ceilings, calibrated at ~1.5x the
// measured steady-state of the 20-BS, 7-day campaign below: the
// partial collector's dense slabs dominate (one DayStats per touched
// (service, BS, day) cell), plus the worker's DayColumns scratch.
const (
	collectAllocPerWorker = 96 << 20 // partial collector + columnar scratch
	collectAllocBase      = 8 << 20  // merge plane, topology, fit-free fixed costs
)

func TestCollectAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second campaign")
	}
	const numBS, days = 20, 7
	topo, err := netsim.NewTopology(netsim.TopologyConfig{NumBS: numBS, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := netsim.NewSimulator(topo, netsim.SimConfig{Days: days, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Warm run: lazy simulator state (phase tables, alias tables).
	if _, err := Collect(sim, days, nil); err != nil {
		t.Fatal(err)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	coll, err := Collect(sim, days, nil)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	if coll.TotalSessions() <= 0 {
		t.Fatal("campaign collected no sessions")
	}
	workers := runtime.NumCPU()
	if workers > numBS {
		workers = numBS
	}
	if workers < 1 {
		workers = 1
	}
	budget := uint64(collectAllocBase + workers*collectAllocPerWorker)
	got := m1.TotalAlloc - m0.TotalAlloc
	if got > budget {
		t.Errorf("collect allocated %d B transient with %d workers, budget %d B: the columnar day loop is allocating again",
			got, workers, budget)
	}
	t.Logf("collect transient heap: %d B with %d workers (budget %d B)", got, workers, budget)
}
