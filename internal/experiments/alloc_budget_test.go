package experiments

// Allocation-budget regression guards for the columnar collect path.
// Collect must allocate only the one shared collector (cell slabs
// sized to the campaign extent) and one pre-sized DayColumns scratch
// per worker — the per-(BS, day) sampling and ingest loops themselves
// run allocation-free, and no partial collector is built or merged. A
// regression here means the day loop started allocating (scratch
// re-growth, per-session materialization, or cell churn) or the
// collection grew a per-worker copy of the cells again.

import (
	"context"
	"runtime"
	"testing"

	"mobiletraffic/internal/netsim"
)

// Collect() footprint ceilings for the 20-BS, 7-day campaign below,
// calibrated at about 1.22x the measured steady state on a 2-CPU host
// (46.2 MB in all: the collector 35.9 MB, each worker's scratch 5.2 MB),
// so the budget stays within 1.3x the measurement at any worker count.
const (
	collectAllocCollector = 42 << 20 // the shared collector's cells, plus fixed costs
	collectAllocPerWorker = 6 << 20  // one worker's columnar scratch
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
	budget := uint64(collectAllocCollector + workers*collectAllocPerWorker)
	got := m1.TotalAlloc - m0.TotalAlloc
	if got > budget {
		t.Errorf("collect allocated %d B transient with %d workers, budget %d B: the day loop is allocating again, or the cells are copied",
			got, workers, budget)
	}
	t.Logf("collect transient heap: %d B with %d workers (budget %d B)", got, workers, budget)
}

// TestCollectShardedReusesScratch pins the shard scratch freelist: a
// 4-shard campaign on 2 workers runs at most 2 shard attempts at once,
// so it must build at most 2 collection scratches, not one per shard.
func TestCollectShardedReusesScratch(t *testing.T) {
	c := Config{NumBS: 12, Days: 1, Seed: 5}.withDefaults()
	topo, err := netsim.NewTopology(netsim.TopologyConfig{NumBS: c.NumBS, Seed: c.Seed})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := netsim.NewSimulator(topo, netsim.SimConfig{Days: c.Days, Seed: c.Seed, MoveProb: c.MoveProb})
	if err != nil {
		t.Fatal(err)
	}
	free := &scratchFreelist{sim: sim}
	_, rep, err := collectSharded(context.Background(), sim, c, CampaignOptions{Shards: 4, Workers: 2}, free)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 4 {
		t.Fatalf("report %+v", rep)
	}
	if free.built < 1 || free.built > 2 {
		t.Fatalf("4 shards on 2 workers built %d scratches, want 1 or 2", free.built)
	}
}
