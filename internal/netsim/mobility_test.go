package netsim

import (
	"testing"

	"mobiletraffic/internal/services"
)

// The mobility layer is exercised end-to-end by internal/probe's
// pipeline tests; these are package-local checks on its basic shape.

func TestSimulateMobilityDefaults(t *testing.T) {
	topo, err := NewTopology(TopologyConfig{NumBS: 10, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSimulator(topo, SimConfig{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	trace, err := sim.SimulateMobility(MobilityConfig{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(trace.Events) < 100 {
		t.Errorf("events = %d (100 UEs must at least attach)", len(trace.Events))
	}
	if len(trace.Flows) == 0 {
		t.Error("no flows generated")
	}
	// Handover targets stay within the topology and differ from the
	// previous BS.
	last := map[uint64]int{}
	for _, ev := range trace.Events {
		if ev.Type != UEDetach && (ev.BS < 0 || ev.BS >= 10) {
			t.Fatalf("event BS out of range: %+v", ev)
		}
		if ev.Type == UEHandover && last[ev.UE] == ev.BS {
			t.Fatalf("handover to the same BS: %+v", ev)
		}
		last[ev.UE] = ev.BS
	}
}

func TestSimulateMobilityDeterministic(t *testing.T) {
	topo, err := NewTopology(TopologyConfig{NumBS: 10, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSimulator(topo, SimConfig{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	cfg := MobilityConfig{UEs: 20, Horizon: 600, Seed: 9}
	a, err := sim.SimulateMobility(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sim.SimulateMobility(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Events) != len(b.Events) || len(a.Flows) != len(b.Flows) {
		t.Fatalf("non-deterministic: %d/%d events, %d/%d flows",
			len(a.Events), len(b.Events), len(a.Flows), len(b.Flows))
	}
	for i := range a.Flows {
		if a.Flows[i] != b.Flows[i] {
			t.Fatalf("flow %d differs", i)
		}
	}
}

func TestNewSimulatorWithCatalogValidation(t *testing.T) {
	topo, err := NewTopology(TopologyConfig{NumBS: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSimulatorWithCatalog(topo, SimConfig{}, nil); err == nil {
		t.Error("empty catalog must error")
	}
	bad := []services.Profile{{Name: "x", SessionSharePct: -1}}
	if _, err := NewSimulatorWithCatalog(topo, SimConfig{}, bad); err == nil {
		t.Error("negative share must error")
	}
	zero := []services.Profile{{Name: "x", SessionSharePct: 0}}
	if _, err := NewSimulatorWithCatalog(topo, SimConfig{}, zero); err == nil {
		t.Error("zero total share must error")
	}
	// A valid custom catalog simulates only its own services.
	custom := []services.Profile{
		{Name: "only", SessionSharePct: 1, MainMu: 5, MainSigma: 0.5,
			Beta: 0.5, TypDuration: 60, DurationNoise: 0.2},
	}
	sim, err := NewSimulatorWithCatalog(topo, SimConfig{Seed: 3}, custom)
	if err != nil {
		t.Fatal(err)
	}
	err = sim.GenerateDay(0, 0, func(s Session) {
		if s.Service != 0 {
			t.Fatalf("unexpected service %d", s.Service)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
