package experiments

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"mobiletraffic/internal/faults"
	"mobiletraffic/internal/netsim"
	"mobiletraffic/internal/probe"
)

// TestForEachBSAllWorkersFail is the deadlock regression test: when
// every worker fails on its first task, the feeder must still be able
// to hand out the remaining tasks (the workers drain them) and the
// call must return the error instead of blocking forever. Run under
// -race this also exercises the per-worker error slots.
func TestForEachBSAllWorkersFail(t *testing.T) {
	boom := errors.New("boom")
	done := make(chan error, 1)
	go func() {
		// Far more tasks than workers, so a worker that returned out of
		// the task loop (the old bug) would strand the feeder.
		done <- forEachBS(1000, 4, func(w, bs int) error { return boom })
	}()
	select {
	case err := <-done:
		if !errors.Is(err, boom) {
			t.Fatalf("err = %v, want the worker error", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("forEachBS deadlocked with all workers failing")
	}
}

func TestForEachBSPartialFailure(t *testing.T) {
	done := make(chan error, 1)
	go func() {
		done <- forEachBS(500, 3, func(w, bs int) error {
			if bs%2 == 1 {
				return fmt.Errorf("bs %d failed", bs)
			}
			return nil
		})
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("expected an error from the failing tasks")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("forEachBS deadlocked with partially failing workers")
	}
}

func TestForEachBSCoversEveryBS(t *testing.T) {
	const numBS = 257
	seen := make([]int, numBS)
	var err error
	done := make(chan struct{})
	go func() {
		defer close(done)
		err = forEachBS(numBS, 5, func(w, bs int) error {
			seen[bs]++ // each bs is dispatched exactly once, so no race
			return nil
		})
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("forEachBS did not finish")
	}
	if err != nil {
		t.Fatal(err)
	}
	for bs, n := range seen {
		if n != 1 {
			t.Fatalf("bs %d dispatched %d times", bs, n)
		}
	}
}

// TestForEachBSFailureStillMergesPartials is the drain regression test
// for the parallel-merge collection path: a worker that fails
// mid-campaign keeps draining the feeder channel (no deadlock), the
// error comes back, and the partial collectors the surviving workers
// left behind still fold through the parallel MergeAll — the merge must
// not assume every partial saw every cell.
func TestForEachBSFailureStillMergesPartials(t *testing.T) {
	const numBS, days, workers, numSvc = 64, 2, 4, 3
	partials := make([]*probe.Collector, workers)
	for w := range partials {
		coll, err := probe.NewCollectorSized(numSvc, numBS, days)
		if err != nil {
			t.Fatal(err)
		}
		partials[w] = coll
	}
	boom := errors.New("probe crashed")
	done := make(chan error, 1)
	go func() {
		done <- forEachBS(numBS, workers, func(w, bs int) error {
			if bs == 17 {
				return boom
			}
			for day := 0; day < days; day++ {
				s := netsim.Session{BS: bs, Day: day, Service: bs % numSvc, Minute: 0, Duration: 10, Volume: 1e6}
				if err := partials[w].Observe(s); err != nil {
					return err
				}
			}
			return nil
		})
	}()
	select {
	case err := <-done:
		if !errors.Is(err, boom) {
			t.Fatalf("err = %v, want the worker error", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("forEachBS deadlocked after a worker failure")
	}
	if err := partials[0].MergeAll(partials[1:], workers); err != nil {
		t.Fatalf("parallel merge of partials after failure: %v", err)
	}
	// Each completed BS contributed exactly `days` sessions. The failed
	// worker drains (but does not process) the tasks it receives after
	// the error, so the total is schedule-dependent — but it is always a
	// whole number of completed BSs, nonzero, and short of a full run.
	got := partials[0].TotalSessions()
	if got <= 0 || got > float64((numBS-1)*days) || int(got)%days != 0 {
		t.Fatalf("merged sessions = %v, want a positive multiple of %d at most %d", got, days, (numBS-1)*days)
	}
}

// TestCollectFaultyMatchesSerialInjection verifies that the parallel
// fault-injected collection is bit-identical to a serial run of the
// same injector seed — the determinism contract of faults.Injector.
func TestCollectFaultyMatchesSerialInjection(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	topo, err := netsim.NewTopology(netsim.TopologyConfig{NumBS: 12, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	const days = 2
	sim, err := netsim.NewSimulator(topo, netsim.SimConfig{Days: days, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	cfg := faults.Config{
		OutageProb: 0.2, TruncatedDayProb: 0.2, FlowLossProb: 0.05,
		FlowDupProb: 0.02, SignalGapProb: 0.03, MisclassProb: 0.02, Seed: 77,
	}
	injPar, err := faults.New(cfg, len(sim.Services))
	if err != nil {
		t.Fatal(err)
	}
	par, err := Collect(sim, days, injPar)
	if err != nil {
		t.Fatal(err)
	}

	injSer, err := faults.New(cfg, len(sim.Services))
	if err != nil {
		t.Fatal(err)
	}
	ser, err := probe.NewCollector(len(sim.Services))
	if err != nil {
		t.Fatal(err)
	}
	// The serial oracle: days outermost, every session of a cell routed
	// one by one through that cell's fault stream into scalar Observe.
	var obsErr error
	observe := func(s netsim.Session) {
		if obsErr == nil {
			obsErr = ser.Observe(s)
		}
	}
	for day := 0; day < days; day++ {
		for bs := range topo.BSs {
			stream := injSer.Day(bs, day)
			if err := sim.GenerateDay(bs, day, func(s netsim.Session) { stream.Apply(s, observe) }); err != nil {
				t.Fatal(err)
			}
		}
	}
	if obsErr != nil {
		t.Fatal(obsErr)
	}

	parKeys, serKeys := par.Keys(), ser.Keys()
	if len(parKeys) != len(serKeys) {
		t.Fatalf("parallel has %d cells, serial %d", len(parKeys), len(serKeys))
	}
	for _, k := range parKeys {
		a, _ := par.Get(k)
		b, ok := ser.Get(k)
		if !ok {
			t.Fatalf("cell %+v missing from serial run", k)
		}
		if a.Sessions != b.Sessions {
			t.Fatalf("cell %+v: %v vs %v sessions", k, a.Sessions, b.Sessions)
		}
		for m := range a.MinuteCounts {
			if a.MinuteCounts[m] != b.MinuteCounts[m] {
				t.Fatalf("cell %+v minute %d differs", k, m)
			}
		}
		for i := range a.DurVolSum {
			if a.DurVolSum[i] != b.DurVolSum[i] || a.DurCount[i] != b.DurCount[i] {
				t.Fatalf("cell %+v duration bin %d differs", k, i)
			}
		}
	}
}
