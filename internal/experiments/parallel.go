package experiments

import (
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"time"

	"mobiletraffic/internal/faults"
	"mobiletraffic/internal/netsim"
	"mobiletraffic/internal/obs"
	"mobiletraffic/internal/probe"
)

// bsTask is one unit of campaign work: a base-station index, stamped
// at enqueue time when instrumentation is on so workers can report
// how long tasks sat in the queue.
type bsTask struct {
	bs       int
	enqueued time.Time
}

// forEachBS fans the base-station indices [0, numBS) out to workers
// and runs work(worker, bs) for each. A worker that hits an error
// stops doing work but keeps draining the task channel: if it returned
// instead, a campaign where every worker fails early would leave the
// feeder blocked on `tasks <- bs` forever. The first error of the
// lowest-numbered failing worker is returned.
//
// When instrumentation is enabled, each dequeue reports its queue
// wait to collect_queue_wait_seconds and each completed BS bumps the
// worker's collect_bs_total{worker=...} counter.
func forEachBS(numBS, workers int, work func(worker, bs int) error) error {
	instrumented := obs.Enabled()
	var queueWait *obs.Histogram
	if instrumented {
		queueWait = obs.HistogramOf("collect_queue_wait_seconds", obs.DefBucketsSeconds)
	}
	tasks := make(chan bsTask)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var done *obs.Counter
			if instrumented {
				done = obs.CounterOf("collect_bs_total", "worker", strconv.Itoa(w))
			}
			for task := range tasks {
				if !task.enqueued.IsZero() {
					queueWait.Observe(time.Since(task.enqueued).Seconds())
				}
				if errs[w] != nil {
					continue // drain so the feeder never blocks
				}
				errs[w] = work(w, task.bs)
				if errs[w] == nil {
					done.Inc()
				}
			}
		}(w)
	}
	// The instrumentation check is hoisted out of the feeder loop: the
	// uninstrumented path never touches the clock.
	if instrumented {
		for bs := 0; bs < numBS; bs++ {
			tasks <- bsTask{bs: bs, enqueued: time.Now()}
		}
	} else {
		for bs := 0; bs < numBS; bs++ {
			tasks <- bsTask{bs: bs}
		}
	}
	close(tasks)
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			return fmt.Errorf("worker %d: %w", w, err)
		}
	}
	return nil
}

// Collect runs the measurement campaign with one worker per CPU: the
// workers simulate whole base stations and fold them into one shared
// collector. It is the one simulated path into the collector —
// SampleDayColumns → DayStream.ApplyColumns → ObserveColumns per
// (BS, day). Each BS is folded by exactly one worker and every cell
// belongs to one BS, so the workers write disjoint cells of a
// collector pre-sized to the campaign extent (ObserveColumns documents
// the concurrency contract). The per-(BS, day) random streams of the
// simulator are independent, so the result is bit-identical to a
// serial run.
//
// An optional fault injector is composed over the measurement plane:
// every session of a (BS, day) cell is routed through that cell's
// deterministic fault stream before reaching the collector, and cells
// hit by a whole-day probe outage skip session generation entirely. A
// nil injector collects a pristine campaign. Fault streams are derived
// per cell from the injector's own seed, so realizations are
// identical regardless of worker count — and of whether
// instrumentation is enabled.
func Collect(sim *netsim.Simulator, days int, inj *faults.Injector) (*probe.Collector, error) {
	span := obs.StartSpan("collect")
	defer span.End()
	numBS := len(sim.Topo.BSs)
	workers := runtime.NumCPU()
	if workers > numBS {
		workers = numBS
	}
	if workers < 1 {
		workers = 1
	}

	// The collector is pre-sized to the campaign extent, so its dense
	// cell slab never re-layouts mid-collection and concurrent folds of
	// distinct base stations are safe. Each worker reuses one
	// collection scratch (columnar sampler and fault buffers) across its
	// whole share of the campaign.
	coll, err := probe.NewCollectorSized(len(sim.Services), numBS, days)
	if err != nil {
		return nil, err
	}
	scratches := make([]*collectScratch, workers)
	for w := range scratches {
		scratches[w] = newCollectScratch(sim, inj != nil)
	}
	workerSpans := make([]*obs.Span, workers)
	err = forEachBS(numBS, workers, func(w, bs int) error {
		if workerSpans[w] == nil {
			// One span per worker covering its whole share of the
			// campaign, on its own trace track (tid 1+w).
			s := span.Child("collect/worker", "worker", strconv.Itoa(w))
			s.SetTID(1 + w)
			workerSpans[w] = s
		}
		return collectBS(sim, coll, scratches[w], inj, bs, days)
	})
	for _, s := range workerSpans {
		s.End()
	}
	if err != nil {
		return nil, err
	}
	return coll, nil
}

// collectScratch bundles the reusable per-worker buffers of the
// collection path: the columnar sampler output and the fault-filtered
// columns. One scratch is owned by exactly one worker (or shard
// attempt) and reused across its whole campaign share.
type collectScratch struct {
	cols    netsim.DayColumns // SampleDayColumns output
	faulted netsim.DayColumns // ApplyColumns output when faults are injected
}

// newCollectScratch builds one worker's scratch for a campaign over
// sim. The columnar buffers skip the Start column (the probe ingest
// bins by minute and never reads establishment seconds) and are
// pre-sized to the simulator's analytic day-size bound, so the whole
// campaign share runs without a single column re-allocation.
func newCollectScratch(sim *netsim.Simulator, faulted bool) *collectScratch {
	sc := &collectScratch{}
	bound := sim.MaxDaySessions()
	sc.cols.SkipStart = true
	sc.cols.Resize(bound)
	sc.cols.Resize(0)
	if faulted {
		sc.faulted.SkipStart = true
		sc.faulted.Resize(bound)
		sc.faulted.Resize(0)
	}
	return sc
}

// collectBS simulates every day of one base station into coll, routing
// each cell through the optional fault injector's per-(BS, day)
// stream. The whole (BS, day) flows as columns — SampleDayColumns →
// DayStream.ApplyColumns → ObserveColumns — with no per-session
// Session materialization. It is the shared per-BS body of the
// in-process parallel collector (Collect) and the sharded campaign
// workers (CollectSharded) — both therefore observe bit-identical cell
// statistics for a given (BS, day).
func collectBS(sim *netsim.Simulator, coll *probe.Collector, sc *collectScratch, inj *faults.Injector, bs, days int) error {
	for day := 0; day < days; day++ {
		var stream *faults.DayStream
		if inj != nil {
			stream = inj.Day(bs, day)
			if stream.Down() {
				continue // whole-day probe outage: nothing is exported
			}
		}
		cols := &sc.cols
		if err := sim.SampleDayColumns(bs, day, cols); err != nil {
			return err
		}
		if stream != nil {
			stream.ApplyColumns(cols, &sc.faulted)
			cols = &sc.faulted
		}
		if err := coll.ObserveColumns(bs, day, cols); err != nil {
			return err
		}
	}
	return nil
}
