package core

import (
	"errors"
	"runtime"
	"strings"
	"testing"
)

// TestFoldTasksOrderAndReuse pins the ordered-fold contract: visit runs
// exactly once per task in increasing index order at every worker
// count, sees the slot its producer filled, and the freelist bounds the
// number of distinct slots to O(workers) regardless of n.
func TestFoldTasksOrderAndReuse(t *testing.T) {
	const n = 200
	for _, workers := range []int{1, 4, 7} {
		var visited []int
		slots := map[*int]bool{}
		err := FoldTasks(n, workers, func(_, i int, slot *int) {
			*slot = i * i
		}, func(i int, slot *int) error {
			if *slot != i*i {
				t.Errorf("workers=%d: visit(%d) got slot value %d, want %d", workers, i, *slot, i*i)
			}
			visited = append(visited, i)
			slots[slot] = true
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(visited) != n {
			t.Fatalf("workers=%d: visited %d tasks, want %d", workers, len(visited), n)
		}
		for i, v := range visited {
			if v != i {
				t.Fatalf("workers=%d: visit order broken at position %d: got task %d", workers, i, v)
			}
		}
		// Live slots are bounded by the producer window plus the workers
		// themselves, never by n.
		if max := (foldWindow+1)*workers + workers; len(slots) > max {
			t.Errorf("workers=%d: %d distinct slots allocated, want <= %d", workers, len(slots), max)
		}
	}
}

// TestFoldTasksError checks a visit error stops the fold early: the
// error is returned and no later task is visited.
func TestFoldTasksError(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		var visited []int
		err := FoldTasks(100, workers, func(_, i int, slot *int) {
			*slot = i
		}, func(i int, _ *int) error {
			visited = append(visited, i)
			if i == 5 {
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want boom", workers, err)
		}
		if len(visited) != 6 {
			t.Fatalf("workers=%d: visited %v, want exactly tasks 0..5", workers, visited)
		}
		for i, v := range visited {
			if v != i {
				t.Fatalf("workers=%d: out-of-order visit %v", workers, visited)
			}
		}
	}
}

// TestFoldTasksEmpty covers the degenerate sizes.
func TestFoldTasksEmpty(t *testing.T) {
	for _, n := range []int{0, -3} {
		called := false
		err := FoldTasks(n, 4, func(_, _ int, _ *int) { called = true },
			func(_ int, _ *int) error { called = true; return nil })
		if err != nil || called {
			t.Fatalf("FoldTasks(%d) ran work: err=%v called=%v", n, err, called)
		}
	}
}

func cloneBlock(b *DayBlock) DayBlock {
	return DayBlock{
		BS: b.BS, Day: b.Day,
		Offsets:  append([]int32(nil), b.Offsets...),
		Svc:      append([]int32(nil), b.Svc...),
		Volume:   append([]float64(nil), b.Volume...),
		Duration: append([]float64(nil), b.Duration...),
		Start:    append([]float64(nil), b.Start...),
	}
}

// TestGenerateCampaignFoldMatchesMaterialized is the fold plane's
// bit-identity contract: the cells handed to visit — in cell order, at
// every worker count — are exactly the blocks GenerateCampaign
// materializes, even though their storage is recycled between visits.
func TestGenerateCampaignFoldMatchesMaterialized(t *testing.T) {
	set := goldenModelSet()
	g, err := NewGenerator(set, 4242)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := g.GenerateCampaign(campaignSpecForTest(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4, 7} {
		spec := campaignSpecForTest(workers)
		var got []DayBlock
		err := g.GenerateCampaignFold(spec, func(blk *DayBlock) error {
			got = append(got, cloneBlock(blk))
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if err := blocksEqual(ref, got); err != nil {
			t.Errorf("workers=%d: fold output differs from GenerateCampaign: %v", workers, err)
		}
	}
}

// TestGenerateCampaignFoldEarlyStop checks visit errors abort the
// campaign and surface to the caller.
func TestGenerateCampaignFoldEarlyStop(t *testing.T) {
	set := goldenModelSet()
	g, err := NewGenerator(set, 7)
	if err != nil {
		t.Fatal(err)
	}
	stop := errors.New("stop")
	seen := 0
	err = g.GenerateCampaignFold(campaignSpecForTest(2), func(blk *DayBlock) error {
		seen++
		if seen == 2 {
			return stop
		}
		return nil
	})
	if !errors.Is(err, stop) {
		t.Fatalf("err = %v, want stop", err)
	}
	if seen != 2 {
		t.Fatalf("visited %d cells after stop, want 2", seen)
	}
}

// TestGenerateCampaignFoldValidation pins that the fold surface shares
// the materializing surface's spec gates.
func TestGenerateCampaignFoldValidation(t *testing.T) {
	set := goldenModelSet()
	g, err := NewGenerator(set, 1)
	if err != nil {
		t.Fatal(err)
	}
	noop := func(*DayBlock) error { return nil }
	if err := g.GenerateCampaignFold(CampaignSpec{}, noop); err == nil {
		t.Error("empty spec accepted")
	}
}

// TestGenerateCampaignFoldSteadyStateAllocs pins the freelist contract
// the -workers sessiongen path and the demand builders rely on: once
// the reused block and scratch buffers have grown to the campaign's
// working set, later days allocate nothing — day cells are generated
// into recycled storage.
//
// The count covers only the fold's own work: allocations whose call
// stack passes through GenerateCampaignFold, read from the memory
// profile at rate 1. A process-wide MemStats.Mallocs count also sees
// other goroutines — every GC cycle wakes the unique package's map
// cleanup (linked in through net/http), which allocates — and read 1
// or 6 stray objects in about one full-package run in 40 under load.
func TestGenerateCampaignFoldSteadyStateAllocs(t *testing.T) {
	set := goldenModelSet()
	g, err := NewGenerator(set, 99)
	if err != nil {
		t.Fatal(err)
	}
	const days, warm = 30, 12
	spec := CampaignSpec{
		Arrivals: set.Arrivals[:1],
		Days:     days,
		Workers:  1, // serial fold: one recycled slot, deterministic reuse
	}
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	// Snapshot buffers are sized up front: an allocation inside the
	// fold's visit would count as the fold's own.
	n, _ := runtime.MemProfile(nil, true)
	before := make([]runtime.MemProfileRecord, 2*n+4096)
	after := make([]runtime.MemProfileRecord, len(before))
	var nb, na int
	var okb, oka bool
	// The profile publishes allocations a GC cycle late; two cycles
	// flush everything up to the snapshot.
	snapshot := func(recs []runtime.MemProfileRecord) (int, bool) {
		runtime.GC()
		runtime.GC()
		return runtime.MemProfile(recs, true)
	}
	err = g.GenerateCampaignFold(spec, func(blk *DayBlock) error {
		switch blk.Day {
		case warm:
			nb, okb = snapshot(before)
		case days - 1:
			na, oka = snapshot(after)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !okb || !oka {
		t.Fatal("memory profile outgrew its snapshot buffer")
	}
	if got := foldObjects(after[:na]) - foldObjects(before[:nb]); got != 0 {
		t.Errorf("steady-state fold allocated %d objects over %d days, want 0", got, days-1-warm)
	}
}

// foldObjects sums the allocated objects of the profile records whose
// stack passes through GenerateCampaignFold.
func foldObjects(recs []runtime.MemProfileRecord) int64 {
	var total int64
	for i := range recs {
		frames := runtime.CallersFrames(recs[i].Stack())
		for {
			f, more := frames.Next()
			if strings.HasSuffix(f.Function, ".(*Generator).GenerateCampaignFold") {
				total += recs[i].AllocObjects
				break
			}
			if !more {
				break
			}
		}
	}
	return total
}

// TestGenerateCampaignFoldSlotBudget pins the fold's block storage on a
// campaign of ascending arrival rates, the shape of the ten load
// deciles. Cells arrive lightest first, so a slot recycled from a light
// cell must not regrow toward each heavier one: a slot is allocated
// once, at the campaign's largest cell estimate, and every block
// allocation of a 2-worker fold fits in (window + workers) such slots.
func TestGenerateCampaignFoldSlotBudget(t *testing.T) {
	arrivals := make([]*ArrivalModel, 10)
	for i := range arrivals {
		mu := 3 * float64(i+1)
		arrivals[i] = &ArrivalModel{PeakMu: mu, PeakSigma: mu / 10, OffShape: ParetoShape, OffScale: mu / 20}
	}
	g, err := NewGenerator(goldenModelSet(), 21)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 2
	spec := CampaignSpec{Arrivals: arrivals, Days: 2, Workers: workers}
	p, err := validateCampaign(spec)
	if err != nil {
		t.Fatal(err)
	}
	slotBytes := int64(p.slotCap)*(4+8+8+8) + int64(p.minutes+1)*4
	budget := int64(foldWindow*workers+workers) * slotBytes

	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	before := cellAllocBytes(t)
	var sessions int
	err = g.GenerateCampaignFold(spec, func(blk *DayBlock) error {
		sessions += blk.Sessions()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	got := cellAllocBytes(t) - before
	if got > budget {
		t.Errorf("fold allocated %d B of block storage, budget %d B (%d slots of %d B)",
			got, budget, foldWindow*workers+workers, slotBytes)
	}
	t.Logf("fold allocated %d B of block storage (%.1f slots of %d B) for %d sessions",
		got, float64(got)/float64(slotBytes), slotBytes, sessions)
}

// cellAllocBytes returns the bytes allocated so far, per the memory
// profile, directly by generateCell: the block columns and offsets,
// not the draw scratch it grows through genScratch.grow.
func cellAllocBytes(t *testing.T) int64 {
	t.Helper()
	// The profile publishes allocations a GC cycle late; two cycles
	// flush everything up to the snapshot.
	runtime.GC()
	runtime.GC()
	n, _ := runtime.MemProfile(nil, true)
	recs := make([]runtime.MemProfileRecord, n+4096)
	n, ok := runtime.MemProfile(recs, true)
	if !ok {
		t.Fatal("memory profile outgrew its snapshot buffer")
	}
	var total int64
	for i := range recs[:n] {
		f, _ := runtime.CallersFrames(recs[i].Stack()).Next()
		if strings.HasSuffix(f.Function, ".(*Generator).generateCell") {
			total += recs[i].AllocBytes
		}
	}
	return total
}
