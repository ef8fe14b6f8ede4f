package main

import (
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer during a traced operation. Start
// and End are seconds from the start of the operation; Parent indexes
// the operation's span list (-1 for a top-level call); Worker is the
// concurrency lane the call ran on.
type Span struct {
	Name   string  `json:"name"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
	Parent int     `json:"parent"`
	Op     int     `json:"op"`
	Worker int     `json:"worker"`
}

// tracer records the spans and counters of one traced operation. The
// harness times calls into the layers' public functions from outside
// the program; a nil *tracer records nothing, so the same replay code
// runs untraced.
type tracer struct {
	op int
	t0 time.Time

	mu     sync.Mutex
	spans  []Span
	counts map[string]float64
	lanes  []bool
}

func newTracer(op int) *tracer {
	return &tracer{op: op, t0: time.Now(), counts: map[string]float64{}}
}

// begin opens a span and returns its handle for end.
func (t *tracer) begin(name string, parent, worker int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{Name: name, Start: now, End: -1, Parent: parent, Op: t.op, Worker: worker})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(h int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	t.spans[h].End = now
	t.mu.Unlock()
}

// add accumulates a counter of the operation.
func (t *tracer) add(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// acquireLane hands out the lowest free worker lane, for calls that run
// on goroutines the program starts itself (campaign shard attempts).
func (t *tracer) acquireLane() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, busy := range t.lanes {
		if !busy {
			t.lanes[i] = true
			return i
		}
	}
	t.lanes = append(t.lanes, true)
	return len(t.lanes) - 1
}

func (t *tracer) releaseLane(lane int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.lanes[lane] = false
	t.mu.Unlock()
}

// interval is a half-open time range in seconds.
type interval struct{ lo, hi float64 }

// coverage returns the length of the union of the intervals.
func coverage(iv []interval) float64 {
	if len(iv) == 0 {
		return 0
	}
	sorted := append([]interval(nil), iv...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].lo < sorted[b].lo })
	total := 0.0
	cur := sorted[0]
	for _, x := range sorted[1:] {
		if x.lo > cur.hi {
			total += cur.hi - cur.lo
			cur = x
			continue
		}
		if x.hi > cur.hi {
			cur.hi = x.hi
		}
	}
	return total + cur.hi - cur.lo
}

// spanTimes sums, per span name, the total duration and the self time:
// a span's duration minus the part of it its child spans cover.
func spanTimes(spans []Span) (total, self map[string]float64) {
	children := make([][]interval, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	total = map[string]float64{}
	self = map[string]float64{}
	for i, s := range spans {
		d := s.End - s.Start
		total[s.Name] += d
		self[s.Name] += d - coverage(children[i])
	}
	return total, self
}

// coveredWall is the wall time during which at least one span was open.
func coveredWall(spans []Span) float64 {
	iv := make([]interval, len(spans))
	for i, s := range spans {
		iv[i] = interval{s.Start, s.End}
	}
	return coverage(iv)
}
