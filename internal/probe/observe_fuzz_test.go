package probe

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"mobiletraffic/internal/netsim"
)

// Column layouts the ObserveColumns tests fold.
const (
	layoutSessionOrder  = iota // no grouping: the ungrouped fold
	layoutGrouped              // grouping and MinuteG: foldCellSeq
	layoutGroupedGather        // grouping without MinuteG: foldCell
	numLayouts
)

// columnsOf lays sessions (all at one BS-day) out as DayColumns. The
// grouped layouts stably group them by service as netsim does, and
// store the value columns in grouped order; they need every service
// in [0, numSvc), and fall back to session order otherwise.
func columnsOf(sessions []netsim.Session, numSvc, layout int) *netsim.DayColumns {
	cols := &netsim.DayColumns{}
	for _, s := range sessions {
		cols.Minute = append(cols.Minute, int32(s.Minute))
		cols.Svc = append(cols.Svc, int32(s.Service))
		cols.Volume = append(cols.Volume, s.Volume)
		cols.Duration = append(cols.Duration, s.Duration)
	}
	for _, s := range sessions {
		if s.Service < 0 || s.Service >= numSvc {
			layout = layoutSessionOrder
		}
	}
	if layout == layoutSessionOrder {
		return cols
	}
	n := len(sessions)
	cols.SvcSeg = make([]int32, numSvc+1)
	for _, sv := range cols.Svc {
		cols.SvcSeg[sv+1]++
	}
	for s := range numSvc {
		cols.SvcSeg[s+1] += cols.SvcSeg[s]
	}
	cur := append([]int32(nil), cols.SvcSeg[:numSvc]...)
	cols.Slot = make([]int32, n)
	cols.ByService = make([]int32, n)
	minuteG := make([]int32, n)
	volume, duration := make([]float64, n), make([]float64, n)
	for i, sv := range cols.Svc {
		g := cur[sv]
		cur[sv]++
		cols.Slot[i], cols.ByService[g] = g, int32(i)
		minuteG[g], volume[g], duration[g] = cols.Minute[i], cols.Volume[i], cols.Duration[i]
	}
	cols.Volume, cols.Duration = volume, duration
	if layout == layoutGrouped {
		cols.MinuteG = minuteG
	}
	return cols
}

// validSession restates the per-session contract of ObserveColumns.
func validSession(s netsim.Session, numSvc int) bool {
	return s.Service >= 0 && s.Service < numSvc &&
		s.Minute >= 0 && s.Minute < netsim.MinutesPerDay &&
		s.Volume >= 0 && s.Volume < maxVolume &&
		!math.IsNaN(s.Duration) && !math.IsInf(s.Duration, 0)
}

// checkpointBytes encodes c.
func checkpointBytes(t *testing.T, c *Collector) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := c.WriteCheckpoint(&buf); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
	return buf.Bytes()
}

// priorSessions are folded into every collector under test first, so
// that a rejected call has state to leave unchanged.
var priorSessions = []netsim.Session{
	{Service: 0, Minute: 3, Volume: 1e4, Duration: 12},
	{Service: 2, Minute: 700, Volume: 3e7, Duration: 400},
	{Service: 0, Minute: 3, Volume: 250, Duration: 0.5},
}

// observeAgainstOracle folds priorSessions at BS 0 and then sessions at
// BS 1, both through ObserveColumns in the given layout, and checks the
// ingest contract: the call rejects exactly the columns holding an
// invalid session and then leaves the collector unchanged; otherwise
// every cell equals the log-domain oracle's fold of the same sessions,
// and the collector's checkpoint decodes and re-encodes byte for byte.
func observeAgainstOracle(t *testing.T, sessions []netsim.Session, layout int) {
	const numSvc = 3
	c, err := NewCollectorSized(numSvc, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	o := newMapOracle(numSvc, c.VolumeEdges, c.DurationEdges)
	if err := c.ObserveColumns(0, 0, columnsOf(priorSessions, numSvc, layout)); err != nil {
		t.Fatal(err)
	}
	for _, s := range priorSessions {
		o.observe(s)
	}
	before := checkpointBytes(t, c)

	valid := true
	for _, s := range sessions {
		valid = valid && validSession(s, numSvc)
	}
	err = c.ObserveColumns(1, 0, columnsOf(sessions, numSvc, layout))
	if (err == nil) != valid {
		t.Fatalf("ObserveColumns error %v, sessions valid %v: %+v", err, valid, sessions)
	}
	if err != nil {
		if !bytes.Equal(checkpointBytes(t, c), before) {
			t.Fatalf("rejected columns (%v) changed the collector", err)
		}
		return
	}
	for _, s := range sessions {
		s.BS = 1
		o.observe(s)
	}
	requireOracleCells(t, "fuzzed fold", c, o)
	data := checkpointBytes(t, c)
	back, err := ReadCheckpoint(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("checkpoint of an accepted fold refused: %v", err)
	}
	if !bytes.Equal(checkpointBytes(t, back), data) {
		t.Fatal("checkpoint of an accepted fold did not re-encode to the same bytes")
	}
}

// TestObserveColumnsRejectsInvalidValues: columns holding a session
// Observe would refuse — a NaN or negative volume, a volume too large
// for a checkpoint's sums, a non-finite duration — fail in every
// layout and fold nothing, while a negative finite duration folds into
// the shortest bin.
func TestObserveColumnsRejectsInvalidValues(t *testing.T) {
	ok := netsim.Session{Service: 1, Minute: 9, Volume: 5e5, Duration: 30}
	with := func(volume, duration float64) []netsim.Session {
		bad := ok
		bad.Volume, bad.Duration = volume, duration
		return []netsim.Session{ok, bad, ok}
	}
	for layout := range numLayouts {
		for _, sessions := range [][]netsim.Session{
			{{Service: 0, Volume: math.NaN(), Duration: 3}, {Service: 1, Volume: -5, Duration: 3}},
			with(-5, 30),
			with(math.Inf(1), 30),
			with(maxVolume, 30),
			with(5e5, math.NaN()),
			with(5e5, math.Inf(-1)),
			with(5e5, -7),
			with(math.Nextafter(maxVolume, 0), math.MaxFloat64),
		} {
			observeAgainstOracle(t, sessions, layout)
		}
	}
	c, err := NewCollectorSized(3, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.ObserveColumns(0, 0, columnsOf(with(5e5, -7), 3, layoutGrouped)); err != nil {
		t.Fatal(err)
	}
	if st, _ := c.Get(StatKey{Service: 1}); st.DurCount[0] != 1 {
		t.Fatalf("a -7 s session did not bin with the shortest: DurCount = %v", st.DurCount)
	}
}

// sessionRecord is the fuzz encoding of one session: a signed service
// byte, a signed little-endian minute, and the raw bits of the volume
// and the duration.
const sessionRecord = 1 + 2 + 8 + 8

func encodeSessions(sessions []netsim.Session) []byte {
	var out []byte
	for _, s := range sessions {
		out = append(out, byte(int8(s.Service)))
		out = binary.LittleEndian.AppendUint16(out, uint16(int16(s.Minute)))
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(s.Volume))
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(s.Duration))
	}
	return out
}

func decodeSessions(raw []byte) []netsim.Session {
	var out []netsim.Session
	for ; len(raw) >= sessionRecord; raw = raw[sessionRecord:] {
		out = append(out, netsim.Session{
			BS:       1,
			Service:  int(int8(raw[0])),
			Minute:   int(int16(binary.LittleEndian.Uint16(raw[1:]))),
			Volume:   math.Float64frombits(binary.LittleEndian.Uint64(raw[3:])),
			Duration: math.Float64frombits(binary.LittleEndian.Uint64(raw[11:])),
		})
	}
	return out
}

// FuzzObserveColumns folds arbitrary service, minute, volume and
// duration columns in every layout and holds ObserveColumns to its
// contract (see observeAgainstOracle).
func FuzzObserveColumns(f *testing.F) {
	var edgy []netsim.Session
	for j, e := range DefaultVolumeEdges {
		d := linThr(DefaultDurationEdges[j%len(DefaultDurationEdges)])
		edgy = append(edgy,
			netsim.Session{Service: j % 3, Minute: j, Volume: linThr(e), Duration: d},
			netsim.Session{Service: (j + 1) % 3, Minute: 1439 - j, Volume: math.Nextafter(linThr(e), 0), Duration: math.Nextafter(d, 0)})
	}
	for _, seed := range [][]netsim.Session{
		priorSessions,
		edgy,
		{{Service: 0, Volume: math.NaN(), Duration: 3}, {Service: 1, Volume: -5, Duration: 3}},
		{{Service: 2, Minute: 1439, Volume: 0, Duration: -1}, {Service: 1, Volume: math.Copysign(0, -1), Duration: math.MaxFloat64}},
		{{Service: 3, Volume: 1, Duration: 1}},
		{{Service: 1, Minute: netsim.MinutesPerDay, Volume: 1, Duration: 1}},
	} {
		for layout := range numLayouts {
			f.Add(encodeSessions(seed), uint8(layout))
		}
	}
	f.Fuzz(func(t *testing.T, raw []byte, layout uint8) {
		observeAgainstOracle(t, decodeSessions(raw), int(layout%numLayouts))
	})
}
