package probe

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"mobiletraffic/internal/mathx"
	"mobiletraffic/internal/netsim"
)

// checkpointCollector builds a small collector with a mix of populated
// and empty cells, including awkward float values, so the round-trip
// tests exercise sparse encoding and bit-exactness together.
func checkpointCollector(t *testing.T) *Collector {
	t.Helper()
	c, err := NewCollectorSized(3, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	sessions := []netsim.Session{
		{Service: 0, BS: 0, Day: 0, Minute: 0, Volume: 1, Duration: 0.5},
		{Service: 0, BS: 0, Day: 0, Minute: 1439, Volume: 1e9, Duration: 3600},
		{Service: 1, BS: 2, Day: 1, Minute: 720, Volume: 123456.789, Duration: 17.25},
		{Service: 2, BS: 4, Day: 0, Minute: 60, Volume: 0.1, Duration: 1e-3},
		{Service: 2, BS: 4, Day: 1, Minute: 61, Volume: 7e7, Duration: 299.999},
	}
	for _, s := range sessions {
		if err := c.Observe(s); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// sameCollector fails the test unless a and b are bit-identical:
// dimensions, grids, cell sets and every cell payload float.
func sameCollector(t *testing.T, a, b *Collector) {
	t.Helper()
	if a.NumServices != b.NumServices {
		t.Fatalf("service counts differ: %d vs %d", a.NumServices, b.NumServices)
	}
	aBS, aDays := a.Extent()
	bBS, bDays := b.Extent()
	if aBS != bBS || aDays != bDays {
		t.Fatalf("extents differ: (%d,%d) vs (%d,%d)", aBS, aDays, bBS, bDays)
	}
	if !sameEdges(a.VolumeEdges, b.VolumeEdges) || !sameEdges(a.DurationEdges, b.DurationEdges) {
		t.Fatal("grids differ")
	}
	ak, bk := a.Keys(), b.Keys()
	if len(ak) != len(bk) {
		t.Fatalf("cell counts differ: %d vs %d", len(ak), len(bk))
	}
	for _, key := range ak {
		sa, _ := a.Get(key)
		sb, ok := b.Get(key)
		if !ok {
			t.Fatalf("cell %+v missing after round trip", key)
		}
		if math.Float64bits(sa.Sessions) != math.Float64bits(sb.Sessions) {
			t.Fatalf("cell %+v sessions %v vs %v", key, sa.Sessions, sb.Sessions)
		}
		if !slices.Equal(sa.MinuteCounts, sb.MinuteCounts) {
			t.Fatalf("cell %+v minute counts differ", key)
		}
		runs := [][2][]float64{
			{sa.Volume.P, sb.Volume.P},
			{sa.DurVolSum, sb.DurVolSum},
			{sa.DurCount, sb.DurCount},
		}
		for r, pair := range runs {
			if len(pair[0]) != len(pair[1]) {
				t.Fatalf("cell %+v run %d lengths differ", key, r)
			}
			for i := range pair[0] {
				if math.Float64bits(pair[0][i]) != math.Float64bits(pair[1][i]) {
					t.Fatalf("cell %+v run %d bin %d: %v vs %v", key, r, i, pair[0][i], pair[1][i])
				}
			}
		}
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	c := checkpointCollector(t)
	var buf bytes.Buffer
	if err := c.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCheckpoint(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	sameCollector(t, c, got)
	// The encoding is deterministic: re-encoding the decoded collector
	// reproduces the byte stream exactly.
	var buf2 bytes.Buffer
	if err := got.WriteCheckpoint(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("re-encoding a decoded checkpoint changed the bytes")
	}
}

// TestCheckpointWideGridRoundTrip round-trips a collector whose grids
// make one cell's bound larger than the reader's default buffer, so
// the decoder must widen its window.
func TestCheckpointWideGridRoundTrip(t *testing.T) {
	vol := mathx.LinSpace(2, 10.5, 8001)
	if maxCellBytes(len(vol)-1, len(DefaultDurationEdges)-1) <= checkpointBufSize {
		t.Fatal("grid too narrow to need a wider window")
	}
	c, err := NewCollectorGrids(2, 2, 1, vol, DefaultDurationEdges)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []netsim.Session{
		{Service: 0, BS: 0, Minute: 9, Volume: 5e5, Duration: 40},
		{Service: 1, BS: 1, Minute: 900, Volume: 3e8, Duration: 4000},
	} {
		if err := c.Observe(s); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := c.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCheckpoint(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	sameCollector(t, c, got)
}

func TestCheckpointEmptyCollector(t *testing.T) {
	c, err := NewCollectorSized(2, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCheckpoint(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	sameCollector(t, c, got)
}

func TestCheckpointFileRoundTrip(t *testing.T) {
	c := checkpointCollector(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "shard-0000.ckpt")
	if err := c.WriteCheckpointFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sameCollector(t, c, got)
	// The atomic-rename protocol leaves no temp files behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "shard-0000.ckpt" {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("leftover files after checkpoint write: %v", names)
	}
}

// TestCheckpointCorruption feeds the decoder truncations and
// single-bit flips of a valid checkpoint: all must return an error
// (the CRC trailer catches any flip, truncation hits EOF) and none may
// panic. The whole header and trailer are swept exhaustively; the bulky
// float payload is sampled at a prime stride to keep the test fast.
func TestCheckpointCorruption(t *testing.T) {
	c := checkpointCollector(t)
	var buf bytes.Buffer
	if err := c.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	// Every offset in the header and trailer, every 131st in between.
	offsets := func() []int {
		var out []int
		for i := 0; i < len(valid); i++ {
			if i < 64 || i >= len(valid)-8 || i%131 == 0 {
				out = append(out, i)
			}
		}
		return out
	}()

	t.Run("truncated", func(t *testing.T) {
		for _, n := range offsets {
			if _, err := ReadCheckpoint(bytes.NewReader(valid[:n])); err == nil {
				t.Fatalf("truncation to %d bytes decoded successfully", n)
			}
		}
	})
	t.Run("bitflips", func(t *testing.T) {
		mut := make([]byte, len(valid))
		for _, i := range offsets {
			for bit := 0; bit < 8; bit++ {
				copy(mut, valid)
				mut[i] ^= 1 << bit
				if _, err := ReadCheckpoint(bytes.NewReader(mut)); err == nil {
					t.Fatalf("bit flip at byte %d bit %d decoded successfully", i, bit)
				}
			}
		}
	})
	t.Run("wrong-magic", func(t *testing.T) {
		mut := append([]byte("NOPE"), valid[4:]...)
		if _, err := ReadCheckpoint(bytes.NewReader(mut)); err == nil || !strings.Contains(err.Error(), "magic") {
			t.Fatalf("wrong magic: err = %v", err)
		}
	})
	t.Run("wrong-version", func(t *testing.T) {
		mut := append([]byte(nil), valid...)
		mut[4] = 0xFF // version low byte
		if _, err := ReadCheckpoint(bytes.NewReader(mut)); err == nil || !strings.Contains(err.Error(), "version") {
			t.Fatalf("wrong version: err = %v", err)
		}
	})
	t.Run("trailing-bytes", func(t *testing.T) {
		mut := append(append([]byte(nil), valid...), 0x00)
		if _, err := ReadCheckpoint(bytes.NewReader(mut)); err == nil || !strings.Contains(err.Error(), "trailing") {
			t.Fatalf("trailing byte: err = %v", err)
		}
	})
	t.Run("empty", func(t *testing.T) {
		if _, err := ReadCheckpoint(bytes.NewReader(nil)); err == nil {
			t.Fatal("empty input decoded successfully")
		}
	})
	t.Run("cell-payload", func(t *testing.T) {
		for _, tc := range cellCorruptions(t, c, valid) {
			if _, err := ReadCheckpoint(bytes.NewReader(tc.data)); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
			}
		}
	})
}

// cellCorruption is a checkpoint whose first encoded cell carries a
// value no collector can build, with the CRC trailer recomputed so only
// the payload checks can catch it.
type cellCorruption struct {
	name string
	data []byte
	want string // substring of the decoder's error
}

// cellCorruptions patches single values of the first cell of valid,
// the encoding of c: malformed varints (truncated, overlong, above
// 64 bits), counts above their bounds, non-finite or negative
// duration-volume sums, runs that no longer sum to the session total,
// and slab indices out of range or order.
func cellCorruptions(tb testing.TB, c *Collector, valid []byte) []cellCorruption {
	tb.Helper()
	keys := c.Keys()
	if len(keys) < 2 {
		tb.Fatal("corruption fixture needs two cells")
	}
	st, _ := c.Get(keys[0])
	nv, nd := len(c.VolumeEdges)-1, len(c.DurationEdges)-1
	numBS, days := c.Extent()
	slot := func(k StatKey) uint64 { return uint64((k.Service*numBS+k.BS)*days + k.Day) }
	// The first two slab indices and the first cell's session total fit
	// one varint byte, and so does every count of that cell (none
	// exceeds the total), so each value sits at a fixed offset past the
	// header (magic, version, six dims, cell count and both edge grids).
	if slot(keys[0]) >= 0x80 || slot(keys[1]) >= 0x80 || st.Sessions >= 0x80 {
		tb.Fatal("corruption fixture's first cells need one-byte indices and counts")
	}
	indexOff := 4 + 2 + 6*4 + 8 + 8*(nv+1+nd+1)
	sessionsOff := indexOff + 1
	minutesOff := sessionsOff + 1
	volOff := minutesOff + netsim.MinutesPerDay
	durCountOff := volOff + nv
	durSumOff := durCountOff + nd
	zeroMinute := slices.Index(st.MinuteCounts, 0)
	zeroVol := slices.Index(st.Volume.P, 0)
	zeroDur := slices.Index(st.DurCount, 0)
	if zeroMinute < 0 || zeroVol < 0 || zeroDur < 0 {
		tb.Fatal("corruption fixture's first cell has no empty bins")
	}
	// splice replaces the n bytes at off and re-seals the CRC.
	splice := func(off, n int, repl []byte) []byte {
		out := append(append(append([]byte(nil), valid[:off]...), repl...), valid[off+n:]...)
		binary.LittleEndian.PutUint32(out[len(out)-4:], crc32.Checksum(out[:len(out)-4], crcTable))
		return out
	}
	uv := func(v uint64) []byte { return binary.AppendUvarint(nil, v) }
	f64 := func(v float64) []byte { return binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)) }
	overlong := []byte{0x80, 0x00}
	tooWide := bytes.Repeat([]byte{0xff}, 11)
	minute := minutesOff + zeroMinute
	out := []cellCorruption{
		{"index-overlong", splice(indexOff, 1, overlong), "overlong"},
		{"index-64-bit-overflow", splice(indexOff, 1, tooWide), "overflows"},
		{"index-range", splice(indexOff, 1, uv(uint64(len(c.cells)))), "out of order or range"},
		{"index-order", splice(indexOff, 1, uv(slot(keys[1]))), "out of order or range"},
		{"sessions-overlong", splice(sessionsOff, 1, append([]byte{0x80 | byte(st.Sessions)}, 0x00)), "overlong"},
		{"sessions-too-large", splice(sessionsOff, 1, uv(1<<53)), "session total"},
		{"minute-count-overlong", splice(minute, 1, overlong), "overlong"},
		{"minute-count-above-int32", splice(minute, 1, uv(math.MaxInt32+1)), "exceeds"},
		{"minute-count-64-bit-overflow", splice(minute, 1, tooWide), "overflows"},
		{"minute-count-truncated", append(valid[:minute:minute], 0x80), "truncated"},
		{"volume-bin-overlong", splice(volOff+zeroVol, 1, overlong), "overlong"},
		{"volume-bin-too-large", splice(volOff+zeroVol, 1, uv(1<<53)), "volume bin"},
		{"dur-count-overlong", splice(durCountOff+zeroDur, 1, overlong), "overlong"},
		{"dur-count-too-large", splice(durCountOff+zeroDur, 1, uv(1<<53)), "duration count"},
		{"dur-vol-sum-truncated", valid[: durSumOff+4 : durSumOff+4], "duration-volume sums"},
		{"minute-sum", splice(minute, 1, uv(1)), "minute counts sum"},
		{"volume-sum", splice(volOff+zeroVol, 1, uv(1)), "volume bins sum"},
		{"dur-count-sum", splice(durCountOff+zeroDur, 1, uv(1)), "duration counts sum"},
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), -1, math.Copysign(0, -1)} {
		out = append(out, cellCorruption{fmt.Sprintf("dur-vol-sum-%v", v),
			splice(durSumOff, 8, f64(v)), "duration-volume sum"})
	}
	return out
}

// TestCheckpointEncoderRejectsInexactCounts: a count the varint form
// cannot carry bit for bit — a fraction, -0, a negative value, NaN, a
// value of 2^53 or more, or a negative minute count — fails the
// encode instead of decoding to a different collector.
func TestCheckpointEncoderRejectsInexactCounts(t *testing.T) {
	for _, tc := range []struct {
		name string
		set  func(st *DayStats)
	}{
		{"sessions-fraction", func(st *DayStats) { st.Sessions += 0.5 }},
		{"volume-bin-negative-zero", func(st *DayStats) { st.Volume.P[0] = math.Copysign(0, -1) }},
		{"volume-bin-negative", func(st *DayStats) { st.Volume.P[0] = -1 }},
		{"dur-count-nan", func(st *DayStats) { st.DurCount[0] = math.NaN() }},
		{"dur-count-2^53", func(st *DayStats) { st.DurCount[0] = 1 << 53 }},
		{"minute-count-negative", func(st *DayStats) { st.MinuteCounts[7] = -1 }},
	} {
		c := checkpointCollector(t)
		st, _ := c.Get(c.Keys()[0])
		tc.set(st)
		if err := c.WriteCheckpoint(io.Discard); err == nil {
			t.Errorf("%s: encode succeeded", tc.name)
		}
	}
}

// TestCheckpointSlabCap verifies the decoder refuses headers declaring
// a slab larger than MaxCheckpointCells instead of allocating it, also
// when the slab's cell count does not fit 64 bits.
func TestCheckpointSlabCap(t *testing.T) {
	c := checkpointCollector(t)
	var buf bytes.Buffer
	if err := c.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	old := MaxCheckpointCells
	defer func() { MaxCheckpointCells = old }()
	MaxCheckpointCells = 4 // below the 3*5*2 slab of the test collector
	if _, err := ReadCheckpoint(bytes.NewReader(buf.Bytes())); err == nil || !strings.Contains(err.Error(), "cap") {
		t.Fatalf("oversized slab: err = %v", err)
	}
	MaxCheckpointCells = old

	// 2^20 services × 2^22 BSs × 2^22 days is 2^64 cells, which wraps
	// to an empty slab in 64-bit arithmetic.
	empty, err := NewCollectorSized(1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := empty.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	wrap := buf.Bytes()
	for i, v := range []uint32{1 << 20, 1 << 22, 1 << 22} {
		binary.LittleEndian.PutUint32(wrap[6+4*i:], v)
	}
	binary.LittleEndian.PutUint32(wrap[len(wrap)-4:], crc32.Checksum(wrap[:len(wrap)-4], crcTable))
	if _, err := ReadCheckpoint(bytes.NewReader(wrap)); err == nil || !strings.Contains(err.Error(), "cap") {
		t.Fatalf("slab wrapping 64 bits: err = %v", err)
	}
}

// FuzzReadCheckpoint asserts the decoder's core contract: arbitrary
// bytes must either decode or error — never panic, never allocate
// unboundedly (the slab cap is lowered so hostile headers are cheap to
// reject). A successful decode must re-encode deterministically. The
// seeds include every cell-payload corruption of TestCheckpointCorruption.
func FuzzReadCheckpoint(f *testing.F) {
	c, err := NewCollectorSized(2, 3, 1)
	if err != nil {
		f.Fatal(err)
	}
	for _, s := range []netsim.Session{
		{Service: 0, BS: 0, Day: 0, Minute: 5, Volume: 100, Duration: 3},
		{Service: 1, BS: 2, Day: 0, Minute: 900, Volume: 5e6, Duration: 120},
	} {
		if err := c.Observe(s); err != nil {
			f.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := c.WriteCheckpoint(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte(checkpointMagic))
	f.Add([]byte{})
	for _, tc := range cellCorruptions(f, c, valid) {
		f.Add(tc.data)
	}

	old := MaxCheckpointCells
	MaxCheckpointCells = 1 << 16
	f.Cleanup(func() { MaxCheckpointCells = old })

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadCheckpoint(bytes.NewReader(data))
		if err != nil {
			return
		}
		var re bytes.Buffer
		if err := got.WriteCheckpoint(&re); err != nil {
			t.Fatalf("re-encoding a decoded checkpoint failed: %v", err)
		}
		if !bytes.Equal(data, re.Bytes()) {
			t.Fatal("accepted checkpoint did not re-encode to the same bytes")
		}
	})
}
