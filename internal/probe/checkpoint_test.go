package probe

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

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
// the encoding of c: minute counts that are not non-negative int32s,
// non-finite or negative totals and bins, and runs that no longer sum
// to the session total.
func cellCorruptions(tb testing.TB, c *Collector, valid []byte) []cellCorruption {
	tb.Helper()
	keys := c.Keys()
	if len(keys) == 0 {
		tb.Fatal("corruption fixture has no cells")
	}
	st, _ := c.Get(keys[0])
	nv, nd := len(c.VolumeEdges)-1, len(c.DurationEdges)-1
	// Header (magic, version, six dims, cell count), both edge grids,
	// then the first cell's slab index.
	sessionsOff := 4 + 2 + 6*4 + 8 + 8*(nv+1+nd+1) + 8
	minutesOff := sessionsOff + 8
	volOff := minutesOff + 8*netsim.MinutesPerDay
	durSumOff := volOff + 8*nv
	durCountOff := durSumOff + 8*nd
	zeroMinute := slices.Index(st.MinuteCounts, 0)
	zeroVol := slices.Index(st.Volume.P, 0)
	zeroDur := slices.Index(st.DurCount, 0)
	if zeroMinute < 0 || zeroVol < 0 || zeroDur < 0 {
		tb.Fatal("corruption fixture's first cell has no empty bins")
	}
	patch := func(off int, v float64) []byte {
		out := append([]byte(nil), valid...)
		binary.LittleEndian.PutUint64(out[off:], math.Float64bits(v))
		binary.LittleEndian.PutUint32(out[len(out)-4:], crc32.Checksum(out[:len(out)-4], crcTable))
		return out
	}
	nan, inf, negZero := math.NaN(), math.Inf(1), math.Copysign(0, -1)
	var out []cellCorruption
	for _, v := range []float64{0.5, -1, negZero, nan, inf, math.MaxInt32 + 1} {
		out = append(out, cellCorruption{fmt.Sprintf("minute-count-%v", v),
			patch(minutesOff+8*zeroMinute, v), "int32"})
	}
	for _, v := range []float64{nan, inf, -1} {
		out = append(out,
			cellCorruption{fmt.Sprintf("sessions-%v", v), patch(sessionsOff, v), "session total"},
			cellCorruption{fmt.Sprintf("volume-bin-%v", v), patch(volOff+8*zeroVol, v), "volume bin"},
			cellCorruption{fmt.Sprintf("dur-vol-sum-%v", v), patch(durSumOff, v), "duration-volume sum"},
			cellCorruption{fmt.Sprintf("dur-count-%v", v), patch(durCountOff+8*zeroDur, v), "duration count"})
	}
	return append(out,
		cellCorruption{"minute-sum", patch(minutesOff+8*zeroMinute, 1), "minute counts sum"},
		cellCorruption{"volume-sum", patch(volOff+8*zeroVol, 1), "volume bins sum"},
		cellCorruption{"dur-count-sum", patch(durCountOff+8*zeroDur, 1), "duration counts sum"})
}

// TestCheckpointSlabCap verifies the decoder refuses headers declaring
// a slab larger than MaxCheckpointCells instead of allocating it.
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
