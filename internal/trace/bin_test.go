package trace

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

// writeTrace encodes records in the given format and returns the bytes.
func writeTrace(t testing.TB, recs []Record, f Format) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, f)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sameBits fails unless a and b are field-for-field bit-identical.
func sameBits(t *testing.T, what string, a, b []Record) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d records vs %d", what, len(a), len(b))
	}
	for i := range a {
		if a[i].Service != b[i].Service {
			t.Fatalf("%s: record %d service %q vs %q", what, i, a[i].Service, b[i].Service)
		}
		pairs := [][2]float64{
			{a[i].TimeS, b[i].TimeS},
			{a[i].Bytes, b[i].Bytes},
			{a[i].DurationS, b[i].DurationS},
			{a[i].Throughput, b[i].Throughput},
		}
		for j, p := range pairs {
			if math.Float64bits(p[0]) != math.Float64bits(p[1]) {
				t.Fatalf("%s: record %d field %d: %x vs %x (%v vs %v)",
					what, i, j, math.Float64bits(p[0]), math.Float64bits(p[1]), p[0], p[1])
			}
		}
	}
}

// generatorRecords builds n records the way the generator does:
// full-precision volumes and durations, throughput exactly
// volume/duration — the population that exercises the derived
// throughput encoding and the raw float fallbacks.
func generatorRecords(n int, seed int64) []Record {
	rng := rand.New(rand.NewSource(seed))
	svcs := []string{"Netflix", "Twitch", "Waze", "Google Meet", "Pokemon GO"}
	out := make([]Record, n)
	tm := 0.0
	for i := range out {
		tm += rng.Float64() * 2
		vol := 100 + math.Exp(rng.NormFloat64()*2+12)
		dur := 0.5 + math.Exp(rng.NormFloat64()+3)
		out[i] = Record{
			TimeS:      tm,
			Service:    svcs[rng.Intn(len(svcs))],
			Bytes:      vol,
			DurationS:  dur,
			Throughput: vol / dur,
		}
	}
	return out
}

// canonicalRecords is generatorRecords round-tripped once through the
// CSV surface: decimal-quantized values, the interchange population the
// compact encodings target.
func canonicalRecords(t testing.TB, n int, seed int64) []Record {
	t.Helper()
	recs, err := Read(bytes.NewReader(writeTrace(t, generatorRecords(n, seed), CSV)))
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

func TestBinRoundTripGenerator(t *testing.T) {
	recs := generatorRecords(500, 1)
	back, err := Read(bytes.NewReader(writeTrace(t, recs, Bin)))
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "generator", recs, back)
}

func TestBinRoundTripCanonical(t *testing.T) {
	recs := canonicalRecords(t, 500, 2)
	back, err := Read(bytes.NewReader(writeTrace(t, recs, Bin)))
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "canonical", recs, back)
}

// TestBinRoundTripMultiBlock crosses the block boundary (4096 records
// per block) with a dict that keeps growing mid-stream.
func TestBinRoundTripMultiBlock(t *testing.T) {
	recs := generatorRecords(3*binBlockRecords+17, 3)
	for i := range recs {
		if i%1000 == 0 {
			recs[i].Service = "late-" + string(rune('a'+i/1000))
		}
	}
	back, err := Read(bytes.NewReader(writeTrace(t, recs, Bin)))
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "multiblock", recs, back)
}

// TestBinRoundTripHostileFloats pins the raw fallback: full-precision
// mantissas, denormals, huge values and unsorted times must all take
// the raw encoding and survive bit-exactly.
func TestBinRoundTripHostileFloats(t *testing.T) {
	recs := []Record{
		{TimeS: math.Pi, Service: "x", Bytes: math.Nextafter(1, 2), DurationS: 5e-324, Throughput: math.MaxFloat64},
		{TimeS: 0, Service: "x", Bytes: 1e300, DurationS: math.Pi, Throughput: -math.MaxFloat64},
		{TimeS: 86400.000001, Service: "y", Bytes: 0.001, DurationS: 1e-10, Throughput: 0},
	}
	back, err := Read(bytes.NewReader(writeTrace(t, recs, Bin)))
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "hostile", recs, back)
}

func TestBinEmptyTrace(t *testing.T) {
	data := writeTrace(t, nil, Bin)
	back, err := Read(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 0 {
		t.Fatalf("empty trace decoded %d records", len(back))
	}
}

// TestBinCompactEncodings pins the size story: the canonical
// (CSV-quantized) population must encode far smaller than both the raw
// float fallback and the CSV text it came from, and the generator
// population must get the throughput column for free.
func TestBinCompactEncodings(t *testing.T) {
	n := 5000
	canonical := canonicalRecords(t, n, 4)
	csvSize := len(writeTrace(t, canonical, CSV))
	binSize := len(writeTrace(t, canonical, Bin))
	if binSize*3 > csvSize {
		t.Errorf("canonical bin = %d bytes, csv = %d: want >=3x smaller", binSize, csvSize)
	}

	gen := generatorRecords(n, 5)
	genBin := len(writeTrace(t, gen, Bin))
	// Raw fallback costs 8B for time/bytes/duration plus ~1B service;
	// the derived throughput column must not add another 8B per record.
	if perRec := float64(genBin) / float64(n); perRec > 27 {
		t.Errorf("generator bin = %.1f B/record: derived throughput encoding not engaged", perRec)
	}
}

func TestBinRejectsCorruption(t *testing.T) {
	data := writeTrace(t, generatorRecords(300, 6), Bin)

	// Any single flipped byte must fail the CRC (or a structural check
	// before it) — sample positions across header, dict, blocks, footer
	// and trailer.
	for _, pos := range []int{0, 5, 10, len(data) / 2, len(data) - 13, len(data) - 6, len(data) - 1} {
		mut := append([]byte(nil), data...)
		mut[pos] ^= 0x40
		if _, err := Read(bytes.NewReader(mut)); err == nil {
			t.Errorf("flipped byte %d of %d: read succeeded", pos, len(data))
		}
	}

	// Truncation at any boundary is an error, never a short result.
	for _, cut := range []int{3, 6, 20, len(data) / 2, len(data) - 12, len(data) - 4, len(data) - 1} {
		if _, err := Read(bytes.NewReader(data[:cut])); err == nil {
			t.Errorf("truncated to %d of %d: read succeeded", cut, len(data))
		}
	}

	// Trailing garbage after the trailer is an error.
	if _, err := Read(bytes.NewReader(append(append([]byte(nil), data...), 0))); err == nil {
		t.Error("trailing byte accepted")
	}

	// A torn-off trailer whose stored CRC no longer matches.
	mut := append([]byte(nil), data...)
	mut[len(data)-2] ^= 0xff
	if _, err := Read(bytes.NewReader(mut)); err == nil || !strings.Contains(err.Error(), "CRC") {
		t.Errorf("corrupt CRC: err = %v", err)
	}
}

func TestBinVersionGate(t *testing.T) {
	data := writeTrace(t, generatorRecords(3, 7), Bin)
	mut := append([]byte(nil), data...)
	mut[4] = 0x7f // version low byte
	if _, err := Read(bytes.NewReader(mut)); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("future version: err = %v", err)
	}
}

func TestReadSummaryFastPath(t *testing.T) {
	recs := generatorRecords(2000, 8)
	data := writeTrace(t, recs, Bin)
	sum, err := ReadSummary(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	want := Summarize(recs)
	if sum.Sessions != want.Sessions || sum.TotalBytes != want.TotalBytes || sum.SpanS != want.SpanS {
		t.Fatalf("summary = %+v, want %+v", sum, want)
	}
	if sum.VolumeP50 != want.VolumeP50 || sum.VolumeP99 != want.VolumeP99 {
		t.Fatalf("quantiles = %v/%v, want %v/%v", sum.VolumeP50, sum.VolumeP99, want.VolumeP50, want.VolumeP99)
	}
	if len(sum.Services) != len(want.Services) {
		t.Fatalf("services = %v", sum.Services)
	}

	// Structural errors on the fast path.
	if _, err := ReadSummary(bytes.NewReader(data[:20])); err == nil {
		t.Error("truncated trace: ReadSummary succeeded")
	}
	mut := append([]byte(nil), data...)
	mut[0] = 'X'
	if _, err := ReadSummary(bytes.NewReader(mut)); err == nil {
		t.Error("bad magic: ReadSummary succeeded")
	}
	mut = append([]byte(nil), data...)
	mut[len(mut)-12] ^= 0xff // footer offset
	if _, err := ReadSummary(bytes.NewReader(mut)); err == nil {
		t.Error("bad footer offset: ReadSummary succeeded")
	}
}

// TestCrossFormatRoundTrip is the satellite property test: after one
// canonicalization through the lossy CSV surface, CSV, JSON lines and
// MTTR all reproduce the identical []Record, bit-exact per float64.
func TestCrossFormatRoundTrip(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		recs := canonicalRecords(t, int(n)%64+1, seed)
		var backs [3][]Record
		for i, format := range []Format{CSV, JSONLines, Bin} {
			back, err := Read(bytes.NewReader(writeTrace(t, recs, format)))
			if err != nil {
				t.Logf("format %d: %v", format, err)
				return false
			}
			backs[i] = back
		}
		for _, back := range backs {
			if len(back) != len(recs) {
				return false
			}
			for i := range recs {
				if back[i].Service != recs[i].Service ||
					math.Float64bits(back[i].TimeS) != math.Float64bits(recs[i].TimeS) ||
					math.Float64bits(back[i].Bytes) != math.Float64bits(recs[i].Bytes) ||
					math.Float64bits(back[i].DurationS) != math.Float64bits(recs[i].DurationS) ||
					math.Float64bits(back[i].Throughput) != math.Float64bits(recs[i].Throughput) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestBinRoundTripArbitraryFloats drops the CSV canonicalization: MTTR
// alone must round-trip full-precision records bit-exactly.
func TestBinRoundTripArbitraryFloats(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		recs := make([]Record, rng.Intn(40)+1)
		for i := range recs {
			recs[i] = Record{
				TimeS:      rng.Float64() * math.Exp(rng.NormFloat64()*8),
				Service:    "svc-" + string(rune('a'+rng.Intn(26))),
				Bytes:      math.Exp(rng.NormFloat64() * 20),
				DurationS:  math.Exp(rng.NormFloat64() * 10),
				Throughput: rng.Float64() * 1e9,
			}
		}
		back, err := Read(bytes.NewReader(writeTrace(t, recs, Bin)))
		if err != nil {
			t.Logf("read: %v", err)
			return false
		}
		if len(back) != len(recs) {
			return false
		}
		for i := range recs {
			if back[i].Service != recs[i].Service ||
				math.Float64bits(back[i].TimeS) != math.Float64bits(recs[i].TimeS) ||
				math.Float64bits(back[i].Bytes) != math.Float64bits(recs[i].Bytes) ||
				math.Float64bits(back[i].DurationS) != math.Float64bits(recs[i].DurationS) ||
				math.Float64bits(back[i].Throughput) != math.Float64bits(recs[i].Throughput) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestBinWriteAfterFlush(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Bin)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(generatorRecords(1, 9)[0]); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(generatorRecords(1, 9)[0]); err == nil {
		t.Error("write after finalize must error")
	}
	// A second Flush is a no-op, not a second trailer.
	before := buf.Len()
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != before {
		t.Error("second Flush grew the trace")
	}
}

func TestDecimalParts(t *testing.T) {
	cases := []struct {
		v  float64
		m  int64
		k  int
		ok bool
	}{
		{0, 0, 0, true},
		{42, 42, 0, true},
		{0.5, 5, 1, true},
		{0.125, 125, 3, true},
		{18085.919, 18085919, 3, true},
		{math.Pi, 0, 0, false},
		{-1, 0, 0, false},
		{math.Copysign(0, -1), 0, 0, false}, // -0 must take the raw path
		{math.NaN(), 0, 0, false},
		{math.Inf(1), 0, 0, false},
		{1 << 54, 0, 0, false},
		{0.0001, 0, 0, false}, // below the supported scales
	}
	for _, c := range cases {
		m, k, ok := decimalParts(c.v)
		if ok != c.ok || (ok && (m != c.m || k != c.k)) {
			t.Errorf("decimalParts(%v) = (%d, %d, %v), want (%d, %d, %v)", c.v, m, k, ok, c.m, c.k, c.ok)
		}
	}
}

func TestSummarizeEdgeCases(t *testing.T) {
	empty := Summarize(nil)
	if empty.Sessions != 0 || empty.TotalBytes != 0 || empty.SpanS != 0 {
		t.Errorf("empty summary = %+v", empty)
	}
	if empty.VolumeP50 != 0 || empty.VolumeP90 != 0 || empty.VolumeP99 != 0 {
		t.Errorf("empty summary quantiles = %+v", empty)
	}
	if len(empty.Services) != 0 {
		t.Errorf("empty summary services = %v", empty.Services)
	}

	one := Summarize([]Record{{TimeS: 7.5, Service: "solo", Bytes: 1234, DurationS: 10, Throughput: 123.4}})
	if one.Sessions != 1 || one.TotalBytes != 1234 || one.SpanS != 7.5 {
		t.Errorf("single summary = %+v", one)
	}
	if one.VolumeP50 != 1234 || one.VolumeP90 != 1234 || one.VolumeP99 != 1234 {
		t.Errorf("single summary quantiles collapse to the value: %+v", one)
	}
	if one.Services["solo"] != 1 {
		t.Errorf("single summary services = %v", one.Services)
	}
}

// TestReadBinAllocBudget pins the reader's memory: decoding a trace of
// many blocks may allocate at most 2.5x the bytes of the []Record it
// returns (the per-block chunks, the joined result and the reused
// column buffers), not a regrowing result plus per-block scratch.
func TestReadBinAllocBudget(t *testing.T) {
	recs := generatorRecords(24*binBlockRecords+100, 10)
	data := writeTrace(t, recs, Bin)
	out := int(unsafe.Sizeof(Record{})) * len(recs)
	budget := uint64(out) * 5 / 2
	best := uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		back, err := Read(bytes.NewReader(data))
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatal(err)
		}
		if len(back) != len(recs) {
			t.Fatalf("read %d records, wrote %d", len(back), len(recs))
		}
		best = min(best, m1.TotalAlloc-m0.TotalAlloc)
	}
	if best > budget {
		t.Errorf("Read allocated %d B for a %d B []Record (%.2fx), budget 2.5x", best, out, float64(best)/float64(out))
	}
	t.Logf("Read allocated %d B for a %d B []Record (%.2fx)", best, out, float64(best)/float64(out))
}
