package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
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

// failingWriter rejects every write, as a full disk or a closed pipe
// would.
type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("device full") }

// TestWriterCountsAcceptedRecords pins Count to the records Write
// accepted: a record the encoder rejects — after Flush, past the dict
// cap, or on a failed CSV write — is not counted.
func TestWriterCountsAcceptedRecords(t *testing.T) {
	rec := generatorRecords(1, 15)[0]
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Bin)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(rec); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(rec); err == nil {
		t.Fatal("write after Flush succeeded")
	}
	if got := w.Count(); got != 1 {
		t.Errorf("after a rejected write past Flush: Count = %d, want 1", got)
	}

	defer func(n uint32) { MaxBinDictEntries = n }(MaxBinDictEntries)
	MaxBinDictEntries = 1
	w, err = NewWriter(&buf, Bin)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(rec); err != nil {
		t.Fatal(err)
	}
	other := rec
	other.Service = rec.Service + "-2"
	if err := w.Write(other); err == nil {
		t.Fatal("write past the dict cap succeeded")
	}
	if got := w.Count(); got != 1 {
		t.Errorf("after a dict overflow: Count = %d, want 1", got)
	}

	// A service name longer than the CSV buffers reaches the failing
	// writer within the Write call.
	w, err = NewWriter(failingWriter{}, CSV)
	if err != nil {
		t.Fatal(err)
	}
	long := rec
	long.Service = strings.Repeat("s", 3*4096)
	if err := w.Write(long); err == nil {
		t.Fatal("CSV write to a failing writer succeeded")
	}
	if got := w.Count(); got != 0 {
		t.Errorf("after a failed CSV write: Count = %d, want 0", got)
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

// readAllocs returns the fewest bytes Read allocated over three reads
// of data through the reader open returns, failing unless each read
// returns want records.
func readAllocs(t *testing.T, data []byte, want int, open func([]byte) io.Reader) uint64 {
	t.Helper()
	best := uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		r := open(data)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		back, err := Read(r)
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatal(err)
		}
		if len(back) != want {
			t.Fatalf("read %d records, wrote %d", len(back), want)
		}
		best = min(best, m1.TotalAlloc-m0.TotalAlloc)
	}
	return best
}

// unseekable hides a reader's Seek method, as a pipe or a network
// stream would.
func unseekable(data []byte) io.Reader { return struct{ io.Reader }{bytes.NewReader(data)} }

// TestReadBinAllocBudget pins the reader's memory per read path, as a
// multiple of the bytes of the []Record it returns. A seekable input
// decodes into one slice presized from the footer: the result plus the
// reused column buffers, at most 1.25x. An unseekable one decodes each
// block into its own exact-size chunk and joins them, at most 2.5x —
// not a regrowing result plus per-block scratch.
func TestReadBinAllocBudget(t *testing.T) {
	recs := generatorRecords(24*binBlockRecords+100, 10)
	data := writeTrace(t, recs, Bin)
	out := uint64(unsafe.Sizeof(Record{})) * uint64(len(recs))
	for _, c := range []struct {
		name   string
		open   func([]byte) io.Reader
		budget float64
	}{
		{"seekable", func(d []byte) io.Reader { return bytes.NewReader(d) }, 1.25},
		{"unseekable", unseekable, 2.5},
	} {
		t.Run(c.name, func(t *testing.T) {
			got := readAllocs(t, data, len(recs), c.open)
			ratio := float64(got) / float64(out)
			if ratio > c.budget {
				t.Errorf("Read allocated %d B for a %d B []Record (%.2fx), budget %.2fx", got, out, ratio, c.budget)
			}
			t.Logf("Read allocated %d B for a %d B []Record (%.2fx)", got, out, ratio)
		})
	}
}

// TestReadTextAllocBudget pins the CSV and JSON-lines readers' memory
// as a multiple of the bytes of the []Record they return. A seekable
// input is line-counted first, so its records land in one presized
// slice: at most 2.5x, the unseekable MTTR bound. An unseekable one
// collects them in chunks and joins them once. From CSV that costs
// more, since csv.Reader allocates one string per row. Reading every
// CSV row up front and regrowing the result cost 6.33x (CSV) and 7.00x
// (JSON) either way.
func TestReadTextAllocBudget(t *testing.T) {
	recs := generatorRecords(100_000, 12)
	out := uint64(unsafe.Sizeof(Record{})) * uint64(len(recs))
	seekable := func(d []byte) io.Reader { return bytes.NewReader(d) }
	csvData, jsonData := writeTrace(t, recs, CSV), writeTrace(t, recs, JSONLines)
	for _, c := range []struct {
		name   string
		data   []byte
		open   func([]byte) io.Reader
		budget float64
	}{
		{"csv/seekable", csvData, seekable, 2.5},
		{"csv/unseekable", csvData, unseekable, 3.25},
		{"json/seekable", jsonData, seekable, 2.5},
		{"json/unseekable", jsonData, unseekable, 2.5},
	} {
		t.Run(c.name, func(t *testing.T) {
			got := readAllocs(t, c.data, len(recs), c.open)
			ratio := float64(got) / float64(out)
			if ratio > c.budget {
				t.Errorf("Read allocated %d B for a %d B []Record (%.2fx), budget %.2fx", got, out, ratio, c.budget)
			}
			t.Logf("Read allocated %d B for a %d B []Record (%.2fx)", got, out, ratio)
		})
	}
}

// TestBinWriterAllocBudget pins the writer's memory per record. Beyond
// the reused block columns, a record costs its volume twice: once in
// its block's volume column, handed over whole at flush, and once in
// the exact-size sample that Flush joins for the footer's quantiles.
// Copying every volume into a regrowing sample cost 47 B/record.
func TestBinWriterAllocBudget(t *testing.T) {
	recs := generatorRecords(90*binBlockRecords, 11)
	const budget = 24.0 // bytes per record
	best := uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		w, err := NewWriter(io.Discard, Bin)
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
		runtime.ReadMemStats(&m1)
		best = min(best, m1.TotalAlloc-m0.TotalAlloc)
	}
	perRec := float64(best) / float64(len(recs))
	if perRec > budget {
		t.Errorf("writer allocated %.1f B/record, budget %.0f", perRec, budget)
	}
	t.Logf("writer allocated %.1f B/record over %d records", perRec, len(recs))
}

// withFooterSessions re-frames an MTTR trace with its footer's session
// count replaced and its CRC recomputed, so only the count lies.
func withFooterSessions(t *testing.T, data []byte, sessions int) []byte {
	t.Helper()
	footOff := binary.LittleEndian.Uint64(data[len(data)-12:])
	var sum Summary
	if err := json.Unmarshal(data[footOff+5:len(data)-12], &sum); err != nil {
		t.Fatal(err)
	}
	sum.Sessions = sessions
	sumJSON, err := json.Marshal(sum)
	if err != nil {
		t.Fatal(err)
	}
	out := append([]byte(nil), data[:footOff]...)
	out = append(out, tagFooter)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(sumJSON)))
	out = append(out, sumJSON...)
	out = binary.LittleEndian.AppendUint64(out, footOff)
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(out, binCRCTable))
}

// TestReadBinInflatedFooter feeds a trace whose footer claims 2^31
// sessions behind a valid CRC. The presize hint is capped at what the
// bytes before the footer could hold, so the read allocates that cap
// instead of 2^31 records, and the footer check still rejects the
// stream.
func TestReadBinInflatedFooter(t *testing.T) {
	recs := generatorRecords(3*binBlockRecords+5, 12)
	data := withFooterSessions(t, writeTrace(t, recs, Bin), 1<<31)
	footOff := binary.LittleEndian.Uint64(data[len(data)-12:])
	capRecs := int(footOff / binMinRecordBytes)

	r := bytes.NewReader(data)
	br := bufio.NewReader(r)
	if _, err := br.Peek(4); err != nil {
		t.Fatal(err)
	}
	if hint, err := binSessionHint(r, br); err != nil || hint != capRecs {
		t.Fatalf("hint = %d, %v; want the cap %d", hint, err, capRecs)
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	_, err := Read(bytes.NewReader(data))
	runtime.ReadMemStats(&m1)
	if err == nil || !strings.Contains(err.Error(), "footer says") {
		t.Fatalf("inflated footer: err = %v", err)
	}
	// The capped slice plus the block's column and payload buffers.
	budget := uint64(capRecs)*uint64(unsafe.Sizeof(Record{})) + 512<<10
	if got := m1.TotalAlloc - m0.TotalAlloc; got > budget {
		t.Errorf("inflated footer: Read allocated %d B, budget %d B (cap %d records)", got, budget, capRecs)
	}
}

// TestReadBinPipe reads through an *os.File whose Seek fails: the
// reader must fall back to the spill path and decode every record.
func TestReadBinPipe(t *testing.T) {
	recs := generatorRecords(2*binBlockRecords+9, 13)
	data := writeTrace(t, recs, Bin)
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	done := make(chan error, 1)
	go func() {
		_, err := pw.Write(data)
		pw.Close()
		done <- err
	}()
	back, err := Read(pr)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	sameBits(t, "pipe", recs, back)
}

// TestReadBinAtOffset reads an MTTR stream that starts part-way into a
// seekable input: the footer peek must resolve the footer offset from
// the stream's start, not the input's, and hand the reader back where
// it was.
func TestReadBinAtOffset(t *testing.T) {
	recs := generatorRecords(2*binBlockRecords+33, 14)
	prefix := []byte("preamble written by another tool\n")
	data := append(append([]byte(nil), prefix...), writeTrace(t, recs, Bin)...)
	path := filepath.Join(t.TempDir(), "offset.mttr")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for _, c := range []struct {
		name string
		r    io.ReadSeeker
	}{{"bytes.Reader", bytes.NewReader(data)}, {"os.File", f}} {
		t.Run(c.name, func(t *testing.T) {
			if _, err := c.r.Seek(int64(len(prefix)), io.SeekStart); err != nil {
				t.Fatal(err)
			}
			br := bufio.NewReader(c.r)
			if _, err := br.Peek(4); err != nil {
				t.Fatal(err)
			}
			if hint, err := binSessionHint(c.r, br); err != nil || hint != len(recs) {
				t.Errorf("hint = %d, %v; want the footer's %d", hint, err, len(recs))
			}
			if _, err := c.r.Seek(int64(len(prefix)), io.SeekStart); err != nil {
				t.Fatal(err)
			}
			back, err := Read(c.r)
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, c.name, recs, back)
		})
	}
}

// limitWriter accepts its first n bytes and fails every write after,
// as a disk that fills up mid-trace would.
type limitWriter struct{ n int }

func (w *limitWriter) Write(p []byte) (int, error) {
	if len(p) > w.n {
		k := w.n
		w.n = 0
		return k, errors.New("device full")
	}
	w.n -= len(p)
	return len(p), nil
}

// TestBinWriterErrorIsSticky: once the output fails, the MTTR writer
// returns an error from that Write on, and from Flush, counts no more
// records and holds no more than one block pending.
func TestBinWriterErrorIsSticky(t *testing.T) {
	w, err := NewWriter(&limitWriter{n: 1000}, Bin)
	if err != nil {
		t.Fatal(err)
	}
	failed := -1
	for i, r := range generatorRecords(3*binBlockRecords, 16) {
		if err := w.Write(r); err != nil {
			if failed < 0 {
				failed = i
			}
		} else if failed >= 0 {
			t.Fatalf("write %d succeeded after write %d failed", i, failed)
		}
	}
	if failed < 0 {
		t.Fatal("no write failed")
	}
	if got := w.Count(); got != failed {
		t.Errorf("Count = %d, want the %d writes before the failure", got, failed)
	}
	if n := len(w.binw.times); n > binBlockRecords {
		t.Errorf("%d records pending, more than a block", n)
	}
	if err := w.Flush(); err == nil {
		t.Error("Flush succeeded after a failed write")
	}
}
