package trace

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func sampleRecords() []Record {
	return []Record{
		{TimeS: 0, Service: "Netflix", Bytes: 40e6, DurationS: 600, Throughput: 40e6 / 600},
		{TimeS: 12.5, Service: "Facebook", Bytes: 200e3, DurationS: 120, Throughput: 200e3 / 120},
		{TimeS: 59.9, Service: "Waze", Bytes: 50e3, DurationS: 300, Throughput: 50e3 / 300},
	}
}

func TestCSVRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, CSV)
	if err != nil {
		t.Fatal(err)
	}
	recs := sampleRecords()
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != 3 {
		t.Errorf("count = %d", w.Count())
	}
	if !strings.HasPrefix(buf.String(), "time_s,service,bytes,duration_s,throughput_Bps\n") {
		t.Errorf("missing header: %q", buf.String()[:50])
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(recs) {
		t.Fatalf("round trip lost records: %d", len(back))
	}
	for i := range recs {
		if back[i].Service != recs[i].Service {
			t.Errorf("record %d service %q", i, back[i].Service)
		}
		if math.Abs(back[i].Bytes-recs[i].Bytes) > 1 {
			t.Errorf("record %d bytes %v", i, back[i].Bytes)
		}
		if math.Abs(back[i].TimeS-recs[i].TimeS) > 0.01 {
			t.Errorf("record %d time %v", i, back[i].TimeS)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, JSONLines)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range sampleRecords() {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 3 {
		t.Fatalf("records = %d", len(back))
	}
	// JSON preserves exact floats.
	if back[0].Bytes != 40e6 || back[0].DurationS != 600 {
		t.Errorf("record 0 = %+v", back[0])
	}
}

func TestReadAutodetect(t *testing.T) {
	csvIn := "time_s,service,bytes,duration_s,throughput_Bps\n1.000,\"X\",100,2.000,50.000\n"
	recs, err := Read(strings.NewReader(csvIn))
	if err != nil || len(recs) != 1 {
		t.Fatalf("csv autodetect: %v, %d", err, len(recs))
	}
	jsonIn := `{"time_s":1,"service":"X","bytes":100,"duration_s":2,"throughput_Bps":50}` + "\n"
	recs, err = Read(strings.NewReader(jsonIn))
	if err != nil || len(recs) != 1 {
		t.Fatalf("json autodetect: %v, %d", err, len(recs))
	}
	recs, err = Read(strings.NewReader(""))
	if err != nil || len(recs) != 0 {
		t.Fatalf("empty input: %v, %d", err, len(recs))
	}
}

func TestReadRejectsInvalid(t *testing.T) {
	bad := []string{
		"time_s,service,bytes,duration_s,throughput_Bps\nnope,\"X\",100,2,50\n", // bad float
		"time_s,service,bytes,duration_s,throughput_Bps\n1,\"X\",0,2,0\n",       // zero bytes
		`{"time_s":-1,"service":"X","bytes":1,"duration_s":1}` + "\n",           // negative time
		`{"garbage`, // malformed JSON
	}
	for i, in := range bad {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestWriteRejectsInvalid(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, CSV)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(Record{Service: "", Bytes: 1, DurationS: 1}); err == nil {
		t.Error("empty service must error")
	}
	if err := w.Write(Record{Service: "X", Bytes: -5, DurationS: 1}); err == nil {
		t.Error("negative bytes must error")
	}
}

// TestWriteRejectsNonFinite checks that a NaN or infinite time, volume
// or duration is refused by Write, at the record, in every format: the
// MTTR writer used to accept a NaN volume and only fail in Flush,
// leaving a trace without footer or trailer. The rejected record must
// not reach the output, which stays a valid trace of the good records.
func TestWriteRejectsNonFinite(t *testing.T) {
	good := sampleRecords()
	cases := []struct {
		name string
		mut  func(*Record)
	}{
		{"nan time", func(r *Record) { r.TimeS = math.NaN() }},
		{"inf time", func(r *Record) { r.TimeS = math.Inf(1) }},
		{"nan bytes", func(r *Record) { r.Bytes = math.NaN() }},
		{"inf bytes", func(r *Record) { r.Bytes = math.Inf(1) }},
		{"nan duration", func(r *Record) { r.DurationS = math.NaN() }},
		{"inf duration", func(r *Record) { r.DurationS = math.Inf(1) }},
		{"-inf duration", func(r *Record) { r.DurationS = math.Inf(-1) }},
	}
	for _, format := range []Format{CSV, JSONLines, Bin} {
		for _, tc := range cases {
			var buf bytes.Buffer
			w, err := NewWriter(&buf, format)
			if err != nil {
				t.Fatal(err)
			}
			bad := good[1]
			tc.mut(&bad)
			if err := w.Write(good[0]); err != nil {
				t.Fatal(err)
			}
			if err := w.Write(bad); err == nil || !strings.Contains(err.Error(), "non-finite") {
				t.Errorf("format %d, %s: Write err = %v, want a non-finite record error", format, tc.name, err)
			}
			if err := w.Write(good[2]); err != nil {
				t.Fatal(err)
			}
			if err := w.Flush(); err != nil {
				t.Fatalf("format %d, %s: Flush after a rejected record: %v", format, tc.name, err)
			}
			back, err := Read(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("format %d, %s: read back: %v", format, tc.name, err)
			}
			if w.Count() != 2 || len(back) != 2 || back[0].Service != good[0].Service || back[1].Service != good[2].Service {
				t.Errorf("format %d, %s: wrote %d, read back %+v", format, tc.name, w.Count(), back)
			}
		}
	}
}

func TestParseFormat(t *testing.T) {
	if f, err := ParseFormat("csv"); err != nil || f != CSV {
		t.Error("csv")
	}
	if f, err := ParseFormat("json"); err != nil || f != JSONLines {
		t.Error("json")
	}
	if f, err := ParseFormat("jsonl"); err != nil || f != JSONLines {
		t.Error("jsonl")
	}
	if _, err := ParseFormat("xml"); err == nil {
		t.Error("unknown format must error")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize(sampleRecords())
	if s.Sessions != 3 || s.Services["Netflix"] != 1 {
		t.Errorf("summary = %+v", s)
	}
	if math.Abs(s.TotalBytes-(40e6+200e3+50e3)) > 1 {
		t.Errorf("total bytes = %v", s.TotalBytes)
	}
	if s.SpanS != 59.9 {
		t.Errorf("span = %v", s.SpanS)
	}
	empty := Summarize(nil)
	if empty.Sessions != 0 || empty.TotalBytes != 0 {
		t.Errorf("empty summary = %+v", empty)
	}
}

// Property: any valid record survives a CSV round trip within
// formatting precision.
func TestCSVRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rec := Record{
			TimeS:      rng.Float64() * 86400,
			Service:    "svc-" + string(rune('a'+rng.Intn(26))),
			Bytes:      1 + rng.Float64()*1e9,
			DurationS:  0.001 + rng.Float64()*1e4,
			Throughput: rng.Float64() * 1e7,
		}
		var buf bytes.Buffer
		w, err := NewWriter(&buf, CSV)
		if err != nil {
			return false
		}
		if err := w.Write(rec); err != nil {
			return false
		}
		if err := w.Flush(); err != nil {
			return false
		}
		back, err := Read(&buf)
		if err != nil || len(back) != 1 {
			return false
		}
		return back[0].Service == rec.Service &&
			math.Abs(back[0].TimeS-rec.TimeS) < 0.01 &&
			math.Abs(back[0].Bytes-rec.Bytes) < 1 &&
			math.Abs(back[0].DurationS-rec.DurationS) < 0.01
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
