package trace

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzRead throws arbitrary bytes at the format-sniffing trace reader.
// Traces come from the command line (`sessiongen` output piped through
// other tools), so a malformed or truncated file must produce an error
// or an empty result — never a panic. Successfully parsed records must
// additionally pass Validate, since that is the reader's contract.
func FuzzRead(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte(strings.Join(Header, ",") + "\n0,web,100,2,50\n"))
	f.Add([]byte("0,web,100,2,50\n1.5,video,2e6,30,66666.7\n"))
	f.Add([]byte(`{"time_s":0,"service":"web","bytes":100,"duration_s":2,"throughput_bps":50}` + "\n"))
	f.Add([]byte("{"))
	f.Add([]byte("{}"))
	f.Add([]byte("0,web,NaN,2,50\n"))
	f.Add([]byte("0,web,100,-2,50\n"))
	f.Add([]byte(",,,,\n"))
	f.Add([]byte("\xff\xfe0,web,100,2,50"))
	f.Fuzz(func(t *testing.T, data []byte) {
		records, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i, rec := range records {
			if vErr := rec.Validate(); vErr != nil {
				t.Errorf("record %d parsed without error but fails Validate: %v", i, vErr)
			}
		}
	})
}

// FuzzReadBin targets the MTTR columnar reader: seeded with valid
// traces (which must round-trip) plus hand-corrupted sections, the
// fuzzer mutates framing, encodings, dict entries, footer and trailer.
// Any input must either fail cleanly or decode to records that pass
// Validate — never panic, never over-allocate past the header caps,
// and never return data whose CRC does not match. Every input is read
// twice, seekable (presized from the footer) and unseekable (spilled
// into chunks): the two paths must agree on whether it is an error
// and on every record bit for bit.
func FuzzReadBin(f *testing.F) {
	seedRecords := [][]Record{
		nil,
		{{TimeS: 0, Service: "web", Bytes: 100, DurationS: 2, Throughput: 50}},
		{
			{TimeS: 0.25, Service: "video", Bytes: 2e6, DurationS: 30, Throughput: 2e6 / 30},
			{TimeS: 1.5, Service: "web", Bytes: 512.125, DurationS: 0.5, Throughput: 1024.25},
			{TimeS: 1.5, Service: "video", Bytes: 1e15, DurationS: 86400, Throughput: 11574074074.074},
		},
	}
	for _, recs := range seedRecords {
		var buf bytes.Buffer
		w, err := NewWriter(&buf, Bin)
		if err != nil {
			f.Fatal(err)
		}
		for _, r := range recs {
			if err := w.Write(r); err != nil {
				f.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			f.Fatal(err)
		}
		data := buf.Bytes()
		f.Add(append([]byte(nil), data...))
		// Truncations and single-byte corruptions as extra seeds.
		f.Add(append([]byte(nil), data[:len(data)/2]...))
		if len(data) > 8 {
			mut := append([]byte(nil), data...)
			mut[7] ^= 0xff
			f.Add(mut)
		}
	}
	f.Add([]byte("MTTR"))
	f.Add([]byte("MTTR\x01\x00"))
	f.Add([]byte("MTTR\x01\x00\x02\xff\xff\xff\xff"))         // huge block
	f.Add([]byte("MTTR\x01\x00\x01\xff\xff\xff\xff\xff\xff")) // bad dict index
	f.Fuzz(func(t *testing.T, data []byte) {
		records, err := Read(bytes.NewReader(data))
		streamed, serr := Read(unseekable(data))
		if (err == nil) != (serr == nil) {
			t.Fatalf("seekable read err = %v, unseekable read err = %v", err, serr)
		}
		if err != nil {
			return
		}
		sameBits(t, "seekable vs unseekable", records, streamed)
		for i, rec := range records {
			if vErr := rec.Validate(); vErr != nil {
				t.Errorf("record %d parsed without error but fails Validate: %v", i, vErr)
			}
		}
	})
}

// FuzzReadCSV targets the CSV row parser directly with a fixed prefix
// so the fuzzer spends its budget on field-level corruption instead of
// format sniffing.
func FuzzReadCSV(f *testing.F) {
	f.Add("0,web,100,2,50")
	f.Add("abc,web,100,2,50")
	f.Add("0,web,1e309,2,50")
	f.Add(`"0","we""b",100,2,50`)
	f.Add("0,web,100,2")
	f.Fuzz(func(t *testing.T, row string) {
		records, err := Read(strings.NewReader(row + "\n"))
		if err != nil {
			return
		}
		for i, rec := range records {
			if vErr := rec.Validate(); vErr != nil {
				t.Errorf("record %d parsed without error but fails Validate: %v", i, vErr)
			}
		}
	})
}

// FuzzReadJSON targets the JSON-lines decoder: every line that decodes
// must validate, and garbage must error cleanly.
func FuzzReadJSON(f *testing.F) {
	f.Add(`{"time_s":0,"service":"web","bytes":100,"duration_s":2,"throughput_bps":50}`)
	f.Add(`{"time_s":-1}`)
	f.Add(`{"bytes":1e999}`)
	f.Add(`{"service":""}{"service":""}`)
	f.Add(`{"time_s":0,"service":"web","bytes":100,"duration_s":2,"throughput_bps":50}{`)
	f.Fuzz(func(t *testing.T, line string) {
		// Force the JSON path regardless of the fuzzed first byte.
		data := "{" + strings.TrimPrefix(line, "{")
		records, err := Read(strings.NewReader(data))
		if err != nil {
			return
		}
		for i, rec := range records {
			if vErr := rec.Validate(); vErr != nil {
				t.Errorf("record %d parsed without error but fails Validate: %v", i, vErr)
			}
		}
	})
}
