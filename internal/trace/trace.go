// Package trace reads and writes session-level traffic traces: one
// record per transport-layer session with its establishment time,
// service, traffic volume, duration and mean throughput. Two formats
// are supported — CSV with a fixed header, and newline-delimited JSON —
// both round-trip safe. The format is the interchange surface between
// the generator tools (cmd/sessiongen, examples/tracegen) and external
// consumers such as network simulators.
package trace

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"

	"mobiletraffic/internal/mathx"
)

// Record is one session in a trace.
type Record struct {
	TimeS      float64 `json:"time_s"`         // establishment time, seconds from trace origin
	Service    string  `json:"service"`        // service name
	Bytes      float64 `json:"bytes"`          // session traffic volume
	DurationS  float64 `json:"duration_s"`     // session duration
	Throughput float64 `json:"throughput_Bps"` // mean throughput, bytes/second
}

// Validate checks the record's internal consistency.
func (r *Record) Validate() error {
	if r.Service == "" {
		return errors.New("trace: empty service name")
	}
	if !mathx.IsFinite(r.TimeS) || !mathx.IsFinite(r.Bytes) || !mathx.IsFinite(r.DurationS) {
		return fmt.Errorf("trace: non-finite record (t=%v bytes=%v dur=%v)", r.TimeS, r.Bytes, r.DurationS)
	}
	if r.TimeS < 0 || r.Bytes <= 0 || r.DurationS <= 0 {
		return fmt.Errorf("trace: invalid record (t=%v bytes=%v dur=%v)", r.TimeS, r.Bytes, r.DurationS)
	}
	return nil
}

// Header is the CSV column header.
var Header = []string{"time_s", "service", "bytes", "duration_s", "throughput_Bps"}

// Format selects the trace encoding.
type Format int

// Supported encodings.
const (
	CSV Format = iota
	JSONLines
	// Bin is the MTTR columnar binary format (bin.go): per-column
	// contiguous raw-bits blocks, a service string table, an embedded
	// Summary footer and a CRC-32C trailer.
	Bin
)

// ParseFormat maps "csv" / "json" / "bin" to a Format.
func ParseFormat(s string) (Format, error) {
	switch s {
	case "csv":
		return CSV, nil
	case "json", "jsonl":
		return JSONLines, nil
	case "bin", "mttr":
		return Bin, nil
	default:
		return 0, fmt.Errorf("trace: unknown format %q (want csv, json or bin)", s)
	}
}

// Writer streams records to an output.
type Writer struct {
	format Format
	csvw   *csv.Writer
	jsonw  *json.Encoder
	binw   *binWriter
	wrote  int
	buf    *bufio.Writer
}

// NewWriter creates a trace writer; for CSV it emits the header
// immediately, for Bin the MTTR magic and version.
func NewWriter(w io.Writer, format Format) (*Writer, error) {
	buf := bufio.NewWriter(w)
	out := &Writer{format: format, buf: buf}
	switch format {
	case CSV:
		out.csvw = csv.NewWriter(buf)
		if err := out.csvw.Write(Header); err != nil {
			return nil, err
		}
	case JSONLines:
		out.jsonw = json.NewEncoder(buf)
	case Bin:
		var err error
		out.binw, err = newBinWriter(buf)
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("trace: unknown format %d", format)
	}
	return out, nil
}

// Write appends one record.
func (w *Writer) Write(r Record) error {
	if err := r.Validate(); err != nil {
		return err
	}
	var err error
	switch w.format {
	case CSV:
		err = w.csvw.Write([]string{
			strconv.FormatFloat(r.TimeS, 'f', 3, 64),
			r.Service,
			strconv.FormatFloat(r.Bytes, 'f', 0, 64),
			strconv.FormatFloat(r.DurationS, 'f', 3, 64),
			strconv.FormatFloat(r.Throughput, 'f', 3, 64),
		})
	case Bin:
		err = w.binw.add(r)
	default:
		err = w.jsonw.Encode(r)
	}
	if err != nil {
		return err
	}
	w.wrote++
	return nil
}

// Count returns how many records have been written: Write calls that
// returned nil.
func (w *Writer) Count() int { return w.wrote }

// Flush drains buffered output; call it before closing the underlying
// writer. For Bin it finalizes the trace — last block, Summary footer,
// CRC trailer — so no further Write may follow.
func (w *Writer) Flush() error {
	if w.csvw != nil {
		w.csvw.Flush()
		if err := w.csvw.Error(); err != nil {
			return err
		}
	}
	if w.binw != nil {
		if err := w.binw.finish(); err != nil {
			return err
		}
	}
	return w.buf.Flush()
}

// Read parses a whole trace from r, auto-detecting the format from the
// leading bytes ("MTTR" selects the columnar binary format, '{' JSON
// lines, anything else CSV). An MTTR trace read from an io.ReadSeeker
// (a file, a bytes.Reader) decodes into one slice presized from its
// footer; the trace may start at r's current offset.
func Read(r io.Reader) ([]Record, error) {
	br := bufio.NewReader(r)
	first, err := br.Peek(4)
	if err != nil && (len(first) == 0 || !errors.Is(err, io.EOF)) {
		if errors.Is(err, io.EOF) {
			return nil, nil
		}
		return nil, err
	}
	if string(first) == binMagic {
		hint, err := binSessionHint(r, br)
		if err != nil {
			return nil, err
		}
		return readBin(br, hint)
	}
	if first[0] == '{' {
		return readJSON(br)
	}
	return readCSV(br)
}

func readJSON(r io.Reader) ([]Record, error) {
	dec := json.NewDecoder(r)
	var out []Record
	for {
		var rec Record
		if err := dec.Decode(&rec); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return nil, fmt.Errorf("trace: json record %d: %w", len(out)+1, err)
		}
		if err := rec.Validate(); err != nil {
			return nil, fmt.Errorf("trace: json record %d: %w", len(out)+1, err)
		}
		out = append(out, rec)
	}
	return out, nil
}

func readCSV(r io.Reader) ([]Record, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = len(Header)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("trace: csv: %w", err)
	}
	if len(rows) == 0 {
		return nil, nil
	}
	start := 0
	if rows[0][0] == Header[0] {
		start = 1 // skip header
	}
	out := make([]Record, 0, len(rows)-start)
	for i := start; i < len(rows); i++ {
		row := rows[i]
		rec := Record{Service: row[1]}
		fields := []struct {
			idx int
			dst *float64
		}{
			{0, &rec.TimeS}, {2, &rec.Bytes}, {3, &rec.DurationS}, {4, &rec.Throughput},
		}
		for _, f := range fields {
			v, err := strconv.ParseFloat(row[f.idx], 64)
			if err != nil {
				return nil, fmt.Errorf("trace: csv row %d column %d: %w", i+1, f.idx+1, err)
			}
			*f.dst = v
		}
		if err := rec.Validate(); err != nil {
			return nil, fmt.Errorf("trace: csv row %d: %w", i+1, err)
		}
		out = append(out, rec)
	}
	return out, nil
}

// Summary condenses a trace for reporting. The binary format embeds it
// in its footer so consumers read counts and volume quantiles without
// scanning the record blocks (see ReadSummary).
type Summary struct {
	Sessions   int            `json:"sessions"`
	TotalBytes float64        `json:"total_bytes"`
	Services   map[string]int `json:"services"`
	SpanS      float64        `json:"span_s"` // time of last establishment
	// Volume quantiles of the per-session traffic volume (bytes);
	// zero when the trace is empty.
	VolumeP50 float64 `json:"volume_p50"`
	VolumeP90 float64 `json:"volume_p90"`
	VolumeP99 float64 `json:"volume_p99"`
}

// Summarize computes aggregate statistics of a trace.
func Summarize(records []Record) Summary {
	s := Summary{Services: map[string]int{}}
	volumes := make([]float64, 0, len(records))
	for _, r := range records {
		s.Sessions++
		s.TotalBytes += r.Bytes
		s.Services[r.Service]++
		volumes = append(volumes, r.Bytes)
		if r.TimeS > s.SpanS {
			s.SpanS = r.TimeS
		}
	}
	s.fillQuantiles(volumes)
	return s
}

// fillQuantiles sets the volume quantiles from an (unsorted) sample of
// session volumes, which it reorders. Linear-time selection gives the
// same bits as interpolating a sorted copy.
func (s *Summary) fillQuantiles(volumes []float64) {
	if len(volumes) == 0 {
		return
	}
	q := mathx.SelectQuantiles(volumes, []float64{0.50, 0.90, 0.99})
	s.VolumeP50, s.VolumeP90, s.VolumeP99 = q[0], q[1], q[2]
}
