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
	"bytes"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

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
// lines, anything else CSV). A trace read from an io.ReadSeeker (a
// file, a bytes.Reader) decodes into one slice presized from its MTTR
// footer or its line count; the trace may start at r's current offset.
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
	hint, err := lineHint(r, br)
	if err != nil {
		return nil, err
	}
	out := recordChunks{cur: make([]Record, 0, hint)}
	if first[0] == '{' {
		return readJSON(br, out)
	}
	return readCSV(br, out)
}

// minRecordLine is the fewest bytes a text record takes ("0,a,1,1,0").
const minRecordLine = 9

// lineHint returns the number of lines in the text trace that br was
// peeked from, when r — the reader behind br — can seek, or 0 when it
// cannot: a capacity for its records, so that an honest trace lands in
// one slice with no join. The count takes one pass over the bytes and
// leaves r where br stopped reading. Like binSessionHint's, it is
// capped at what the bytes could hold and is never trusted for content.
func lineHint(r io.Reader, br *bufio.Reader) (int, error) {
	rs, ok := r.(io.ReadSeeker)
	if !ok {
		return 0, nil
	}
	pos, err := rs.Seek(0, io.SeekCurrent)
	if err != nil {
		return 0, nil // an unseekable *os.File, such as a pipe
	}
	buf, _ := br.Peek(br.Buffered())
	lines, size := bytes.Count(buf, []byte{'\n'}), len(buf)
	buf = make([]byte, 32<<10)
	for {
		n, err := rs.Read(buf)
		lines += bytes.Count(buf[:n], []byte{'\n'})
		size += n
		if err != nil {
			if !errors.Is(err, io.EOF) {
				lines = 0 // the read proper reports it
			}
			break
		}
	}
	if _, err := rs.Seek(pos, io.SeekStart); err != nil {
		return 0, fmt.Errorf("trace: seek back after counting lines: %w", err)
	}
	return min(lines, size/minRecordLine) + 1, nil
}

// readJSON and readCSV collect their records into out, which may come
// presized.
func readJSON(r io.Reader, out recordChunks) ([]Record, error) {
	dec := json.NewDecoder(r)
	svcs := serviceNames{}
	var rec Record
	for {
		rec = Record{}
		if err := dec.Decode(&rec); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return nil, fmt.Errorf("trace: json record %d: %w", out.n+1, err)
		}
		if err := rec.Validate(); err != nil {
			return nil, fmt.Errorf("trace: json record %d: %w", out.n+1, err)
		}
		rec.Service = svcs.intern(rec.Service)
		out.add(rec)
	}
	return out.records(), nil
}

func readCSV(r io.Reader, out recordChunks) ([]Record, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = len(Header)
	cr.ReuseRecord = true
	svcs := serviceNames{}
	for row := 1; ; row++ {
		fields, err := cr.Read()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("trace: csv: %w", err)
		}
		if row == 1 && fields[0] == Header[0] {
			continue // skip header
		}
		var v [5]float64 // the float columns, by Header index
		for i, f := range fields {
			if i == 1 {
				continue // the service name
			}
			if v[i], err = strconv.ParseFloat(f, 64); err != nil {
				return nil, fmt.Errorf("trace: csv row %d column %d: %w", row, i+1, err)
			}
		}
		rec := Record{TimeS: v[0], Service: svcs.intern(fields[1]), Bytes: v[2], DurationS: v[3], Throughput: v[4]}
		if err := rec.Validate(); err != nil {
			return nil, fmt.Errorf("trace: csv row %d: %w", row, err)
		}
		out.add(rec)
	}
	return out.records(), nil
}

// serviceNames interns the service names of a text trace: every record
// of one service shares one string, instead of each pinning its own
// copy (or, from CSV, its whole row).
type serviceNames map[string]string

func (m serviceNames) intern(s string) string {
	if v, ok := m[s]; ok {
		return v
	}
	s = strings.Clone(s)
	m[s] = s
	return s
}

// recordChunks collects the records of a text trace, whose count is not
// known up front, in chunks that double up to maxRecordChunk records:
// growing never copies a record, and records joins them once into an
// exact-size slice.
type recordChunks struct {
	full [][]Record
	cur  []Record
	n    int
}

const maxRecordChunk = 1 << 13

func (c *recordChunks) add(r Record) {
	if len(c.cur) == cap(c.cur) {
		if len(c.cur) > 0 {
			c.full = append(c.full, c.cur)
		}
		c.cur = make([]Record, 0, min(max(2*cap(c.cur), 64), maxRecordChunk))
	}
	c.cur = append(c.cur, r)
	c.n++
}

func (c *recordChunks) records() []Record {
	if len(c.full) == 0 {
		return c.cur
	}
	out := make([]Record, 0, c.n)
	for _, f := range c.full {
		out = append(out, f...)
	}
	return append(out, c.cur...)
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
