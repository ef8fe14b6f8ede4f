package probe

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"slices"

	"mobiletraffic/internal/netsim"
	"mobiletraffic/internal/obs"
)

// Checkpoint codec: the compact binary serialization of a (partial)
// Collector that a sharded campaign writes after each completed shard
// and reloads on resume. The layout:
//
//	magic "MTCP" | version u16
//	numServices u32 | numBS u32 | days u32 | minutesPerDay u32
//	numVolumeEdges u32 | numDurationEdges u32 | numCells u64
//	volume edges  [numVolumeEdges]f64
//	duration edges [numDurationEdges]f64
//	numCells × { slabIndex uv | Sessions uv
//	             | MinuteCounts [minutesPerDay]uv
//	             | Volume.P     [numVolumeEdges-1]uv
//	             | DurCount     [numDurationEdges-1]uv
//	             | DurVolSum    [numDurationEdges-1]f64 }
//	crc32c u32   (Castagnoli, over every preceding byte)
//
// Fixed-width fields are little-endian; uv is an unsigned LEB128
// varint (encoding/binary's Uvarint) in its minimal form.
//
// Only populated cells are written, in ascending slab order, so the
// encoding of a collector is deterministic and a sparse shard stays
// small. Every count a cell holds is a whole number, mostly 0 or 1, so
// it travels as a varint of one byte or a few; the duration-volume
// sums are real-valued and travel as raw IEEE-754 bits. A float count
// below 2^53 converts to its varint and back exactly, and the encoder
// refuses any other count (no collector builds one), so a decoded
// collector is bit-identical to the encoded one — the property the
// resume-determinism argument stands on (DESIGN.md).
//
// The decoder accepts only cells a collector can build: minute counts
// up to MaxInt32, other counts below 2^53, finite non-negative
// duration-volume sums, and minute counts, volume histogram and
// duration counts that each sum to the cell's session total. It also
// refuses non-minimal varints, so every file it accepts re-encodes to
// the same bytes. Version 1 files (every value a raw f64) are refused
// as an unsupported version.
const (
	checkpointMagic   = "MTCP"
	CheckpointVersion = 2
)

// Bounds of the varint fields. A minute count is an int32 in memory
// and at most MaxInt32 on the wire (5 varint bytes); every other count
// is a float64 holding a whole number below 2^53 (8 varint bytes).
const (
	maxCheckpointCount = 1<<53 - 1
	maxMinuteLen       = 5
	maxCountLen        = 8
)

// maxCellBytes bounds one encoded cell on grids of nv volume bins and
// nd duration bins: the decoder's read window.
func maxCellBytes(nv, nd int) int {
	return binary.MaxVarintLen64 + maxCountLen + netsim.MinutesPerDay*maxMinuteLen +
		(nv+nd)*maxCountLen + nd*8
}

// checkpointBufSize is the I/O buffer of the checkpoint writer and
// reader: a v2 shard file of the default grids is a few hundred KB.
const checkpointBufSize = 1 << 16

// MaxCheckpointCells caps the (services × BS × days) slab size a
// decoder will allocate, guarding ReadCheckpoint against corrupt or
// hostile headers that declare absurd dimensions. Operators running
// genuinely nationwide campaigns (the paper's 282k BS × 45 days) may
// raise it before decoding.
var MaxCheckpointCells = uint64(1) << 27

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Extent returns the collector's current (numBS, days) slab extent.
func (c *Collector) Extent() (numBS, days int) { return c.numBS, c.days }

// crcWriter accumulates a CRC-32C over everything written through it.
type crcWriter struct {
	w   io.Writer
	crc uint32
}

func (cw *crcWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.crc = crc32.Update(cw.crc, crcTable, p[:n])
	return n, err
}

// crcReader accumulates a CRC-32C over everything read through it.
type crcReader struct {
	r   io.Reader
	crc uint32
}

func (cr *crcReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.crc = crc32.Update(cr.crc, crcTable, p[:n])
	return n, err
}

// WriteCheckpoint encodes the collector in the checkpoint format. It
// fails, having written part of the encoding, on a cell count the
// format cannot carry exactly (see appendCell).
func (c *Collector) WriteCheckpoint(w io.Writer) error {
	span := obs.StartSpan("checkpoint/write")
	defer span.End()
	cw := &crcWriter{w: w}
	var nCells uint64
	for _, st := range c.cells {
		if st != nil {
			nCells++
		}
	}
	nv, nd := len(c.VolumeEdges)-1, len(c.DurationEdges)-1
	buf := make([]byte, 0, maxCellBytes(nv, nd))
	buf = append(buf, checkpointMagic...)
	buf = binary.LittleEndian.AppendUint16(buf, CheckpointVersion)
	for _, v := range []uint32{
		uint32(c.NumServices), uint32(c.numBS), uint32(c.days),
		netsim.MinutesPerDay, uint32(len(c.VolumeEdges)), uint32(len(c.DurationEdges)),
	} {
		buf = binary.LittleEndian.AppendUint32(buf, v)
	}
	buf = binary.LittleEndian.AppendUint64(buf, nCells)
	for _, edges := range [][]float64{c.VolumeEdges, c.DurationEdges} {
		for _, e := range edges {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e))
		}
	}
	if _, err := cw.Write(buf); err != nil {
		return err
	}
	for i, st := range c.cells {
		if st == nil {
			continue
		}
		var err error
		if buf, err = appendCell(buf[:0], uint64(i), st); err != nil {
			return fmt.Errorf("probe: checkpoint cell %d: %w", i, err)
		}
		if _, err := cw.Write(buf); err != nil {
			return err
		}
	}
	obs.CounterOf("campaign_checkpoint_cells_total").Add(int64(nCells))
	var trailer [4]byte
	binary.LittleEndian.PutUint32(trailer[:], cw.crc)
	_, err := w.Write(trailer[:]) // trailer is outside its own CRC
	return err
}

// appendCell appends the encoding of the cell at slab index idx to buf.
// It fails on a count the varint form cannot carry exactly: a negative
// minute count, or a session total, volume bin or duration count that
// is not a whole number in [0, 2^53).
func appendCell(buf []byte, idx uint64, st *DayStats) ([]byte, error) {
	buf = binary.AppendUvarint(buf, idx)
	var err error
	if buf, err = appendCount(buf, st.Sessions); err != nil {
		return nil, fmt.Errorf("session total: %w", err)
	}
	var sign int32
	for _, n := range st.MinuteCounts {
		sign |= n
		if n < 0x80 {
			buf = append(buf, byte(n))
		} else {
			buf = binary.AppendUvarint(buf, uint64(n))
		}
	}
	if sign < 0 {
		m := slices.IndexFunc(st.MinuteCounts, func(n int32) bool { return n < 0 })
		return nil, fmt.Errorf("minute %d count %d is negative", m, st.MinuteCounts[m])
	}
	for _, run := range []struct {
		name string
		vs   []float64
	}{{"volume bin", st.Volume.P}, {"duration count", st.DurCount}} {
		for i, v := range run.vs {
			if buf, err = appendCount(buf, v); err != nil {
				return nil, fmt.Errorf("%s %d: %w", run.name, i, err)
			}
		}
	}
	for _, v := range st.DurVolSum {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return buf, nil
}

// appendCount appends a float count as a varint. The count must be a
// whole number in [0, 2^53) — the values that convert to uint64 and
// back to the same bits, which rules out fractions, negatives, -0,
// NaN, infinities and counts too large for a float64 to hold exactly.
func appendCount(buf []byte, v float64) ([]byte, error) {
	u := uint64(v)
	if !(v < 1<<53) || math.Float64bits(float64(u)) != math.Float64bits(v) {
		return nil, fmt.Errorf("count %v is not a whole number in [0, 2^53)", v)
	}
	if u < 0x80 {
		return append(buf, byte(u)), nil
	}
	return binary.AppendUvarint(buf, u), nil
}

// ReadCheckpoint decodes a checkpoint into a fresh Collector. It
// validates the magic, version, dimensions, every cell's payload (see
// readCell) and the trailing CRC, and returns an error — never panics
// — on truncated, bit-flipped or otherwise malformed input. Cells are
// decoded from a buffered window no larger than one cell's bound, so
// the input is never held in memory whole.
func ReadCheckpoint(r io.Reader) (*Collector, error) {
	span := obs.StartSpan("checkpoint/read")
	defer span.End()
	br := bufio.NewReaderSize(r, checkpointBufSize)
	cr := &crcReader{r: br}
	var scratch [8]byte
	getU16 := func() (uint16, error) {
		if _, err := io.ReadFull(cr, scratch[:2]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint16(scratch[:2]), nil
	}
	getU32 := func() (uint32, error) {
		if _, err := io.ReadFull(cr, scratch[:4]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint32(scratch[:4]), nil
	}
	getU64 := func() (uint64, error) {
		if _, err := io.ReadFull(cr, scratch[:8]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(scratch[:8]), nil
	}
	getF64s := func(dst []float64) error {
		b := make([]byte, 8*len(dst))
		if _, err := io.ReadFull(cr, b); err != nil {
			return err
		}
		for i := range dst {
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
		}
		return nil
	}

	if _, err := io.ReadFull(cr, scratch[:4]); err != nil {
		return nil, fmt.Errorf("probe: checkpoint header: %w", err)
	}
	if string(scratch[:4]) != checkpointMagic {
		return nil, fmt.Errorf("probe: not a checkpoint (magic %q)", scratch[:4])
	}
	version, err := getU16()
	if err != nil {
		return nil, fmt.Errorf("probe: checkpoint version: %w", err)
	}
	if version != CheckpointVersion {
		return nil, fmt.Errorf("probe: unsupported checkpoint version %d (have %d)", version, CheckpointVersion)
	}
	var dims [6]uint32
	for i := range dims {
		if dims[i], err = getU32(); err != nil {
			return nil, fmt.Errorf("probe: checkpoint dims: %w", err)
		}
	}
	numServices, numBS, days := dims[0], dims[1], dims[2]
	minutes, nVolEdges, nDurEdges := dims[3], dims[4], dims[5]
	if numServices == 0 || numServices > 1<<20 {
		return nil, fmt.Errorf("probe: checkpoint declares %d services", numServices)
	}
	if minutes != netsim.MinutesPerDay {
		return nil, fmt.Errorf("probe: checkpoint minute grid %d != %d", minutes, netsim.MinutesPerDay)
	}
	if nVolEdges < 2 || nVolEdges > 1<<20 || nDurEdges < 2 || nDurEdges > 1<<20 {
		return nil, fmt.Errorf("probe: checkpoint edge counts %d/%d out of range", nVolEdges, nDurEdges)
	}
	// services × BS stays below 2^52; the product with days may not
	// fit in 64 bits, and a wrapped slab must not pass the cap.
	hi, slab := bits.Mul64(uint64(numServices)*uint64(numBS), uint64(days))
	if hi != 0 || slab > MaxCheckpointCells {
		return nil, fmt.Errorf("probe: checkpoint slab %d×%d×%d cells exceeds cap %d", numServices, numBS, days, MaxCheckpointCells)
	}
	nCells, err := getU64()
	if err != nil {
		return nil, fmt.Errorf("probe: checkpoint cell count: %w", err)
	}
	if nCells > slab {
		return nil, fmt.Errorf("probe: checkpoint declares %d cells in a %d-cell slab", nCells, slab)
	}
	volEdges := make([]float64, nVolEdges)
	durEdges := make([]float64, nDurEdges)
	if err := getF64s(volEdges); err != nil {
		return nil, fmt.Errorf("probe: checkpoint volume edges: %w", err)
	}
	if err := getF64s(durEdges); err != nil {
		return nil, fmt.Errorf("probe: checkpoint duration edges: %w", err)
	}
	c, err := NewCollectorGrids(int(numServices), int(numBS), int(days), volEdges, durEdges)
	if err != nil {
		return nil, fmt.Errorf("probe: checkpoint grids: %w", err)
	}

	// Each cell is parsed straight out of the reader's buffer: peek the
	// largest cell the grids allow, decode, then checksum and discard
	// the bytes the cell used.
	window := maxCellBytes(int(nVolEdges)-1, int(nDurEdges)-1)
	if window > br.Size() {
		br = bufio.NewReaderSize(br, window)
	}
	crc := cr.crc
	prev := int64(-1)
	for n := uint64(0); n < nCells; n++ {
		b, err := br.Peek(window)
		if err != nil && !errors.Is(err, io.EOF) {
			return nil, fmt.Errorf("probe: checkpoint cell %d: %w", n, err)
		}
		cell := cellReader{b: b}
		idx, err := cell.uvarint(math.MaxUint64)
		if err != nil {
			return nil, fmt.Errorf("probe: checkpoint cell %d index: %w", n, err)
		}
		if idx >= slab || int64(idx) <= prev {
			return nil, fmt.Errorf("probe: checkpoint cell index %d out of order or range", idx)
		}
		prev = int64(idx)
		st := c.newCell()
		c.cells[idx] = st
		if err := cell.readCell(st); err != nil {
			return nil, fmt.Errorf("probe: checkpoint cell %d: %w", n, err)
		}
		crc = crc32.Update(crc, crcTable, b[:cell.pos])
		br.Discard(cell.pos) // cannot fail: the bytes are buffered
	}
	// The trailer does not fold into its own checksum.
	if _, err := io.ReadFull(br, scratch[:4]); err != nil {
		return nil, fmt.Errorf("probe: checkpoint trailer: %w", err)
	}
	if got := binary.LittleEndian.Uint32(scratch[:4]); got != crc {
		return nil, fmt.Errorf("probe: checkpoint CRC mismatch (stored %08x, computed %08x)", got, crc)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("probe: trailing bytes after checkpoint")
	}
	return c, nil
}

// cellReader decodes one cell from the front of a peeked window; pos
// counts the bytes consumed. Running off the end of the window means
// the input ended mid-cell (or the cell is longer than any valid one).
type cellReader struct {
	b   []byte
	pos int
}

// uvarint decodes a minimal varint no larger than max. The cell loops
// take one-byte values, nearly every count, inline and call this for
// the rest.
func (r *cellReader) uvarint(max uint64) (uint64, error) {
	v, n := binary.Uvarint(r.b[r.pos:])
	switch {
	case n == 0:
		return 0, fmt.Errorf("truncated varint: %w", io.ErrUnexpectedEOF)
	case n < 0:
		return 0, errors.New("varint overflows 64 bits")
	case n > 1 && r.b[r.pos+n-1] == 0:
		// A multi-byte varint ending in a zero byte has a shorter form.
		return 0, errors.New("overlong varint")
	case v > max:
		return 0, fmt.Errorf("varint %d exceeds %d", v, max)
	}
	r.pos += n
	return v, nil
}

// readCell decodes the payload that follows a cell's slab index into
// st and checks it (see checkCell).
func (r *cellReader) readCell(st *DayStats) error {
	sessions, err := r.uvarint(maxCheckpointCount)
	if err != nil {
		return fmt.Errorf("session total: %w", err)
	}
	st.Sessions = float64(sessions)
	var minutes int64
	for m := range st.MinuteCounts {
		if p := r.pos; p < len(r.b) && r.b[p] < 0x80 {
			st.MinuteCounts[m] = int32(r.b[p])
			minutes += int64(r.b[p])
			r.pos = p + 1
			continue
		}
		v, err := r.uvarint(math.MaxInt32)
		if err != nil {
			return fmt.Errorf("minute %d count: %w", m, err)
		}
		st.MinuteCounts[m] = int32(v)
		minutes += int64(v)
	}
	for _, run := range []struct {
		name string
		vs   []float64
	}{{"volume bin", st.Volume.P}, {"duration count", st.DurCount}} {
		for i := range run.vs {
			if p := r.pos; p < len(r.b) && r.b[p] < 0x80 {
				run.vs[i] = float64(r.b[p])
				r.pos = p + 1
				continue
			}
			v, err := r.uvarint(maxCheckpointCount)
			if err != nil {
				return fmt.Errorf("%s %d: %w", run.name, i, err)
			}
			run.vs[i] = float64(v)
		}
	}
	sums := st.DurVolSum
	if len(r.b)-r.pos < 8*len(sums) {
		return fmt.Errorf("duration-volume sums: %w", io.ErrUnexpectedEOF)
	}
	for i := range sums {
		sums[i] = math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.pos+8*i:]))
	}
	r.pos += 8 * len(sums)
	return checkCell(st, minutes)
}

// checkCell rejects a decoded cell that no collector could have built:
// a non-finite or negative session total, volume bin, duration-volume
// sum or duration count, or a session total that its minute counts
// (summing to minutes), volume histogram or duration counts do not sum
// to. Every float sum runs in index order over integer-valued floats,
// which a collector accumulates exactly.
func checkCell(st *DayStats, minutes int64) error {
	if !finiteNonNeg(st.Sessions) {
		return fmt.Errorf("session total %v is not finite and non-negative", st.Sessions)
	}
	if float64(minutes) != st.Sessions {
		return fmt.Errorf("minute counts sum to %d, session total is %v", minutes, st.Sessions)
	}
	for _, run := range []struct {
		name string
		vs   []float64
		sums bool // the run must sum to the session total
	}{
		{"volume bin", st.Volume.P, true},
		{"duration-volume sum", st.DurVolSum, false},
		{"duration count", st.DurCount, true},
	} {
		var sum float64
		for i, v := range run.vs {
			if !finiteNonNeg(v) {
				return fmt.Errorf("%s %d is %v, not finite and non-negative", run.name, i, v)
			}
			sum += v
		}
		if run.sums && sum != st.Sessions {
			return fmt.Errorf("%ss sum to %v, session total is %v", run.name, sum, st.Sessions)
		}
	}
	return nil
}

// finiteNonNeg reports whether v is a finite value >= 0 other than -0,
// which no collector accumulates (every run starts at +0 and only adds
// non-negative values).
func finiteNonNeg(v float64) bool { return !math.Signbit(v) && v <= math.MaxFloat64 }

// WriteCheckpointFile writes the checkpoint crash-safely: the encoding
// goes to a temporary file in the destination directory, is fsynced,
// and only then renamed over path, so a crash mid-write can never
// leave a torn checkpoint under the final name. The directory is
// fsynced after the rename so the new name itself survives a crash.
func (c *Collector) WriteCheckpointFile(path string) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("probe: checkpoint temp: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	bw := bufio.NewWriterSize(tmp, checkpointBufSize)
	if err := c.WriteCheckpoint(bw); err != nil {
		tmp.Close()
		return fmt.Errorf("probe: checkpoint encode: %w", err)
	}
	if err := bw.Flush(); err != nil {
		tmp.Close()
		return fmt.Errorf("probe: checkpoint flush: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("probe: checkpoint fsync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("probe: checkpoint close: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("probe: checkpoint rename: %w", err)
	}
	syncDir(dir)
	obs.CounterOf("campaign_checkpoint_writes_total").Inc()
	return nil
}

// ReadCheckpointFile decodes a checkpoint file written by
// WriteCheckpointFile.
func ReadCheckpointFile(path string) (*Collector, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("probe: checkpoint open: %w", err)
	}
	defer f.Close()
	c, err := ReadCheckpoint(f)
	if err != nil {
		return nil, fmt.Errorf("probe: checkpoint %s: %w", filepath.Base(path), err)
	}
	obs.CounterOf("campaign_checkpoint_loads_total").Inc()
	return c, nil
}

// syncDir fsyncs a directory so a just-renamed entry is durable.
// Best-effort: some platforms (and some filesystems) reject directory
// fsync, and the rename itself is already atomic.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}
