package probe

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"

	"mobiletraffic/internal/netsim"
	"mobiletraffic/internal/obs"
)

// Checkpoint codec: the compact binary serialization of a (partial)
// Collector that a sharded campaign writes after each completed shard
// and reloads on resume. The layout, all little-endian:
//
//	magic "MTCP" | version u16
//	numServices u32 | numBS u32 | days u32 | minutesPerDay u32
//	numVolumeEdges u32 | numDurationEdges u32 | numCells u64
//	volume edges  [numVolumeEdges]f64
//	duration edges [numDurationEdges]f64
//	numCells × { slabIndex u64 | Sessions f64
//	             | MinuteCounts [minutesPerDay]f64
//	             | Volume.P    [numVolumeEdges-1]f64
//	             | DurVolSum   [numDurationEdges-1]f64
//	             | DurCount    [numDurationEdges-1]f64 }
//	crc32c u32   (Castagnoli, over every preceding byte)
//
// Only populated cells are written, in ascending slab order, so the
// encoding of a collector is deterministic and a sparse shard stays
// small. Floats are stored as raw IEEE-754 bits, so a decoded
// collector is bit-identical to the encoded one — the property the
// resume-determinism argument stands on (DESIGN.md). Minute counts are
// int32 in memory and f64 on the wire: every int32 is exact in a
// float64, and the decoder accepts a count only if it converts back to
// the same int32, so the round trip is exact both ways.
//
// The decoder accepts only cells a collector can build: finite,
// non-negative payloads whose minute counts, volume histogram and
// duration counts each sum to the cell's session total.
const (
	checkpointMagic   = "MTCP"
	CheckpointVersion = 1
)

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

// WriteCheckpoint encodes the collector in the checkpoint format.
func (c *Collector) WriteCheckpoint(w io.Writer) error {
	span := obs.StartSpan("checkpoint/write")
	defer span.End()
	cw := &crcWriter{w: w}
	var scratch [8]byte
	putU16 := func(v uint16) error {
		binary.LittleEndian.PutUint16(scratch[:2], v)
		_, err := cw.Write(scratch[:2])
		return err
	}
	putU32 := func(v uint32) error {
		binary.LittleEndian.PutUint32(scratch[:4], v)
		_, err := cw.Write(scratch[:4])
		return err
	}
	putU64 := func(v uint64) error {
		binary.LittleEndian.PutUint64(scratch[:8], v)
		_, err := cw.Write(scratch[:8])
		return err
	}
	// Reusable encode buffer sized for the largest float64 run.
	maxRun := netsim.MinutesPerDay
	if n := len(c.VolumeEdges); n > maxRun {
		maxRun = n
	}
	if n := len(c.DurationEdges); n > maxRun {
		maxRun = n
	}
	buf := make([]byte, maxRun*8)
	putF64s := func(vs []float64) error {
		b := buf[:len(vs)*8]
		for i, v := range vs {
			binary.LittleEndian.PutUint64(b[i*8:], math.Float64bits(v))
		}
		_, err := cw.Write(b)
		return err
	}
	putCounts := func(vs []int32) error {
		b := buf[:len(vs)*8]
		for i, v := range vs {
			binary.LittleEndian.PutUint64(b[i*8:], math.Float64bits(float64(v)))
		}
		_, err := cw.Write(b)
		return err
	}

	if _, err := cw.Write([]byte(checkpointMagic)); err != nil {
		return err
	}
	if err := putU16(CheckpointVersion); err != nil {
		return err
	}
	for _, v := range []uint32{
		uint32(c.NumServices), uint32(c.numBS), uint32(c.days),
		netsim.MinutesPerDay, uint32(len(c.VolumeEdges)), uint32(len(c.DurationEdges)),
	} {
		if err := putU32(v); err != nil {
			return err
		}
	}
	var nCells uint64
	for _, st := range c.cells {
		if st != nil {
			nCells++
		}
	}
	if err := putU64(nCells); err != nil {
		return err
	}
	if err := putF64s(c.VolumeEdges); err != nil {
		return err
	}
	if err := putF64s(c.DurationEdges); err != nil {
		return err
	}
	for i, st := range c.cells {
		if st == nil {
			continue
		}
		if err := putU64(uint64(i)); err != nil {
			return err
		}
		if err := putF64s([]float64{st.Sessions}); err != nil {
			return err
		}
		if err := putCounts(st.MinuteCounts); err != nil {
			return err
		}
		for _, run := range [][]float64{st.Volume.P, st.DurVolSum, st.DurCount} {
			if err := putF64s(run); err != nil {
				return err
			}
		}
	}
	obs.CounterOf("campaign_checkpoint_cells_total").Add(int64(nCells))
	crc := cw.crc
	binary.LittleEndian.PutUint32(scratch[:4], crc)
	_, err := w.Write(scratch[:4]) // trailer is outside its own CRC
	return err
}

// ReadCheckpoint decodes a checkpoint into a fresh Collector. It
// validates the magic, version, dimensions, every cell's payload (see
// checkCell) and the trailing CRC, and returns an error — never panics
// — on truncated, bit-flipped or otherwise malformed input.
func ReadCheckpoint(r io.Reader) (*Collector, error) {
	span := obs.StartSpan("checkpoint/read")
	defer span.End()
	br := bufio.NewReaderSize(r, 1<<16)
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
	var buf []byte
	// getRun reads a run of n f64 values into the reused buffer.
	getRun := func(n int) ([]byte, error) {
		need := n * 8
		if cap(buf) < need {
			buf = make([]byte, need)
		}
		b := buf[:need]
		_, err := io.ReadFull(cr, b)
		return b, err
	}
	getF64s := func(dst []float64) error {
		b, err := getRun(len(dst))
		if err != nil {
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
	slab := uint64(numServices) * uint64(numBS) * uint64(days)
	if slab > MaxCheckpointCells {
		return nil, fmt.Errorf("probe: checkpoint slab %d cells exceeds cap %d", slab, MaxCheckpointCells)
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
	var one [1]float64
	prev := int64(-1)
	for n := uint64(0); n < nCells; n++ {
		idx, err := getU64()
		if err != nil {
			return nil, fmt.Errorf("probe: checkpoint cell %d index: %w", n, err)
		}
		if idx >= slab || int64(idx) <= prev {
			return nil, fmt.Errorf("probe: checkpoint cell index %d out of order or range", idx)
		}
		prev = int64(idx)
		st := c.newCell()
		c.cells[idx] = st
		if err := getF64s(one[:]); err != nil {
			return nil, fmt.Errorf("probe: checkpoint cell %d: %w", n, err)
		}
		st.Sessions = one[0]
		b, err := getRun(len(st.MinuteCounts))
		if err != nil {
			return nil, fmt.Errorf("probe: checkpoint cell %d payload: %w", n, err)
		}
		minutes, err := decodeCounts(st.MinuteCounts, b)
		if err != nil {
			return nil, fmt.Errorf("probe: checkpoint cell %d: %w", n, err)
		}
		for _, run := range [][]float64{st.Volume.P, st.DurVolSum, st.DurCount} {
			if err := getF64s(run); err != nil {
				return nil, fmt.Errorf("probe: checkpoint cell %d payload: %w", n, err)
			}
		}
		if err := checkCell(st, minutes); err != nil {
			return nil, fmt.Errorf("probe: checkpoint cell %d: %w", n, err)
		}
	}
	want := cr.crc
	// The trailer is read from the underlying reader so it does not
	// fold into its own checksum.
	if _, err := io.ReadFull(br, scratch[:4]); err != nil {
		return nil, fmt.Errorf("probe: checkpoint trailer: %w", err)
	}
	if got := binary.LittleEndian.Uint32(scratch[:4]); got != want {
		return nil, fmt.Errorf("probe: checkpoint CRC mismatch (stored %08x, computed %08x)", got, want)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("probe: trailing bytes after checkpoint")
	}
	return c, nil
}

// decodeCounts decodes a run of f64 minute counts from b into dst and
// returns their sum. It accepts a value only if it is an int32 that
// converts back to the same bits: this rejects fractions, negatives,
// -0, NaN, infinities and values above MaxInt32, and keeps re-encoding
// byte-exact. (A value outside the int32 range converts to some int32
// that cannot convert back to it.) The loop folds every mismatch into
// one flag and locates the offending value only on failure, so valid
// input runs without a branch per value.
func decodeCounts(dst []int32, b []byte) (sum int64, err error) {
	b = b[:len(dst)*8]
	var diff uint64
	var sign int32
	for i := range dst {
		bits := binary.LittleEndian.Uint64(b[i*8:])
		n := int32(math.Float64frombits(bits))
		diff |= bits ^ math.Float64bits(float64(n))
		sign |= n
		sum += int64(n)
		dst[i] = n
	}
	if diff == 0 && sign >= 0 {
		return sum, nil
	}
	for i, n := range dst {
		bits := binary.LittleEndian.Uint64(b[i*8:])
		if n < 0 || bits != math.Float64bits(float64(n)) {
			return 0, fmt.Errorf("minute %d count %v is not a non-negative int32", i, math.Float64frombits(bits))
		}
	}
	return 0, fmt.Errorf("minute counts are not non-negative int32s")
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

// finiteNonNeg reports whether v is a finite value >= 0.
func finiteNonNeg(v float64) bool { return v >= 0 && v <= math.MaxFloat64 }

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
	bw := bufio.NewWriterSize(tmp, 1<<20)
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
