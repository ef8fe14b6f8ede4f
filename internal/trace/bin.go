package trace

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
)

// MTTR: the columnar binary trace format. CSV and JSON lines carry a
// nationwide session stream at ~40-80 bytes per record, all of it
// re-parsed float formatting; MTTR stores the same records
// column-contiguous with per-column encodings picked at write time, a
// string table for the service names and a footer that makes the file
// self-describing. The layout, all little-endian:
//
//	magic "MTTR" | version u16
//	sections, each introduced by a one-byte tag:
//	  0x01 dict   svcIndex u32 | nameLen u16 | name bytes
//	              (emitted before the first block referencing the service;
//	               indices are dense and strictly sequential)
//	  0x02 block  n u32 | five columns in order:
//	              TimeS, Service, Bytes, DurationS, Throughput
//	              column: enc u8 | payloadLen u32 | payload
//	  0x03 footer sumLen u32 | Summary JSON
//	trailer: footerOffset u64 | crc32c u32
//	         (Castagnoli, over every preceding byte including the offset)
//
// Column encodings. The writer picks, per column per block, the
// cheapest form that reproduces every value bit-exactly — equality is
// always checked on the raw IEEE-754 bit pattern, so NaNs, negative
// zero and full-precision doubles all take the raw fallback and
// round-trip unchanged:
//
//	0x00 raw      n x f64 bits (service column: n x u32)
//	0x01 varint   service column: n x uvarint index
//	0x02 decimal  n x uvarint(m<<2|k): v = m/10^k, k in 0..3.
//	              Measurement exports are decimal-quantized (the CSV
//	              surface prints %.3f/%.0f), so m is small.
//	0x03 delta    k u8 | uvarint(m0) | (n-1) x zigzag uvarint(m_i-m_{i-1})
//	              (common scale; session establishment times are nearly
//	               sorted, so deltas are tiny)
//	0x04 derived  empty: Throughput_i = Bytes_i / DurationS_i.
//	              The generator computes mean throughput exactly this
//	              way, so the whole column costs zero bytes.
//	0x05 predict  k u8 | n x zigzag uvarint(m_i - pred_i) with
//	              pred_i = round(Bytes_i/DurationS_i * 10^k); the
//	              residual of a quantized throughput against the
//	              quantized volume/duration is a handful of units
//
// The footer carries trace.Summary — session count, total volume,
// per-service counts, time span, volume quantiles — so a consumer can
// answer "what is in this file" by seeking to the trailer
// (ReadSummary) without scanning a single block. The CRC trailer
// follows the MTCP checkpoint codec: a truncated, bit-flipped or torn
// file is an error, never a silently short trace.
const (
	binMagic   = "MTTR"
	BinVersion = 1

	tagDict   = 0x01
	tagBlock  = 0x02
	tagFooter = 0x03

	encRaw     = 0x00
	encVarint  = 0x01
	encDecimal = 0x02
	encDelta   = 0x03
	encDerived = 0x04
	encPredict = 0x05

	// binBlockRecords is the writer's records-per-block batch size:
	// large enough that column contiguity pays, small enough that a
	// streaming consumer sees output early.
	binBlockRecords = 4096
)

// MaxBinBlockRecords caps the per-block record count a reader will
// allocate, guarding against corrupt or hostile headers.
var MaxBinBlockRecords = uint32(1) << 20

// MaxBinDictEntries caps the service string table a reader will hold.
var MaxBinDictEntries = uint32(1) << 16

var binCRCTable = crc32.MakeTable(crc32.Castagnoli)

// binPow10 holds the decimal scales of the decimal/delta/predict
// encodings; all four are exactly representable, and float64 division
// by them is correctly rounded, so writer and reader reconstruct the
// same bit pattern.
var binPow10 = [4]float64{1, 10, 100, 1000}

// decimalParts finds the smallest scale k such that v is exactly m/10^k
// for a non-negative integer m below 2^53 — "exactly" meaning the
// division reproduces v's bit pattern, which rules out NaN, negatives
// (including -0) and full-precision mantissas.
func decimalParts(v float64) (m int64, k int, ok bool) {
	if !(v >= 0) {
		return 0, 0, false
	}
	bits := math.Float64bits(v)
	for k = 0; k < len(binPow10); k++ {
		scaled := v * binPow10[k]
		if scaled >= 1<<53 {
			return 0, 0, false
		}
		m = int64(math.Round(scaled))
		if math.Float64bits(float64(m)/binPow10[k]) == bits {
			return m, k, true
		}
	}
	return 0, 0, false
}

// scaledInt is decimalParts at a fixed scale.
func scaledInt(v float64, k int) (int64, bool) {
	if !(v >= 0) {
		return 0, false
	}
	scaled := v * binPow10[k]
	if scaled >= 1<<53 {
		return 0, false
	}
	m := int64(math.Round(scaled))
	if math.Float64bits(float64(m)/binPow10[k]) != math.Float64bits(v) {
		return 0, false
	}
	return m, true
}

// predDecimal is the shared writer/reader predictor of the throughput
// column: the decimal-scaled throughput implied by the volume and
// duration columns. Both sides compute it from bit-identical decoded
// inputs, so the residuals cancel exactly; out-of-range predictions
// (division by a denormal, absurd volumes) deterministically collapse
// to zero on both sides rather than overflowing int64.
func predDecimal(vol, dur float64, k int) int64 {
	p := vol / dur * binPow10[k]
	if !(math.Abs(p) < 1<<52) {
		return 0
	}
	return int64(math.Round(p))
}

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// binCountingWriter accumulates a CRC-32C and a byte offset over
// everything written through it. Its first write error is sticky, as
// in bufio.Writer: every later write returns it, so a trace whose
// output failed can never look whole.
type binCountingWriter struct {
	w   io.Writer
	crc uint32
	off uint64
	err error
}

func (cw *binCountingWriter) Write(p []byte) (int, error) {
	if cw.err != nil {
		return 0, cw.err
	}
	n, err := cw.w.Write(p)
	cw.crc = crc32.Update(cw.crc, binCRCTable, p[:n])
	cw.off += uint64(n)
	cw.err = err
	return n, err
}

// binWriter is the streaming MTTR block writer behind Writer.
type binWriter struct {
	cw      *binCountingWriter
	scratch []byte
	colbuf  []byte
	dict    map[string]uint32

	// Pending block columns.
	times, volumes, durs, thrs []float64
	svcs                       []uint32

	// Footer accumulators; svcCount is indexed like dict, and finish
	// turns it into sum.Services. volChunks holds the volume column of
	// every flushed block, handed over whole instead of copied per
	// record into a regrowing sample.
	sum       Summary
	svcCount  []int
	volChunks [][]float64

	finished bool
}

func newBinWriter(w io.Writer) (*binWriter, error) {
	bw := &binWriter{
		cw:      &binCountingWriter{w: w},
		scratch: make([]byte, 16),
		dict:    make(map[string]uint32),
	}
	if _, err := bw.cw.Write([]byte(binMagic)); err != nil {
		return nil, err
	}
	binary.LittleEndian.PutUint16(bw.scratch[:2], BinVersion)
	if _, err := bw.cw.Write(bw.scratch[:2]); err != nil {
		return nil, err
	}
	return bw, nil
}

// svcIndex interns the service name, emitting a dict section on first
// sight.
func (bw *binWriter) svcIndex(name string) (uint32, error) {
	if idx, ok := bw.dict[name]; ok {
		return idx, nil
	}
	if uint32(len(bw.dict)) >= MaxBinDictEntries {
		return 0, fmt.Errorf("trace: bin: more than %d distinct services", MaxBinDictEntries)
	}
	if len(name) > math.MaxUint16 {
		return 0, fmt.Errorf("trace: bin: service name %d bytes long", len(name))
	}
	idx := uint32(len(bw.dict))
	b := bw.scratch[:7]
	b[0] = tagDict
	binary.LittleEndian.PutUint32(b[1:5], idx)
	binary.LittleEndian.PutUint16(b[5:7], uint16(len(name)))
	if _, err := bw.cw.Write(b); err != nil {
		return 0, err
	}
	if _, err := io.WriteString(bw.cw, name); err != nil {
		return 0, err
	}
	bw.dict[name] = idx
	bw.svcCount = append(bw.svcCount, 0)
	return idx, nil
}

// add queues one (already validated) record, flushing a full block.
// After a failed write it queues nothing and returns that error.
func (bw *binWriter) add(r Record) error {
	if bw.cw.err != nil {
		return bw.cw.err
	}
	if bw.finished {
		return fmt.Errorf("trace: bin: write after Flush finalized the trace")
	}
	idx, err := bw.svcIndex(r.Service)
	if err != nil {
		return err
	}
	bw.times = append(bw.times, r.TimeS)
	bw.svcs = append(bw.svcs, idx)
	bw.volumes = append(bw.volumes, r.Bytes)
	bw.durs = append(bw.durs, r.DurationS)
	bw.thrs = append(bw.thrs, r.Throughput)

	bw.sum.Sessions++
	bw.sum.TotalBytes += r.Bytes
	bw.svcCount[idx]++
	if r.TimeS > bw.sum.SpanS {
		bw.sum.SpanS = r.TimeS
	}

	if len(bw.times) == binBlockRecords {
		return bw.flushBlock()
	}
	return nil
}

// writeColumn frames one encoded column: enc byte, payload length,
// payload.
func (bw *binWriter) writeColumn(enc byte, payload []byte) error {
	h := bw.scratch[:5]
	h[0] = enc
	binary.LittleEndian.PutUint32(h[1:5], uint32(len(payload)))
	if _, err := bw.cw.Write(h); err != nil {
		return err
	}
	_, err := bw.cw.Write(payload)
	return err
}

// encodeRawF64 appends the column as raw IEEE-754 bit patterns.
func encodeRawF64(vs []float64, buf []byte) []byte {
	for _, v := range vs {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return buf
}

// encodeDecimal appends the per-value scaled-decimal form, failing if
// any value is not decimal-exact.
func encodeDecimal(vs []float64, buf []byte) ([]byte, bool) {
	for _, v := range vs {
		m, k, ok := decimalParts(v)
		if !ok {
			return nil, false
		}
		buf = binary.AppendUvarint(buf, uint64(m)<<2|uint64(k))
	}
	return buf, true
}

// encodeDelta appends the common-scale delta form: the column's
// maximal per-value scale, the first scaled value, then zigzag deltas.
func encodeDelta(vs []float64, buf []byte) ([]byte, bool) {
	maxK := 0
	for _, v := range vs {
		_, k, ok := decimalParts(v)
		if !ok {
			return nil, false
		}
		if k > maxK {
			maxK = k
		}
	}
	buf = append(buf, byte(maxK))
	prev := int64(0)
	for i, v := range vs {
		m, ok := scaledInt(v, maxK)
		if !ok {
			return nil, false
		}
		if i == 0 {
			buf = binary.AppendUvarint(buf, uint64(m))
		} else {
			buf = binary.AppendUvarint(buf, zigzag(m-prev))
		}
		prev = m
	}
	return buf, true
}

// encodeDerived succeeds when every throughput equals Bytes/DurationS
// bit-exactly — the generator's own arithmetic — making the column
// free.
func encodeDerived(thrs, vols, durs []float64) bool {
	for i, v := range thrs {
		if math.Float64bits(v) != math.Float64bits(vols[i]/durs[i]) {
			return false
		}
	}
	return true
}

// encodePredict appends decimal-scaled residuals of the throughput
// column against the volume/duration predictor.
func encodePredict(thrs, vols, durs []float64, buf []byte) ([]byte, bool) {
	maxK := 0
	for _, v := range thrs {
		_, k, ok := decimalParts(v)
		if !ok {
			return nil, false
		}
		if k > maxK {
			maxK = k
		}
	}
	buf = append(buf, byte(maxK))
	for i, v := range thrs {
		m, ok := scaledInt(v, maxK)
		if !ok {
			return nil, false
		}
		buf = binary.AppendUvarint(buf, zigzag(m-predDecimal(vols[i], durs[i], maxK)))
	}
	return buf, true
}

// flushBlock writes the pending columns as one block section, picking
// each column's encoding.
func (bw *binWriter) flushBlock() error {
	n := len(bw.times)
	if n == 0 {
		return nil
	}
	b := bw.scratch[:5]
	b[0] = tagBlock
	binary.LittleEndian.PutUint32(b[1:5], uint32(n))
	if _, err := bw.cw.Write(b); err != nil {
		return err
	}

	emit := func(enc byte, payload []byte) error {
		err := bw.writeColumn(enc, payload)
		if cap(payload) > cap(bw.colbuf) {
			bw.colbuf = payload[:0]
		}
		return err
	}

	// TimeS: establishment times are nearly sorted and quantized in
	// measurement exports — delta first, then per-value decimal, then
	// raw.
	if payload, ok := encodeDelta(bw.times, bw.colbuf[:0]); ok {
		if err := emit(encDelta, payload); err != nil {
			return err
		}
	} else if payload, ok := encodeDecimal(bw.times, bw.colbuf[:0]); ok {
		if err := emit(encDecimal, payload); err != nil {
			return err
		}
	} else if err := emit(encRaw, encodeRawF64(bw.times, bw.colbuf[:0])); err != nil {
		return err
	}

	// Service: dense dictionary indices, almost always one byte.
	svcPayload := bw.colbuf[:0]
	for _, s := range bw.svcs {
		svcPayload = binary.AppendUvarint(svcPayload, uint64(s))
	}
	if err := emit(encVarint, svcPayload); err != nil {
		return err
	}

	// Bytes and DurationS: decimal when quantized, raw otherwise.
	for _, col := range [][]float64{bw.volumes, bw.durs} {
		if payload, ok := encodeDecimal(col, bw.colbuf[:0]); ok {
			if err := emit(encDecimal, payload); err != nil {
				return err
			}
		} else if err := emit(encRaw, encodeRawF64(col, bw.colbuf[:0])); err != nil {
			return err
		}
	}

	// Throughput: free when it is exactly Bytes/DurationS, tiny
	// residuals when quantized, raw otherwise.
	switch {
	case encodeDerived(bw.thrs, bw.volumes, bw.durs):
		if err := emit(encDerived, nil); err != nil {
			return err
		}
	default:
		if payload, ok := encodePredict(bw.thrs, bw.volumes, bw.durs, bw.colbuf[:0]); ok {
			if err := emit(encPredict, payload); err != nil {
				return err
			}
		} else if err := emit(encRaw, encodeRawF64(bw.thrs, bw.colbuf[:0])); err != nil {
			return err
		}
	}

	// The volume column moves to the footer's quantile sample. Only a
	// full block (never the last) can be followed by more records, so
	// only it starts a fresh block-sized column.
	bw.volChunks = append(bw.volChunks, bw.volumes)
	bw.volumes = nil
	if n == binBlockRecords {
		bw.volumes = make([]float64, 0, binBlockRecords)
	}
	bw.times = bw.times[:0]
	bw.svcs = bw.svcs[:0]
	bw.durs = bw.durs[:0]
	bw.thrs = bw.thrs[:0]
	return nil
}

// finish flushes the last block and writes the footer and trailer.
// Idempotent: later calls are no-ops, and every call after a failed
// write returns that error.
func (bw *binWriter) finish() error {
	if bw.cw.err != nil {
		return bw.cw.err
	}
	if bw.finished {
		return nil
	}
	if err := bw.flushBlock(); err != nil {
		return err
	}
	bw.finished = true
	bw.sum.Services = make(map[string]int, len(bw.dict))
	for name, idx := range bw.dict {
		bw.sum.Services[name] = bw.svcCount[idx]
	}
	// The block columns, joined in order, are the per-record volume
	// sample.
	volumes := make([]float64, 0, bw.sum.Sessions)
	for _, c := range bw.volChunks {
		volumes = append(volumes, c...)
	}
	bw.volChunks = nil
	bw.sum.fillQuantiles(volumes)
	sumJSON, err := json.Marshal(bw.sum)
	if err != nil {
		return fmt.Errorf("trace: bin: summary encode: %w", err)
	}
	footerOff := bw.cw.off
	b := bw.scratch[:5]
	b[0] = tagFooter
	binary.LittleEndian.PutUint32(b[1:5], uint32(len(sumJSON)))
	if _, err := bw.cw.Write(b); err != nil {
		return err
	}
	if _, err := bw.cw.Write(sumJSON); err != nil {
		return err
	}
	binary.LittleEndian.PutUint64(bw.scratch[:8], footerOff)
	if _, err := bw.cw.Write(bw.scratch[:8]); err != nil {
		return err
	}
	// The CRC covers everything up to and including the footer offset;
	// it is written outside its own checksum, directly to the
	// underlying writer.
	binary.LittleEndian.PutUint32(bw.scratch[:4], bw.cw.crc)
	_, err = bw.cw.w.Write(bw.scratch[:4])
	return err
}

// --- reading ----------------------------------------------------------

// binCountingReader accumulates a CRC-32C and a byte offset over
// everything read through it.
type binCountingReader struct {
	r   io.Reader
	crc uint32
	off uint64
}

func (cr *binCountingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.crc = crc32.Update(cr.crc, binCRCTable, p[:n])
	cr.off += uint64(n)
	return n, err
}

// uvarintReader walks a column payload of back-to-back uvarints.
type uvarintReader struct {
	p   []byte
	pos int
}

// next decodes the i-th uvarint.
func (u *uvarintReader) next(i int) (uint64, error) {
	v, w := binary.Uvarint(u.p[u.pos:])
	if w <= 0 {
		return 0, fmt.Errorf("varint %d truncated", i)
	}
	u.pos += w
	return v, nil
}

// done fails unless the uvarints spanned the whole payload.
func (u *uvarintReader) done() error {
	if u.pos != len(u.p) {
		return fmt.Errorf("%d trailing payload bytes", len(u.p)-u.pos)
	}
	return nil
}

// decodeFloatColumn reconstructs a float column into out, one value
// per record. The derived and predict encodings consume the already
// decoded volume and duration columns (nil for the columns before
// them, which also forbids those encodings there).
func decodeFloatColumn(enc byte, payload []byte, out, vols, durs []float64) error {
	n := len(out)
	switch enc {
	case encRaw:
		if len(payload) != n*8 {
			return fmt.Errorf("raw column carries %d bytes, want %d", len(payload), n*8)
		}
		for i := range out {
			out[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[i*8:]))
		}
	case encDecimal:
		u := uvarintReader{p: payload}
		for i := range out {
			v, err := u.next(i)
			if err != nil {
				return err
			}
			out[i] = float64(v>>2) / binPow10[v&3]
		}
		return u.done()
	case encDelta:
		if len(payload) < 1 {
			return fmt.Errorf("delta column missing scale")
		}
		k := int(payload[0])
		if k >= len(binPow10) {
			return fmt.Errorf("delta column scale %d", k)
		}
		u := uvarintReader{p: payload[1:]}
		m := int64(0)
		for i := range out {
			v, err := u.next(i)
			if err != nil {
				return err
			}
			if i == 0 {
				m = int64(v)
			} else {
				m += unzigzag(v)
			}
			out[i] = float64(m) / binPow10[k]
		}
		return u.done()
	case encDerived:
		if vols == nil {
			return fmt.Errorf("derived encoding outside the throughput column")
		}
		if len(payload) != 0 {
			return fmt.Errorf("derived column carries %d payload bytes", len(payload))
		}
		for i := range out {
			out[i] = vols[i] / durs[i]
		}
	case encPredict:
		if vols == nil {
			return fmt.Errorf("predict encoding outside the throughput column")
		}
		if len(payload) < 1 {
			return fmt.Errorf("predict column missing scale")
		}
		k := int(payload[0])
		if k >= len(binPow10) {
			return fmt.Errorf("predict column scale %d", k)
		}
		u := uvarintReader{p: payload[1:]}
		for i := range out {
			v, err := u.next(i)
			if err != nil {
				return err
			}
			m := predDecimal(vols[i], durs[i], k) + unzigzag(v)
			out[i] = float64(m) / binPow10[k]
		}
		return u.done()
	default:
		return fmt.Errorf("float column encoding %#02x", enc)
	}
	return nil
}

// decodeServiceColumn reconstructs the service index column into out,
// rejecting any index outside the dict read so far.
func decodeServiceColumn(enc byte, payload []byte, out []uint32, dictLen int) error {
	n := len(out)
	switch enc {
	case encRaw:
		if len(payload) != n*4 {
			return fmt.Errorf("raw service column carries %d bytes, want %d", len(payload), n*4)
		}
		for i := range out {
			out[i] = binary.LittleEndian.Uint32(payload[i*4:])
		}
	case encVarint:
		u := uvarintReader{p: payload}
		for i := range out {
			v, err := u.next(i)
			if err != nil {
				return err
			}
			if v > math.MaxUint32 {
				return fmt.Errorf("service index %d overflows", v)
			}
			out[i] = uint32(v)
		}
		if err := u.done(); err != nil {
			return err
		}
	default:
		return fmt.Errorf("service column encoding %#02x", enc)
	}
	for _, s := range out {
		if s >= uint32(dictLen) {
			return fmt.Errorf("service index %d outside %d-entry dict", s, dictLen)
		}
	}
	return nil
}

// resize returns buf with length n, reallocating only when its
// capacity falls short.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// binMinRecordBytes is a lower bound on the encoded size of one
// record: its time, service, volume and duration columns take at least
// one byte each in every encoding (only the throughput column can be
// free), so B bytes of blocks hold fewer than B/3 records. The bound
// only has to be safe, not tight.
const binMinRecordBytes = 3

// binSessionHint returns the session count declared by the footer of
// the MTTR stream that br was peeked from, when r — the reader behind
// br — can seek, or 0 when it cannot or the footer does not parse. The
// peek goes through the
// trailer the way ReadSummary does; r is left where br stopped
// reading, so br's buffered bytes stay valid. The count is capped at
// what the stream's bytes could hold: a lying footer costs at most that
// much capacity, and readBin's own footer and CRC checks still reject
// it. A hint is only ever a capacity, never trusted for content.
func binSessionHint(r io.Reader, br *bufio.Reader) (int, error) {
	rs, ok := r.(io.ReadSeeker)
	if !ok {
		return 0, nil
	}
	pos, err := rs.Seek(0, io.SeekCurrent)
	if err != nil {
		return 0, nil // an unseekable *os.File, such as a pipe
	}
	sumJSON, footOff, ferr := readFooter(rs, pos-int64(br.Buffered()))
	if _, err := rs.Seek(pos, io.SeekStart); err != nil {
		return 0, fmt.Errorf("trace: bin: seek back after footer peek: %w", err)
	}
	if ferr != nil {
		return 0, nil // readBin reports the damage in stream order
	}
	var head struct {
		Sessions int `json:"sessions"`
	}
	if json.Unmarshal(sumJSON, &head) != nil || head.Sessions <= 0 {
		return 0, nil
	}
	return int(min(uint64(head.Sessions), footOff/binMinRecordBytes)), nil
}

// readBin decodes a whole MTTR stream: dict and block sections in
// order, the footer, and the CRC trailer. Any structural violation —
// unknown tag, out-of-range service index, bad trailer — is an error,
// never a panic or a silently short result. Each block decodes through
// column buffers reused from block to block. With a session hint (see
// binSessionHint) the records land straight in one slice presized to
// it, so an honest footer costs no copy. A block that does not fit —
// there was no hint, or it was short — spills into an exact-size record
// chunk of its own, as does every block after it, and once the footer
// confirms the session count the slice and the chunks are joined into
// one exact-size slice.
func readBin(r io.Reader, hint int) ([]Record, error) {
	cr := &binCountingReader{r: r}
	var scratch [8]byte
	if _, err := io.ReadFull(cr, scratch[:6]); err != nil {
		return nil, fmt.Errorf("trace: bin header: %w", err)
	}
	if string(scratch[:4]) != binMagic {
		return nil, fmt.Errorf("trace: not an MTTR trace (magic %q)", scratch[:4])
	}
	if v := binary.LittleEndian.Uint16(scratch[4:6]); v != BinVersion {
		return nil, fmt.Errorf("trace: unsupported MTTR version %d (have %d)", v, BinVersion)
	}
	var (
		dict    []string
		recs    []Record   // presized to the hint
		chunks  [][]Record // spilled blocks, in order after recs
		total   int
		footOff uint64
		sawFoot bool

		// Column buffers reused across blocks.
		encs                    [5]byte
		payloads                [5][]byte
		times, vols, durs, thrs []float64
		svcs                    []uint32
	)
	if hint > 0 {
		recs = make([]Record, 0, hint)
	}
	for !sawFoot {
		sectionOff := cr.off
		if _, err := io.ReadFull(cr, scratch[:1]); err != nil {
			return nil, fmt.Errorf("trace: bin section tag: %w", err)
		}
		switch scratch[0] {
		case tagDict:
			if _, err := io.ReadFull(cr, scratch[:6]); err != nil {
				return nil, fmt.Errorf("trace: bin dict entry: %w", err)
			}
			idx := binary.LittleEndian.Uint32(scratch[:4])
			if idx != uint32(len(dict)) || idx >= MaxBinDictEntries {
				return nil, fmt.Errorf("trace: bin dict index %d (want %d)", idx, len(dict))
			}
			nameLen := int(binary.LittleEndian.Uint16(scratch[4:6]))
			name := make([]byte, nameLen)
			if _, err := io.ReadFull(cr, name); err != nil {
				return nil, fmt.Errorf("trace: bin dict name: %w", err)
			}
			dict = append(dict, string(name))
		case tagBlock:
			if _, err := io.ReadFull(cr, scratch[:4]); err != nil {
				return nil, fmt.Errorf("trace: bin block header: %w", err)
			}
			n := binary.LittleEndian.Uint32(scratch[:4])
			if n == 0 || n > MaxBinBlockRecords {
				return nil, fmt.Errorf("trace: bin block declares %d records", n)
			}
			for i := range payloads {
				var h [5]byte
				if _, err := io.ReadFull(cr, h[:]); err != nil {
					return nil, fmt.Errorf("trace: bin block: column header: %w", err)
				}
				plen := binary.LittleEndian.Uint32(h[1:5])
				if plen > 10*n+16 {
					return nil, fmt.Errorf("trace: bin block: column declares %d payload bytes for %d records", plen, n)
				}
				encs[i] = h[0]
				payloads[i] = resize(payloads[i], int(plen))
				if _, err := io.ReadFull(cr, payloads[i]); err != nil {
					return nil, fmt.Errorf("trace: bin block: column payload: %w", err)
				}
			}
			times, svcs = resize(times, int(n)), resize(svcs, int(n))
			vols, durs, thrs = resize(vols, int(n)), resize(durs, int(n)), resize(thrs, int(n))
			if err := decodeFloatColumn(encs[0], payloads[0], times, nil, nil); err != nil {
				return nil, fmt.Errorf("trace: bin block times: %w", err)
			}
			if err := decodeServiceColumn(encs[1], payloads[1], svcs, len(dict)); err != nil {
				return nil, fmt.Errorf("trace: bin block services: %w", err)
			}
			if err := decodeFloatColumn(encs[2], payloads[2], vols, nil, nil); err != nil {
				return nil, fmt.Errorf("trace: bin block volumes: %w", err)
			}
			if err := decodeFloatColumn(encs[3], payloads[3], durs, nil, nil); err != nil {
				return nil, fmt.Errorf("trace: bin block durations: %w", err)
			}
			if err := decodeFloatColumn(encs[4], payloads[4], thrs, vols, durs); err != nil {
				return nil, fmt.Errorf("trace: bin block throughputs: %w", err)
			}
			var dst []Record
			if k := len(recs); len(chunks) == 0 && cap(recs)-k >= int(n) {
				recs = recs[:k+int(n)]
				dst = recs[k:]
			} else {
				dst = make([]Record, n)
				chunks = append(chunks, dst)
			}
			for i := range dst {
				rec := &dst[i]
				*rec = Record{
					TimeS:      times[i],
					Service:    dict[svcs[i]],
					Bytes:      vols[i],
					DurationS:  durs[i],
					Throughput: thrs[i],
				}
				if err := rec.Validate(); err != nil {
					return nil, fmt.Errorf("trace: bin record %d: %w", total+i+1, err)
				}
			}
			total += len(dst)
		case tagFooter:
			footOff = sectionOff
			if _, err := io.ReadFull(cr, scratch[:4]); err != nil {
				return nil, fmt.Errorf("trace: bin footer length: %w", err)
			}
			sumLen := binary.LittleEndian.Uint32(scratch[:4])
			if sumLen > 1<<24 {
				return nil, fmt.Errorf("trace: bin footer declares %d summary bytes", sumLen)
			}
			sumJSON := make([]byte, sumLen)
			if _, err := io.ReadFull(cr, sumJSON); err != nil {
				return nil, fmt.Errorf("trace: bin footer summary: %w", err)
			}
			var sum Summary
			if err := json.Unmarshal(sumJSON, &sum); err != nil {
				return nil, fmt.Errorf("trace: bin footer summary: %w", err)
			}
			if sum.Sessions != total {
				return nil, fmt.Errorf("trace: bin footer says %d sessions, blocks carry %d", sum.Sessions, total)
			}
			sawFoot = true
		default:
			return nil, fmt.Errorf("trace: bin unknown section tag %#02x", scratch[0])
		}
	}
	// Trailer: footer offset folds into the CRC, the CRC itself does
	// not.
	if _, err := io.ReadFull(cr, scratch[:8]); err != nil {
		return nil, fmt.Errorf("trace: bin trailer: %w", err)
	}
	if got := binary.LittleEndian.Uint64(scratch[:8]); got != footOff {
		return nil, fmt.Errorf("trace: bin trailer footer offset %d, footer at %d", got, footOff)
	}
	want := cr.crc
	if _, err := io.ReadFull(cr.r, scratch[:4]); err != nil {
		return nil, fmt.Errorf("trace: bin trailer CRC: %w", err)
	}
	if got := binary.LittleEndian.Uint32(scratch[:4]); got != want {
		return nil, fmt.Errorf("trace: bin CRC mismatch (stored %08x, computed %08x)", got, want)
	}
	if _, err := io.ReadFull(cr.r, scratch[:1]); err != io.EOF {
		return nil, fmt.Errorf("trace: trailing bytes after MTTR trailer")
	}
	switch {
	case len(chunks) == 0:
		return recs, nil
	case len(recs) == 0 && len(chunks) == 1:
		return chunks[0], nil
	}
	out := make([]Record, 0, total)
	out = append(out, recs...)
	for _, c := range chunks {
		out = append(out, c...)
	}
	return out, nil
}

// ReadSummary reads the embedded Summary of an MTTR trace by seeking
// straight to the footer through the trailer — no record block is
// touched, so it is O(footer) regardless of trace size. The CRC
// protects the whole file and is only verified by a full Read; this
// fast path validates the structural invariants it traverses (magic,
// version, trailer offset, footer framing).
func ReadSummary(rs io.ReadSeeker) (Summary, error) {
	var scratch [6]byte
	if _, err := rs.Seek(0, io.SeekStart); err != nil {
		return Summary{}, fmt.Errorf("trace: bin summary: %w", err)
	}
	if _, err := io.ReadFull(rs, scratch[:6]); err != nil {
		return Summary{}, fmt.Errorf("trace: bin summary header: %w", err)
	}
	if string(scratch[:4]) != binMagic {
		return Summary{}, fmt.Errorf("trace: not an MTTR trace (magic %q)", scratch[:4])
	}
	if v := binary.LittleEndian.Uint16(scratch[4:6]); v != BinVersion {
		return Summary{}, fmt.Errorf("trace: unsupported MTTR version %d (have %d)", v, BinVersion)
	}
	sumJSON, _, err := readFooter(rs, 0)
	if err != nil {
		return Summary{}, err
	}
	var sum Summary
	if err := json.Unmarshal(sumJSON, &sum); err != nil {
		return Summary{}, fmt.Errorf("trace: bin summary decode: %w", err)
	}
	return sum, nil
}

// readFooter returns the Summary JSON and the footer offset of the
// MTTR stream that starts at offset start of rs and runs to its end,
// seeking to the footer through the trailer. It checks the framing it
// traverses (trailer offset, footer tag and length) but not the CRC,
// and leaves rs positioned at the trailer.
func readFooter(rs io.ReadSeeker, start int64) ([]byte, uint64, error) {
	var scratch [12]byte
	end, err := rs.Seek(-12, io.SeekEnd)
	if err != nil {
		return nil, 0, fmt.Errorf("trace: bin summary trailer: %w", err)
	}
	if _, err := io.ReadFull(rs, scratch[:12]); err != nil {
		return nil, 0, fmt.Errorf("trace: bin summary trailer: %w", err)
	}
	footOff := binary.LittleEndian.Uint64(scratch[:8])
	if end < start || footOff < 6 || footOff >= uint64(end-start) {
		return nil, 0, fmt.Errorf("trace: bin summary: footer offset %d out of range", footOff)
	}
	if _, err := rs.Seek(start+int64(footOff), io.SeekStart); err != nil {
		return nil, 0, fmt.Errorf("trace: bin summary: %w", err)
	}
	if _, err := io.ReadFull(rs, scratch[:5]); err != nil {
		return nil, 0, fmt.Errorf("trace: bin summary footer: %w", err)
	}
	if scratch[0] != tagFooter {
		return nil, 0, fmt.Errorf("trace: bin summary: tag %#02x at footer offset", scratch[0])
	}
	sumLen := binary.LittleEndian.Uint32(scratch[1:5])
	if footOff+5+uint64(sumLen) != uint64(end-start) {
		return nil, 0, fmt.Errorf("trace: bin summary: footer length %d inconsistent with trailer", sumLen)
	}
	sumJSON := make([]byte, sumLen)
	if _, err := io.ReadFull(rs, sumJSON); err != nil {
		return nil, 0, fmt.Errorf("trace: bin summary read: %w", err)
	}
	return sumJSON, footOff, nil
}

// ReadSummaryFile is ReadSummary over a file path.
func ReadSummaryFile(path string) (Summary, error) {
	f, err := os.Open(path)
	if err != nil {
		return Summary{}, fmt.Errorf("trace: bin summary: %w", err)
	}
	defer f.Close()
	return ReadSummary(f)
}
