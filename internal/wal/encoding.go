package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Record wire format (little endian):
//
//	u32  frame length (bytes after this field)
//	u32  CRC-32C of the frame body
//	u64  txid
//	u64  end timestamp
//	u32  op count
//	ops: u8 op, u8 table name length, name bytes, u64 key,
//	     u32 payload length, payload bytes
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// EncodeRecord appends r's wire encoding to buf and returns the extended
// slice. It is the single encoding entry point, shared by the log's Append
// path and by checkpoint-time segment compaction, which rewrites surviving
// records into fresh segments.
func EncodeRecord(buf []byte, r *Record) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0) // length placeholder
	buf = append(buf, 0, 0, 0, 0) // crc placeholder
	body := len(buf)
	buf = binary.LittleEndian.AppendUint64(buf, r.TxID)
	buf = binary.LittleEndian.AppendUint64(buf, r.EndTS)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.Ops)))
	for i := range r.Ops {
		e := &r.Ops[i]
		buf = append(buf, byte(e.Op))
		if len(e.Table) > 255 {
			panic("wal: table name too long")
		}
		buf = append(buf, byte(len(e.Table)))
		buf = append(buf, e.Table...)
		buf = binary.LittleEndian.AppendUint64(buf, e.Key)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(e.Payload)))
		buf = append(buf, e.Payload...)
	}
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(buf)-start-4))
	crc := crc32.Checksum(buf[body:], castagnoli)
	binary.LittleEndian.PutUint32(buf[start+4:], crc)
	return buf
}

// ErrCorrupt reports a checksum or framing failure while reading a log.
var ErrCorrupt = errors.New("wal: corrupt record")

// Segment header (optional, versioned): 8 magic bytes and a little-endian
// u32 format version. ckpt.Store starts every segment with it; a Log writing
// to any other sink emits bare record frames, and recovery.Replay reads such
// streams. The reader auto-detects both formats. Detection is unambiguous —
// the magic's first four bytes, read as a frame length, exceed maxFrame by
// orders of magnitude.
const (
	segMagic = "MVWALSEG"
	// SegmentVersion is the current segment format version.
	SegmentVersion = 1
	segHeaderLen   = len(segMagic) + 4
)

// maxFrame bounds a single record frame (256 MiB). A larger claimed length
// is framing corruption, not a record.
const maxFrame = 1 << 28

// SegmentHeader returns the encoded header new segments start with.
func SegmentHeader() []byte {
	h := make([]byte, 0, segHeaderLen)
	h = append(h, segMagic...)
	return binary.LittleEndian.AppendUint32(h, SegmentVersion)
}

// Reader decodes a log stream one record at a time. It tolerates a torn
// final record — a crash can stop the sink mid-write, leaving a partial
// frame — by treating an unexpected end of stream as the end of the log and
// reporting the dangling byte count through Truncated. Checksum mismatches
// and impossible frame lengths are corruption, not tearing, and fail hard
// with ErrCorrupt.
type Reader struct {
	r         io.Reader
	version   uint32
	started   bool
	truncated int64
	hdr       [segHeaderLen]byte
}

// NewReader returns a streaming decoder for r. The segment header, if
// present, is consumed on the first Next call.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: r}
}

// Truncated returns the number of torn trailing bytes discarded so far.
func (d *Reader) Truncated() int64 { return d.truncated }

// Version returns the stream's segment format version (0 for a headerless
// stream of bare frames); valid after the first Next call.
func (d *Reader) Version() uint32 { return d.version }

// start consumes the optional segment header. It reports (false, err) when
// the stream ends inside the prelude: err is io.EOF for a clean empty stream
// and for a torn prelude (counted in Truncated), or a hard error.
func (d *Reader) start() (bool, error) {
	d.started = true
	n, err := io.ReadFull(d.r, d.hdr[:4])
	if err == io.EOF {
		return false, io.EOF
	}
	if err == io.ErrUnexpectedEOF {
		// Fewer than 4 bytes exist: too short for a frame length or a magic,
		// so this is a torn tail in either format.
		d.truncated += int64(n)
		return false, io.EOF
	}
	if err != nil {
		return false, err
	}
	if string(d.hdr[:4]) != segMagic[:4] {
		return true, nil // headerless stream of bare frames; hdr[:4] is a frame length
	}
	n, err = io.ReadFull(d.r, d.hdr[4:])
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		d.truncated += int64(4 + n)
		return false, io.EOF
	}
	if err != nil {
		return false, err
	}
	if string(d.hdr[:len(segMagic)]) != segMagic {
		return false, fmt.Errorf("%w: bad segment magic", ErrCorrupt)
	}
	d.version = binary.LittleEndian.Uint32(d.hdr[len(segMagic):])
	if d.version != SegmentVersion {
		return false, fmt.Errorf("wal: unsupported segment version %d", d.version)
	}
	// The header was consumed; the next frame length must be read fresh.
	n, err = io.ReadFull(d.r, d.hdr[:4])
	if err == io.EOF {
		return false, io.EOF
	}
	if err == io.ErrUnexpectedEOF {
		d.truncated += int64(n)
		return false, io.EOF
	}
	if err != nil {
		return false, err
	}
	return true, nil
}

// Next returns the next record. It returns io.EOF at the end of the stream —
// including a torn tail, which additionally increments Truncated — and
// ErrCorrupt for checksum or framing failures.
func (d *Reader) Next() (*Record, error) {
	if !d.started {
		ok, err := d.start()
		if !ok {
			return nil, err
		}
		// d.hdr[:4] already holds the first frame length.
	} else {
		n, err := io.ReadFull(d.r, d.hdr[:4])
		if err == io.EOF {
			return nil, io.EOF
		}
		if err == io.ErrUnexpectedEOF {
			d.truncated += int64(n)
			return nil, io.EOF
		}
		if err != nil {
			return nil, err
		}
	}
	length := binary.LittleEndian.Uint32(d.hdr[:4])
	if length < 4+20 || length > maxFrame {
		return nil, fmt.Errorf("%w: frame length %d out of range", ErrCorrupt, length)
	}
	frame := make([]byte, length)
	n, err := io.ReadFull(d.r, frame)
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		d.truncated += int64(4 + n)
		return nil, io.EOF
	}
	if err != nil {
		return nil, err
	}
	crc := binary.LittleEndian.Uint32(frame[:4])
	body := frame[4:]
	if crc32.Checksum(body, castagnoli) != crc {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	return decodeBody(body)
}

// ReadAll decodes every record from an encoded log stream, in write order.
// Like Reader, it tolerates a torn final record, returning the well-formed
// prefix; callers that need the torn byte count use Reader directly.
func ReadAll(r io.Reader) ([]*Record, error) {
	var out []*Record
	d := NewReader(r)
	for {
		rec, err := d.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, rec)
	}
}

func decodeBody(b []byte) (*Record, error) {
	if len(b) < 20 {
		return nil, fmt.Errorf("%w: short body", ErrCorrupt)
	}
	rec := &Record{
		TxID:  binary.LittleEndian.Uint64(b[0:8]),
		EndTS: binary.LittleEndian.Uint64(b[8:16]),
	}
	n := binary.LittleEndian.Uint32(b[16:20])
	b = b[20:]
	for i := uint32(0); i < n; i++ {
		if len(b) < 2 {
			return nil, fmt.Errorf("%w: short op header", ErrCorrupt)
		}
		var e Entry
		e.Op = Op(b[0])
		nameLen := int(b[1])
		b = b[2:]
		if len(b) < nameLen+12 {
			return nil, fmt.Errorf("%w: short op", ErrCorrupt)
		}
		e.Table = string(b[:nameLen])
		b = b[nameLen:]
		e.Key = binary.LittleEndian.Uint64(b[:8])
		payLen := int(binary.LittleEndian.Uint32(b[8:12]))
		b = b[12:]
		if len(b) < payLen {
			return nil, fmt.Errorf("%w: short payload", ErrCorrupt)
		}
		if payLen > 0 {
			e.Payload = append([]byte(nil), b[:payLen]...)
		}
		b = b[payLen:]
		rec.Ops = append(rec.Ops, e)
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("%w: trailing bytes", ErrCorrupt)
	}
	return rec, nil
}
