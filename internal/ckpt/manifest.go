package ckpt

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"repro/internal/wal"
)

// Partition file format: an 8-byte magic, then Rows rows of
//
//	key     u64 little-endian (primary key, keyenc composite encoding)
//	length  u32 little-endian
//	payload length bytes
//
// The CRC-32C of the row stream (everything after the magic) is stored in
// the manifest, not the file, so a partition torn mid-write can never look
// self-consistent.
const partMagic = "CKPTPRT1"

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// PartInfo describes one checkpoint partition file in a manifest.
type PartInfo struct {
	File  string `json:"file"`
	Lo    uint64 `json:"lo"`
	Hi    uint64 `json:"hi"`
	Rows  uint64 `json:"rows"`
	Bytes uint64 `json:"bytes"` // row-stream bytes (excludes magic)
	CRC   uint32 `json:"crc32c"`
}

// TableManifest lists one table's partitions, ordered by key range.
type TableManifest struct {
	Name  string     `json:"name"`
	Parts []PartInfo `json:"partitions"`
}

// Manifest is the checkpoint's root record: which tables it contains, split
// into which partition files, and the stable timestamp S the snapshot was
// taken at. Recovery restores every partition, then replays only log records
// with end timestamp above StableTS.
type Manifest struct {
	Seq      uint64          `json:"seq"`
	StableTS uint64          `json:"stable_ts"`
	Tables   []TableManifest `json:"tables"`
}

// partWriter streams rows into one partition file, tracking the running CRC
// and counters recorded in the manifest. On a store with a fault registry
// the file is a wal.FaultFile, so an injected kill can tear a partition.
type partWriter struct {
	f       wal.File
	bw      *bufio.Writer
	crc     uint32
	rows    uint64
	bytes   uint64
	scratch [12]byte
}

func newPartWriter(s *Store, path string) (*partWriter, error) {
	f, err := s.createPart(path)
	if err != nil {
		return nil, err
	}
	p := &partWriter{f: f}
	p.bw = bufio.NewWriterSize(f, 64<<10)
	if _, err := p.bw.WriteString(partMagic); err != nil {
		f.Close()
		return nil, err
	}
	return p, nil
}

func (p *partWriter) add(key uint64, payload []byte) error {
	binary.LittleEndian.PutUint64(p.scratch[0:8], key)
	binary.LittleEndian.PutUint32(p.scratch[8:12], uint32(len(payload)))
	p.crc = crc32.Update(p.crc, crcTable, p.scratch[:])
	p.crc = crc32.Update(p.crc, crcTable, payload)
	if _, err := p.bw.Write(p.scratch[:]); err != nil {
		return err
	}
	if _, err := p.bw.Write(payload); err != nil {
		return err
	}
	p.rows++
	p.bytes += 12 + uint64(len(payload))
	return nil
}

// finish flushes, fsyncs and closes the file, returning the manifest entry
// fields.
func (p *partWriter) finish() (rows, bytes uint64, crc uint32, err error) {
	if err := p.bw.Flush(); err != nil {
		p.f.Close()
		return 0, 0, 0, err
	}
	if err := p.f.Sync(); err != nil {
		p.f.Close()
		return 0, 0, 0, err
	}
	if err := p.f.Close(); err != nil {
		return 0, 0, 0, err
	}
	return p.rows, p.bytes, p.crc, nil
}

func (p *partWriter) abandon() {
	p.f.Close()
}

// ReadPartition streams a checkpoint partition's rows to emit, verifying the
// magic, the manifest row count, and the CRC-32C over the row stream. The
// payload is valid only during the callback.
func ReadPartition(path string, info PartInfo, emit func(key uint64, payload []byte) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 64<<10)
	magic := make([]byte, len(partMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return fmt.Errorf("ckpt: %s: short magic: %w", path, err)
	}
	if string(magic) != partMagic {
		return fmt.Errorf("ckpt: %s: bad magic %q", path, magic)
	}
	var (
		hdr     [12]byte
		payload []byte
		crc     uint32
	)
	for row := uint64(0); row < info.Rows; row++ {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return fmt.Errorf("ckpt: %s: row %d header: %w", path, row, err)
		}
		key := binary.LittleEndian.Uint64(hdr[0:8])
		n := binary.LittleEndian.Uint32(hdr[8:12])
		if uint64(n) > info.Bytes {
			return fmt.Errorf("ckpt: %s: row %d length %d exceeds partition size", path, row, n)
		}
		if cap(payload) < int(n) {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(br, payload); err != nil {
			return fmt.Errorf("ckpt: %s: row %d payload: %w", path, row, err)
		}
		crc = crc32.Update(crc, crcTable, hdr[:])
		crc = crc32.Update(crc, crcTable, payload)
		if err := emit(key, payload); err != nil {
			return err
		}
	}
	if crc != info.CRC {
		return fmt.Errorf("ckpt: %s: CRC mismatch: file %08x, manifest %08x", path, crc, info.CRC)
	}
	return nil
}
