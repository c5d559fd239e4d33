package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// Write-ahead log for the streaming-ingest engine and the router's
// fleet sequencer.
//
// Layout:
//
//	header:  "HSGFWAL0" (8 bytes) | version u32 LE        = 12 bytes
//	frame:   "WREC" (4) | seq u64 | payloadLen u32 | payload | crc u32
//
// The CRC is CRC32-C over seq|payloadLen|payload (the same Castagnoli
// table the snapshot envelope uses). Frames carry strictly increasing
// sequence numbers; the payload is opaque to the log (the ingest engine
// stores encoded mutation batches).
//
// Durability contract: Append returns only after the frame has been
// written and fsynced, so a record the caller has acked is on stable
// storage. Recovery (OpenWAL) scans the file front to back, stops at
// the first frame that is truncated or fails its checksum — the torn
// tail a crash mid-append leaves behind — and truncates the file there,
// because nothing after a torn frame was ever acked. A corrupt frame
// *before* a valid one is different: it means acked data was damaged,
// and since everything after it is unusable anyway the log still
// truncates at the damage point; the engine detects the resulting
// sequence gap against its acked watermark if one matters.

const (
	walMagic       = "HSGFWAL0"
	walVersion     = 1
	walHeaderSize  = len(walMagic) + 4
	walFrameMagic  = "WREC"
	walFrameHeader = 4 + 8 + 4 // magic, seq, payloadLen
	// MaxWALRecord bounds a single record's payload; anything larger in
	// a frame header is treated as corruption rather than allocated.
	MaxWALRecord = 64 << 20
)

// WALRecord is one recovered log record.
type WALRecord struct {
	Seq     uint64
	Payload []byte
}

// EncodeWALFrame serialises one frame. Exported for tests and fuzzing;
// production code appends through WAL.Append.
func EncodeWALFrame(seq uint64, payload []byte) ([]byte, error) {
	if len(payload) > MaxWALRecord {
		return nil, fmt.Errorf("store: WAL payload of %d bytes exceeds the %d limit", len(payload), MaxWALRecord)
	}
	buf := make([]byte, 0, walFrameHeader+len(payload)+4)
	buf = append(buf, walFrameMagic...)
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, payload...)
	crc := crc32.Checksum(buf[4:], crcTable)
	buf = binary.LittleEndian.AppendUint32(buf, crc)
	return buf, nil
}

// DecodeWALFrame parses one frame from the front of data, returning the
// record and the number of bytes consumed. It never panics on arbitrary
// input. Failures wrap ErrCorrupt; a frame that is merely incomplete
// (valid prefix, not enough bytes) also reports ErrCorrupt — callers
// that need to distinguish a torn tail do so by position, not by error
// type, since a half-written frame and a damaged one are
// indistinguishable on disk.
func DecodeWALFrame(data []byte) (WALRecord, int, error) {
	if len(data) < walFrameHeader {
		return WALRecord{}, 0, corruptf("WAL frame: %d bytes is shorter than a frame header", len(data))
	}
	if string(data[:4]) != walFrameMagic {
		return WALRecord{}, 0, corruptf("WAL frame: bad magic")
	}
	seq := binary.LittleEndian.Uint64(data[4:])
	payloadLen := binary.LittleEndian.Uint32(data[12:])
	if payloadLen > MaxWALRecord {
		return WALRecord{}, 0, corruptf("WAL frame: payload length %d exceeds the %d limit", payloadLen, MaxWALRecord)
	}
	total := walFrameHeader + int(payloadLen) + 4
	if len(data) < total {
		return WALRecord{}, 0, corruptf("WAL frame: truncated (need %d bytes, have %d)", total, len(data))
	}
	want := binary.LittleEndian.Uint32(data[total-4:])
	got := crc32.Checksum(data[4:total-4], crcTable)
	if got != want {
		return WALRecord{}, 0, corruptf("WAL frame seq %d: CRC mismatch", seq)
	}
	payload := make([]byte, payloadLen)
	copy(payload, data[walFrameHeader:total-4])
	return WALRecord{Seq: seq, Payload: payload}, total, nil
}

// WAL is an append-only, fsync-per-append mutation log. Not safe for
// concurrent use; the ingest engine and the router's sequencer each
// serialise their calls under their own lock.
type WAL struct {
	f        *os.File
	path     string
	size     int64
	lastSeq  uint64
	poisoned bool
}

// OpenWAL opens (or creates) the log at path and replays it. It returns
// the intact records in order and a WAL positioned for appending.
//
// A torn tail — a final frame that is incomplete or fails its CRC — is
// truncated away and the truncation fsynced, so the next crash cannot
// resurrect it. A valid frame whose sequence number does not increase
// is a hard error (that is never a torn write; it means the file was
// tampered with or two logs were interleaved). A bad header is a hard
// error too: the log is never silently wiped.
func OpenWAL(path string) (*WAL, []WALRecord, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}

	w := &WAL{f: f, path: path}
	if len(data) == 0 {
		if err := w.writeHeader(); err != nil {
			f.Close()
			return nil, nil, err
		}
		return w, nil, nil
	}
	if len(data) < walHeaderSize || string(data[:len(walMagic)]) != walMagic {
		f.Close()
		return nil, nil, corruptf("WAL %s: bad header", path)
	}
	if v := binary.LittleEndian.Uint32(data[len(walMagic):]); v != walVersion {
		f.Close()
		return nil, nil, fmt.Errorf("%w: WAL %s: version %d, reader supports %d", ErrUnsupportedVersion, path, v, walVersion)
	}

	var records []WALRecord
	pos := walHeaderSize
	for pos < len(data) {
		rec, n, err := DecodeWALFrame(data[pos:])
		if err != nil {
			// Torn or damaged tail: drop it. Everything before pos was
			// CRC-verified and stays.
			break
		}
		if rec.Seq <= w.lastSeq {
			f.Close()
			return nil, nil, corruptf("WAL %s: sequence regressed from %d to %d", path, w.lastSeq, rec.Seq)
		}
		w.lastSeq = rec.Seq
		records = append(records, rec)
		pos += n
	}
	if pos < len(data) {
		if err := f.Truncate(int64(pos)); err != nil {
			f.Close()
			return nil, nil, err
		}
		if err := syncFile(f); err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	if _, err := f.Seek(int64(pos), io.SeekStart); err != nil {
		f.Close()
		return nil, nil, err
	}
	w.size = int64(pos)
	return w, records, nil
}

func (w *WAL) writeHeader() error {
	hdr := make([]byte, 0, walHeaderSize)
	hdr = append(hdr, walMagic...)
	hdr = binary.LittleEndian.AppendUint32(hdr, walVersion)
	if _, err := w.f.Write(hdr); err != nil {
		return err
	}
	if err := syncFile(w.f); err != nil {
		return err
	}
	w.size = int64(walHeaderSize)
	return nil
}

// LastSeq returns the highest sequence number the log has accepted
// (from replay or Append); 0 if none.
func (w *WAL) LastSeq() uint64 { return w.lastSeq }

// Size returns the current file size in bytes.
func (w *WAL) Size() int64 { return w.size }

// Path returns the log's file path.
func (w *WAL) Path() string { return w.path }

// walWrite is a test seam for injecting partial-write failures; it must
// behave exactly like (*os.File).Write in production.
var walWrite = func(f *os.File, b []byte) (int, error) { return f.Write(b) }

// Append writes one record and fsyncs. seq must exceed LastSeq. When
// Append returns nil the record is durable and may be acked.
//
// When Append fails the log is rolled back to its pre-append size. This
// matters: a partial write (say ENOSPC after n>0 bytes) that stayed in
// the file would sit BEFORE any later successful append, and recovery
// stops at the first undecodable frame — so the later, acked frame
// would be silently truncated away, defeating the durability contract.
// If the rollback itself fails the log is poisoned: every further
// Append errors until a restart, where OpenWAL truncates the torn tail
// while it is still the tail.
func (w *WAL) Append(seq uint64, payload []byte) error {
	if w.poisoned {
		return fmt.Errorf("store: WAL %s is poisoned by an earlier failed append; restart to recover", w.path)
	}
	if seq <= w.lastSeq {
		return fmt.Errorf("store: WAL append seq %d not after last seq %d", seq, w.lastSeq)
	}
	frame, err := EncodeWALFrame(seq, payload)
	if err != nil {
		return err
	}
	if _, err := walWrite(w.f, frame); err != nil {
		return w.rollback(err)
	}
	if err := syncFile(w.f); err != nil {
		return w.rollback(err)
	}
	w.size += int64(len(frame))
	w.lastSeq = seq
	return nil
}

// rollback truncates a failed append's partial frame away, restoring
// the pre-append file state, and returns cause. If the truncate (or the
// re-seek/sync after it) fails, the torn bytes may still be on disk, so
// the log flips to poisoned rather than risk stranding a later acked
// frame behind them.
func (w *WAL) rollback(cause error) error {
	err := w.f.Truncate(w.size)
	if err == nil {
		if _, serr := w.f.Seek(w.size, io.SeekStart); serr != nil {
			err = serr
		} else {
			err = syncFile(w.f)
		}
	}
	if err != nil {
		w.poisoned = true
		return fmt.Errorf("store: WAL append failed (%v); rollback failed too (%v) — log poisoned until restart", cause, err)
	}
	return cause
}

// Reset truncates the log back to its header after a compaction has
// folded its records into a durable snapshot. The sequence counter is
// NOT reset — sequence numbers are global across compactions, so a
// record appended after Reset still carries a higher seq than anything
// in the snapshot.
func (w *WAL) Reset() error {
	if err := w.f.Truncate(int64(walHeaderSize)); err != nil {
		return err
	}
	if _, err := w.f.Seek(int64(walHeaderSize), io.SeekStart); err != nil {
		return err
	}
	if err := syncFile(w.f); err != nil {
		return err
	}
	w.size = int64(walHeaderSize)
	return nil
}

// Close closes the underlying file. The log is already durable; Close
// performs no additional flushing.
func (w *WAL) Close() error { return w.f.Close() }
