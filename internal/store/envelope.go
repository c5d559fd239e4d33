// Package store is the crash-safe artifact store behind every persisted
// asset in this repository: graphs, FeatureSets, and census checkpoints.
// The census is the expensive half of the paper's compute-once/serve-many
// pipeline, so the artifacts it produces must survive crashes, torn
// writes, and silent media corruption without taking a serving process
// down.
//
// Two layers provide that:
//
//   - A framed envelope (this file): magic, format version, a fixed
//     number of length-prefixed sections each guarded by CRC32C, and a
//     manifest footer carrying a whole-file SHA-256. Decoders verify
//     everything before returning a byte of payload, never panic on
//     hostile input, and report typed errors (ErrCorrupt,
//     ErrUnsupportedVersion) so callers can distinguish "bad file" from
//     "future format".
//
//   - A generation-numbered directory store (store.go): snapshots are
//     written atomically (temp file + fsync + rename + parent-directory
//     fsync), rotate under bounded retention, and a snapshot that fails
//     verification is quarantined — renamed aside — while the loader
//     falls back to the newest good generation instead of failing the
//     process.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Typed failure classes. Every decode error wraps exactly one of these,
// so callers can switch on errors.Is without parsing messages.
var (
	// ErrCorrupt marks an artifact that is structurally damaged: bad
	// magic, torn sections, checksum mismatch, trailing garbage, or an
	// unknown trailing section a decoder does not understand.
	ErrCorrupt = errors.New("store: corrupt artifact")
	// ErrUnsupportedVersion marks an artifact written by a newer (or
	// unknown) format revision. The bytes may be perfectly intact; this
	// reader just must not guess at them.
	ErrUnsupportedVersion = errors.New("store: unsupported artifact format version")
	// ErrNotFound reports that a store holds no good generation of the
	// requested artifact kind.
	ErrNotFound = errors.New("store: no good generation found")
)

// Envelope framing constants. The header and footer magics differ so a
// truncated file can never re-parse as a complete one.
const (
	// FormatVersion is the current envelope revision. Readers refuse
	// anything newer with ErrUnsupportedVersion.
	FormatVersion = 1

	headerMagic = "HSGFSNAP"
	footerMagic = "HSGFSEND"

	// maxSections and maxSectionName bound decoder allocations on
	// hostile input; real artifacts use 2-3 short-named sections.
	maxSections    = 64
	maxSectionName = 255

	headerLen = len(headerMagic) + 4 + 4 // magic + version + section count
	footerLen = sha256.Size + len(footerMagic)
)

// crcTable is the Castagnoli polynomial, hardware-accelerated on
// amd64/arm64.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Section is one named payload inside an envelope. Names identify the
// payload codec to the artifact layer (e.g. "meta", "graphbin"); the
// envelope itself treats payloads as opaque bytes.
//
// A section being written carries its payload one of two ways: as
// Payload bytes, or as Stream, which writes exactly Size bytes — a
// payload encoded straight into the file, never held in memory whole.
// Parsed sections always carry Payload.
type Section struct {
	Name    string
	Payload []byte
	Size    int
	Stream  func(w io.Writer) error
}

// payloadLen returns the section's payload length in bytes.
func (s Section) payloadLen() int {
	if s.Stream != nil {
		return s.Size
	}
	return len(s.Payload)
}

// Envelope is a parsed artifact container: the format version it was
// written under and its sections in file order.
type Envelope struct {
	Version  uint32
	Sections []Section
}

// Section returns the payload of the named section.
func (e *Envelope) Section(name string) ([]byte, bool) {
	for _, s := range e.Sections {
		if s.Name == name {
			return s.Payload, true
		}
	}
	return nil, false
}

// The canonical on-disk form of an envelope:
//
//	"HSGFSNAP" | version u32 | count u32
//	per section: nameLen u32 | name | payloadLen u64 | payload | CRC32C u32
//	manifest footer: SHA-256 of everything above | "HSGFSEND"
//
// All integers are little-endian. The encoding is canonical — parsing
// and re-encoding an accepted envelope reproduces the input bytes —
// which the fuzz harness relies on.

// checkSections refuses a section list no envelope can hold, before a
// byte is written.
func checkSections(sections []Section) error {
	if len(sections) == 0 {
		return fmt.Errorf("store: envelope needs at least one section")
	}
	if len(sections) > maxSections {
		return fmt.Errorf("store: %d sections exceeds the limit of %d", len(sections), maxSections)
	}
	for _, s := range sections {
		if s.Name == "" || len(s.Name) > maxSectionName {
			return fmt.Errorf("store: section name %q must be 1-%d bytes", s.Name, maxSectionName)
		}
		if s.Stream != nil && (s.Payload != nil || s.Size < 0) {
			return fmt.Errorf("store: section %q: a Stream needs a Size >= 0 and no Payload", s.Name)
		}
	}
	return nil
}

// writeEnvelope writes sections to w in the canonical form, section by
// section: a Stream section is encoded straight into w through a
// running CRC32C, and the manifest SHA-256 runs over everything as it
// passes. A section that writes other than its declared Size fails the
// write (with a short one, after its last byte reached w).
func writeEnvelope(w io.Writer, sections []Section) error {
	if err := checkSections(sections); err != nil {
		return err
	}
	sum := sha256.New()
	hw := io.MultiWriter(w, sum)
	var hdr [8]byte
	le := binary.LittleEndian
	if _, err := io.WriteString(hw, headerMagic); err != nil {
		return err
	}
	le.PutUint32(hdr[:], FormatVersion)
	le.PutUint32(hdr[4:], uint32(len(sections)))
	if _, err := hw.Write(hdr[:]); err != nil {
		return err
	}
	for _, s := range sections {
		le.PutUint32(hdr[:], uint32(len(s.Name)))
		if _, err := hw.Write(hdr[:4]); err != nil {
			return err
		}
		if _, err := io.WriteString(hw, s.Name); err != nil {
			return err
		}
		le.PutUint64(hdr[:], uint64(s.payloadLen()))
		if _, err := hw.Write(hdr[:]); err != nil {
			return err
		}
		sw := &sectionWriter{w: hw, left: s.payloadLen()}
		var err error
		if s.Stream != nil {
			err = s.Stream(sw)
		} else {
			_, err = sw.Write(s.Payload)
		}
		if err == nil {
			err = sw.err
		}
		if err != nil {
			return fmt.Errorf("store: section %q: %w", s.Name, err)
		}
		if sw.left != 0 {
			return fmt.Errorf("store: section %q wrote %d of its %d bytes", s.Name, s.payloadLen()-sw.left, s.payloadLen())
		}
		le.PutUint32(hdr[:], sw.crc)
		if _, err := hw.Write(hdr[:4]); err != nil {
			return err
		}
	}
	if _, err := w.Write(sum.Sum(nil)); err != nil {
		return err
	}
	_, err := io.WriteString(w, footerMagic)
	return err
}

// sectionWriter passes one section's payload on to the envelope,
// keeping its CRC32C and refusing bytes past its declared size. Its
// first error sticks, so a Stream that ignores one still fails.
type sectionWriter struct {
	w    io.Writer
	left int
	crc  uint32
	err  error
}

func (sw *sectionWriter) Write(p []byte) (int, error) {
	if sw.err != nil {
		return 0, sw.err
	}
	if len(p) > sw.left {
		sw.err = fmt.Errorf("writes past its declared size (%d bytes left, %d offered)", sw.left, len(p))
		return 0, sw.err
	}
	n, err := sw.w.Write(p)
	sw.crc = crc32.Update(sw.crc, crcTable, p[:n])
	sw.left -= n
	sw.err = err
	return n, err
}

// EncodeEnvelope returns the canonical envelope of sections as one
// buffer, built apart from the streaming writer: tests and fuzzers use
// it as the reference the files Store.Write and WriteFile stream must
// equal, and to frame hostile input. It takes Payload sections only.
func EncodeEnvelope(sections []Section) ([]byte, error) {
	if err := checkSections(sections); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	buf.WriteString(headerMagic)
	var u32 [4]byte
	var u64 [8]byte
	binary.LittleEndian.PutUint32(u32[:], FormatVersion)
	buf.Write(u32[:])
	binary.LittleEndian.PutUint32(u32[:], uint32(len(sections)))
	buf.Write(u32[:])
	for _, s := range sections {
		if s.Stream != nil {
			return nil, fmt.Errorf("store: EncodeEnvelope: section %q streams", s.Name)
		}
		binary.LittleEndian.PutUint32(u32[:], uint32(len(s.Name)))
		buf.Write(u32[:])
		buf.WriteString(s.Name)
		binary.LittleEndian.PutUint64(u64[:], uint64(len(s.Payload)))
		buf.Write(u64[:])
		buf.Write(s.Payload)
		binary.LittleEndian.PutUint32(u32[:], crc32.Checksum(s.Payload, crcTable))
		buf.Write(u32[:])
	}
	sum := sha256.Sum256(buf.Bytes())
	buf.Write(sum[:])
	buf.WriteString(footerMagic)
	return buf.Bytes(), nil
}

// IsEnvelope reports whether data begins with the envelope magic —
// the cheap test readers use to tell an envelope from a bare exchange
// file (such as a TSV graph) before committing to either decoder.
func IsEnvelope(data []byte) bool {
	return len(data) >= len(headerMagic) && string(data[:len(headerMagic)]) == headerMagic
}

// corruptf wraps ErrCorrupt with positional detail.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// ParseEnvelope verifies and decodes an envelope. Verification is
// complete before it returns: header magic and version, every section
// frame and CRC, the manifest SHA-256, and the absence of trailing
// bytes. Section payloads alias data; callers that mutate must copy.
func ParseEnvelope(data []byte) (*Envelope, error) {
	if len(data) < headerLen+footerLen {
		return nil, corruptf("%d bytes is shorter than an empty envelope", len(data))
	}
	if string(data[:len(headerMagic)]) != headerMagic {
		return nil, corruptf("bad header magic")
	}
	// Verify the manifest first: a whole-file digest catches most damage
	// (truncation, bit flips, splices) in one pass before any framing
	// logic runs.
	foot := data[len(data)-footerLen:]
	if string(foot[sha256.Size:]) != footerMagic {
		return nil, corruptf("bad footer magic (truncated file?)")
	}
	sum := sha256.Sum256(data[:len(data)-footerLen])
	if !bytes.Equal(sum[:], foot[:sha256.Size]) {
		return nil, corruptf("manifest SHA-256 mismatch")
	}

	off := len(headerMagic)
	version := binary.LittleEndian.Uint32(data[off:])
	if version == 0 || version > FormatVersion {
		return nil, fmt.Errorf("%w: file version %d, reader supports <= %d",
			ErrUnsupportedVersion, version, FormatVersion)
	}
	count := binary.LittleEndian.Uint32(data[off+4:])
	if count == 0 || count > maxSections {
		return nil, corruptf("section count %d outside 1..%d", count, maxSections)
	}
	body := data[headerLen : len(data)-footerLen]

	env := &Envelope{Version: version, Sections: make([]Section, 0, count)}
	pos := 0
	for i := uint32(0); i < count; i++ {
		if len(body)-pos < 4 {
			return nil, corruptf("section %d: truncated name length", i)
		}
		nameLen := int(binary.LittleEndian.Uint32(body[pos:]))
		pos += 4
		if nameLen == 0 || nameLen > maxSectionName || len(body)-pos < nameLen {
			return nil, corruptf("section %d: name length %d out of range", i, nameLen)
		}
		name := string(body[pos : pos+nameLen])
		pos += nameLen
		if len(body)-pos < 8 {
			return nil, corruptf("section %q: truncated payload length", name)
		}
		payLen64 := binary.LittleEndian.Uint64(body[pos:])
		pos += 8
		if payLen64 > uint64(len(body)-pos) {
			return nil, corruptf("section %q: payload length %d exceeds remaining %d bytes",
				name, payLen64, len(body)-pos)
		}
		payLen := int(payLen64)
		payload := body[pos : pos+payLen]
		pos += payLen
		if len(body)-pos < 4 {
			return nil, corruptf("section %q: truncated checksum", name)
		}
		if got, want := crc32.Checksum(payload, crcTable), binary.LittleEndian.Uint32(body[pos:]); got != want {
			return nil, corruptf("section %q: CRC32C mismatch (%08x != %08x)", name, got, want)
		}
		pos += 4
		env.Sections = append(env.Sections, Section{Name: name, Payload: payload})
	}
	if pos != len(body) {
		return nil, corruptf("%d trailing bytes after the last declared section", len(body)-pos)
	}
	return env, nil
}
