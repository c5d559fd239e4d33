package store

import (
	"fmt"
	"os"
	"sync/atomic"
)

// Mapped is a read-only view of one snapshot file, memory-mapped where
// the platform allows (heap-loaded otherwise). Envelopes parsed from it
// alias the mapping, so the Mapped must stay open for as long as any
// slice derived from those sections is reachable — that is what makes
// the graph boot path zero-copy: CSR arrays point straight into the
// page cache.
type Mapped struct {
	data    []byte
	release func() error
	mapped  bool
	closed  atomic.Bool
}

// Data returns the raw file bytes. The slice dies with Close.
func (m *Mapped) Data() []byte { return m.data }

// Mmapped reports whether the view is a true memory mapping (false on
// platforms using the heap fallback, and for empty files).
func (m *Mapped) Mmapped() bool { return m.mapped }

// Close releases the mapping. Idempotent; every slice aliasing the
// mapping is invalid afterwards.
func (m *Mapped) Close() error {
	if m.closed.Swap(true) {
		return nil
	}
	m.data = nil
	return m.release()
}

// OpenMapped maps path and fully verifies the envelope inside it. The
// returned envelope's section payloads alias the mapping; close the
// Mapped only when they are no longer reachable. The file descriptor is
// released before returning — the mapping outlives it.
func OpenMapped(path string) (*Mapped, *Envelope, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	size := fi.Size()
	if size > int64(int(^uint(0)>>1)) {
		return nil, nil, fmt.Errorf("store: %s: %d bytes exceeds the address space", path, size)
	}
	data, release, mapped, err := mmapFile(f, int(size))
	if err != nil {
		return nil, nil, fmt.Errorf("store: mapping %s: %w", path, err)
	}
	m := &Mapped{data: data, release: release, mapped: mapped}
	env, err := ParseEnvelope(data)
	if err != nil {
		m.Close()
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, env, nil
}

// LoadLatestMapped is LoadLatestVerified over a memory-mapped read: the
// newest generation of kind that passes envelope verification and the
// artifact-level verify hook is returned still mapped, generations that
// fail are quarantined (or, written by a newer format, end the load;
// see reject), and the mapping of every rejected generation is closed
// before the next candidate is tried. The caller owns closing the
// returned Mapped.
func (s *Store) LoadLatestMapped(kind string, verify func(*Envelope) error) (*Mapped, *Envelope, uint64, error) {
	gens, err := s.scan(kind)
	if err != nil {
		return nil, nil, 0, err
	}
	for i := len(gens) - 1; i >= 0; i-- {
		g := gens[i]
		if g.quarantined {
			continue
		}
		m, env, err := OpenMapped(g.path)
		if err == nil && verify != nil {
			if err = verify(env); err != nil {
				m.Close()
				err = fmt.Errorf("%s: %w", g.path, err)
			}
		}
		if err == nil {
			return m, env, g.gen, nil
		}
		if err := s.reject(kind, g, err); err != nil {
			return nil, nil, 0, err
		}
	}
	return nil, nil, 0, fmt.Errorf("%w: kind %q in %s", ErrNotFound, kind, s.dir)
}

// PayloadOffset returns the file offset at which section i's payload
// starts inside the envelope of sections. Only the sections before i
// and section i's name count, so an encoder that aligns data relative
// to the final file (the binary graph codec) calls this before its
// payload exists; the framing layout is part of the format contract,
// so the arithmetic here must track writeEnvelope exactly.
func PayloadOffset(sections []Section, i int) int {
	off := headerLen
	for j := 0; j < i; j++ {
		off += 4 + len(sections[j].Name) + 8 + sections[j].payloadLen() + 4
	}
	return off + 4 + len(sections[i].Name) + 8
}
