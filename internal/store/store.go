package store

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// DefaultRetain is the number of good generations kept per artifact
// kind when Options.Retain is zero.
const DefaultRetain = 4

// quarantineSuffix marks a snapshot that failed verification. The file
// is renamed aside — evidence for the operator — and never considered a
// loadable generation again, though its generation number stays burned
// so a later writer cannot silently reuse it.
const quarantineSuffix = ".corrupt"

// kindRE constrains artifact kind names to filename-safe tokens.
var kindRE = regexp.MustCompile(`^[a-z0-9][a-z0-9-]*$`)

// snapRE parses "<kind>-g<generation>.snap" file names.
var snapRE = regexp.MustCompile(`^([a-z0-9][a-z0-9-]*)-g(\d{10})\.snap$`)

// Options tunes a Store.
type Options struct {
	// Retain is the number of good generations kept per kind after a
	// successful write; older ones are pruned. <= 0 means DefaultRetain.
	Retain int
	// Log receives operational messages (quarantines, prunes); nil
	// discards them.
	Log func(format string, args ...any)
}

// Store is a directory of generation-numbered, checksummed artifact
// snapshots. All methods are safe for concurrent use by one process;
// cross-process coordination is by atomic rename only (last writer of a
// generation number wins, readers always see whole files).
type Store struct {
	dir    string
	retain int
	logf   func(format string, args ...any)

	mu sync.Mutex // serialises Write's scan, rename and prune
}

// Open creates (if needed) and returns the store rooted at dir.
func Open(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	retain := opts.Retain
	if retain <= 0 {
		retain = DefaultRetain
	}
	logf := opts.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Store{dir: dir, retain: retain, logf: logf}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Path returns the snapshot file for one generation of a kind.
func (s *Store) Path(kind string, gen uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("%s-g%010d.snap", kind, gen))
}

// Write persists sections as the next generation of kind and prunes
// generations beyond the retention bound. Writes to one Store are
// serialised from the scan that picks the generation number to the
// prune after the rename, so concurrent writers get distinct
// generations. The returned generation is durable (file and directory
// fsynced) when Write returns nil.
func (s *Store) Write(kind string, sections []Section) (uint64, error) {
	if !kindRE.MatchString(kind) {
		return 0, fmt.Errorf("store: invalid artifact kind %q", kind)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	gens, err := s.scan(kind)
	if err != nil {
		return 0, err
	}
	gen := uint64(1)
	if n := len(gens); n > 0 {
		gen = gens[n-1].gen + 1
	}
	if err := WriteFile(s.Path(kind, gen), sections); err != nil {
		return 0, err
	}
	s.prune(kind, gens)
	return gen, nil
}

// LoadLatest returns the newest generation of kind that passes full
// verification. A generation that fails is quarantined (renamed aside
// with the .corrupt suffix) and the next-older one is tried, so one bad
// rotation never takes a consumer down. A generation written by a newer
// format (ErrUnsupportedVersion) stops the load instead; see reject.
// ErrNotFound when no generation survives.
func (s *Store) LoadLatest(kind string) (*Envelope, uint64, error) {
	return s.LoadLatestVerified(kind, nil)
}

// LoadLatestVerified is LoadLatest with an extra artifact-level check:
// verify (when non-nil) runs on each envelope that passed integrity
// verification, and a generation it rejects is handled exactly like an
// envelope failure — a snapshot whose payload does not decode is as
// unusable as a torn one, and one whose payload schema is newer than
// this reader's is as unreadable as a newer envelope.
func (s *Store) LoadLatestVerified(kind string, verify func(*Envelope) error) (*Envelope, uint64, error) {
	gens, err := s.scan(kind)
	if err != nil {
		return nil, 0, err
	}
	for i := len(gens) - 1; i >= 0; i-- {
		g := gens[i]
		if g.quarantined {
			continue
		}
		env, err := ReadFile(g.path)
		if err == nil && verify != nil {
			if err = verify(env); err != nil {
				err = fmt.Errorf("%s: %w", g.path, err)
			}
		}
		if err == nil {
			return env, g.gen, nil
		}
		if err := s.reject(kind, g, err); err != nil {
			return nil, 0, err
		}
	}
	return nil, 0, fmt.Errorf("%w: kind %q in %s", ErrNotFound, kind, s.dir)
}

// reject disposes of a generation that failed to load with err (which
// names its file). A generation written by a newer format is refused:
// the returned error ends the load, the file keeps its name, and no
// older generation is served in its place, because that would silently
// roll back state the newer writer has already acknowledged. Any other
// failure quarantines the file and returns nil, so the caller falls
// back to the next-older generation.
func (s *Store) reject(kind string, g generation, err error) error {
	if errors.Is(err, ErrUnsupportedVersion) {
		return fmt.Errorf("store: %s generation %d was written by a newer version; not loading it or anything older: %w", kind, g.gen, err)
	}
	if quarantineErr := s.Quarantine(g.path); quarantineErr != nil {
		s.logf("store: %s failed verification (%v) and could not be quarantined: %v",
			g.path, err, quarantineErr)
	} else {
		s.logf("store: quarantined %s generation %d: %v", kind, g.gen, err)
	}
	return nil
}

// Quarantine renames a failed snapshot aside so it is never loaded
// again but stays available for post-mortem inspection.
func (s *Store) Quarantine(path string) error {
	if err := os.Rename(path, path+quarantineSuffix); err != nil {
		return err
	}
	return SyncDir(filepath.Dir(path))
}

// Generations lists the verifiable-on-disk (non-quarantined) generation
// numbers of kind in ascending order. The files are not re-verified;
// use LoadLatest for a checked read.
func (s *Store) Generations(kind string) ([]uint64, error) {
	gens, err := s.scan(kind)
	if err != nil {
		return nil, err
	}
	out := make([]uint64, 0, len(gens))
	for _, g := range gens {
		if !g.quarantined {
			out = append(out, g.gen)
		}
	}
	return out, nil
}

type generation struct {
	gen         uint64
	path        string
	quarantined bool
}

// scan lists every generation of kind — live and quarantined — in
// ascending generation order. Quarantined files participate so their
// numbers are never reissued; temp files from in-progress or crashed
// writes never match the name pattern and are ignored.
func (s *Store) scan(kind string) ([]generation, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var gens []generation
	for _, e := range entries {
		name := e.Name()
		quarantined := false
		if n, ok := strings.CutSuffix(name, quarantineSuffix); ok {
			name, quarantined = n, true
		}
		m := snapRE.FindStringSubmatch(name)
		if m == nil || m[1] != kind {
			continue
		}
		gen, err := strconv.ParseUint(m[2], 10, 64)
		if err != nil {
			continue
		}
		gens = append(gens, generation{gen: gen, path: filepath.Join(s.dir, e.Name()), quarantined: quarantined})
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i].gen < gens[j].gen })
	return gens, nil
}

// prune removes live generations beyond the retention bound. gens is
// the pre-write ascending scan, so with the just-written generation the
// newest retain-1 of them survive. Quarantined files are kept: they are
// operator evidence, not rotation members.
func (s *Store) prune(kind string, gens []generation) {
	live := make([]generation, 0, len(gens))
	for _, g := range gens {
		if !g.quarantined {
			live = append(live, g)
		}
	}
	excess := len(live) - (s.retain - 1)
	for i := 0; i < excess; i++ {
		if err := os.Remove(live[i].path); err != nil {
			s.logf("store: pruning %s generation %d: %v", kind, live[i].gen, err)
		}
	}
}

// ReadFile parses and fully verifies one snapshot file.
func ReadFile(path string) (*Envelope, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	env, err := ParseEnvelope(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return env, nil
}

// WriteFile atomically writes one standalone snapshot file (no
// generation rotation) — the durability primitive for single-file
// artifacts like census checkpoints, and the write under Store.Write.
// The envelope streams into the temp file section by section through
// one buffer of writeBuffer bytes, so a Stream section is never held
// in memory whole; a section that fails or writes other than its
// declared size leaves no file behind.
func WriteFile(path string, sections []Section) error {
	return AtomicWrite(path, func(f *os.File) error {
		return encodeTo(f, sections)
	})
}

// encodeTo writes the envelope of sections to w through the write
// buffer: exactly the bytes WriteFile puts in its temp file.
func encodeTo(w io.Writer, sections []Section) error {
	bw := bufio.NewWriterSize(w, writeBuffer)
	if err := writeEnvelope(bw, sections); err != nil {
		return err
	}
	return bw.Flush()
}

// writeBuffer sizes WriteFile's write buffer: large enough that the
// envelope's small framing writes cost one syscall per buffer, not
// one each. Payload writes larger than it go to the file directly.
const writeBuffer = 64 << 10

// VerifyFile reports whether path holds an intact envelope.
func VerifyFile(path string) error {
	_, err := ReadFile(path)
	return err
}
