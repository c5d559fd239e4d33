package store

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func testSections(tag string) []Section {
	return []Section{
		{Name: "meta", Payload: []byte(`{"artifact":"test","schema":1}`)},
		{Name: "body", Payload: []byte("payload-" + tag)},
	}
}

func TestEnvelopeRoundTrip(t *testing.T) {
	sections := []Section{
		{Name: "meta", Payload: []byte(`{"k":1}`)},
		{Name: "empty", Payload: nil},
		{Name: "bin", Payload: []byte{0, 1, 2, 255, 254}},
	}
	data, err := EncodeEnvelope(sections)
	if err != nil {
		t.Fatal(err)
	}
	env, err := ParseEnvelope(data)
	if err != nil {
		t.Fatal(err)
	}
	if env.Version != FormatVersion {
		t.Fatalf("version %d, want %d", env.Version, FormatVersion)
	}
	if len(env.Sections) != len(sections) {
		t.Fatalf("%d sections, want %d", len(env.Sections), len(sections))
	}
	for i, s := range sections {
		got := env.Sections[i]
		if got.Name != s.Name || !bytes.Equal(got.Payload, s.Payload) {
			t.Fatalf("section %d: got %q/%q, want %q/%q", i, got.Name, got.Payload, s.Name, s.Payload)
		}
	}
	// Canonical encoding: re-encoding a parsed envelope is byte-identical.
	again, err := EncodeEnvelope(env.Sections)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Fatal("re-encoding a parsed envelope changed the bytes")
	}
}

func TestEnvelopeRejectsBadSections(t *testing.T) {
	if _, err := EncodeEnvelope(nil); err == nil {
		t.Error("empty envelope accepted")
	}
	if _, err := EncodeEnvelope([]Section{{Name: "", Payload: []byte("x")}}); err == nil {
		t.Error("unnamed section accepted")
	}
	if _, err := EncodeEnvelope([]Section{{Name: strings.Repeat("n", maxSectionName+1)}}); err == nil {
		t.Error("oversized section name accepted")
	}
}

func TestParseRejectsUnsupportedVersion(t *testing.T) {
	data, err := EncodeEnvelope(testSections("v"))
	if err != nil {
		t.Fatal(err)
	}
	// The version field sits right after the header magic; bumping it
	// invalidates the manifest, so recompute the footer the way a future
	// writer would.
	data[len(headerMagic)] = FormatVersion + 1
	data = resign(data)
	_, err = ParseEnvelope(data)
	if !errors.Is(err, ErrUnsupportedVersion) {
		t.Fatalf("future version: got %v, want ErrUnsupportedVersion", err)
	}
	if errors.Is(err, ErrCorrupt) {
		t.Fatal("future version misclassified as corruption")
	}
}

func TestParseRejectsTrailingGarbage(t *testing.T) {
	data, err := EncodeEnvelope(testSections("t"))
	if err != nil {
		t.Fatal(err)
	}
	// Splice extra bytes between the last section and the footer, then
	// re-sign. The framing, not the digest, must catch this: it models a
	// future writer appending a section this reader does not know about.
	body := data[:len(data)-footerLen]
	extra := append(append([]byte{}, body...), []byte("unknown-trailing-section")...)
	_, err = ParseEnvelope(resign(append(extra, data[len(data)-footerLen:]...)))
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing bytes: got %v, want ErrCorrupt", err)
	}
}

// resign recomputes the manifest footer after a deliberate mutation, so
// tests can isolate framing checks from the whole-file digest.
func resign(data []byte) []byte {
	out := append([]byte{}, data[:len(data)-footerLen]...)
	sum := sha256.Sum256(out)
	out = append(out, sum[:]...)
	return append(out, footerMagic...)
}

func TestStoreWriteLoadRotate(t *testing.T) {
	s, err := Open(t.TempDir(), Options{Retain: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		gen, err := s.Write("feat", testSections(string(rune('a'+i))))
		if err != nil {
			t.Fatal(err)
		}
		if gen != uint64(i) {
			t.Fatalf("write %d assigned generation %d", i, gen)
		}
	}
	gens, err := s.Generations("feat")
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) != 2 || gens[0] != 4 || gens[1] != 5 {
		t.Fatalf("retention kept generations %v, want [4 5]", gens)
	}
	env, gen, err := s.LoadLatest("feat")
	if err != nil {
		t.Fatal(err)
	}
	if gen != 5 {
		t.Fatalf("latest generation %d, want 5", gen)
	}
	if body, ok := env.Section("body"); !ok || string(body) != "payload-f" {
		t.Fatalf("latest body %q", body)
	}
}

func TestStoreKindsAreIndependent(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Write("graph", testSections("g")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Write("featureset", testSections("f")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.LoadLatest("checkpoint"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing kind: got %v, want ErrNotFound", err)
	}
	gens, err := s.Generations("graph")
	if err != nil || len(gens) != 1 {
		t.Fatalf("graph generations %v (err %v)", gens, err)
	}
}

func TestStoreRejectsBadKind(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{"", "UPPER", "has space", "../escape", "-lead"} {
		if _, err := s.Write(kind, testSections("x")); err == nil {
			t.Errorf("kind %q accepted", kind)
		}
	}
}

func TestQuarantineFallback(t *testing.T) {
	var logged []string
	s, err := Open(t.TempDir(), Options{Log: func(f string, a ...any) {
		logged = append(logged, f)
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Write("feat", testSections("good")); err != nil {
		t.Fatal(err)
	}
	gen2, err := s.Write("feat", testSections("newer"))
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the newest generation on disk.
	path := s.Path("feat", gen2)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	env, gen, err := s.LoadLatest("feat")
	if err != nil {
		t.Fatal(err)
	}
	if gen != 1 {
		t.Fatalf("fell back to generation %d, want 1", gen)
	}
	if body, _ := env.Section("body"); string(body) != "payload-good" {
		t.Fatalf("fallback body %q", body)
	}
	if _, err := os.Stat(path + quarantineSuffix); err != nil {
		t.Fatalf("corrupt generation not quarantined: %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("corrupt generation still present under its live name")
	}
	if len(logged) == 0 {
		t.Error("quarantine was not logged")
	}

	// The burned generation number is never reissued.
	gen3, err := s.Write("feat", testSections("after"))
	if err != nil {
		t.Fatal(err)
	}
	if gen3 != gen2+1 {
		t.Fatalf("post-quarantine write got generation %d, want %d", gen3, gen2+1)
	}
}

// TestLoadLatestVerifiedMultiQuarantineFallback walks LoadLatestVerified
// through a store whose newest three generations are all bad — two torn
// on disk, one rejected by the artifact-level verify hook — and checks
// it lands on the oldest good generation, quarantines every failure in
// one pass, and never re-reads quarantined files on later calls.
func TestLoadLatestVerifiedMultiQuarantineFallback(t *testing.T) {
	s, err := Open(t.TempDir(), Options{Retain: 8})
	if err != nil {
		t.Fatal(err)
	}
	var gens []uint64
	for _, tag := range []string{"oldest", "torn-a", "torn-b", "rejected"} {
		gen, err := s.Write("feat", testSections(tag))
		if err != nil {
			t.Fatal(err)
		}
		gens = append(gens, gen)
	}
	// Generations 2 and 3 fail integrity verification: flip a byte in
	// one, truncate the other. Generation 4 is bit-perfect but carries a
	// payload the caller's verify hook rejects.
	for _, gen := range gens[1:3] {
		path := s.Path("feat", gen)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if gen == gens[1] {
			data[len(data)/3] ^= 0x55
		} else {
			data = data[:len(data)-footerLen/2]
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	verifyCalls := 0
	verify := func(env *Envelope) error {
		verifyCalls++
		body, ok := env.Section("body")
		if !ok {
			return errors.New("no body section")
		}
		if strings.Contains(string(body), "rejected") {
			return errors.New("payload fails artifact check")
		}
		return nil
	}

	env, gen, err := s.LoadLatestVerified("feat", verify)
	if err != nil {
		t.Fatal(err)
	}
	if gen != gens[0] {
		t.Fatalf("fell back to generation %d, want %d", gen, gens[0])
	}
	if body, _ := env.Section("body"); string(body) != "payload-oldest" {
		t.Fatalf("fallback body %q", body)
	}
	// The verify hook only sees envelopes that passed integrity checks:
	// the rejected generation and the surviving one. Torn files never
	// reach it.
	if verifyCalls != 2 {
		t.Fatalf("verify hook ran %d times, want 2", verifyCalls)
	}
	// All three failures were renamed aside in the single pass.
	for _, gen := range gens[1:] {
		path := s.Path("feat", gen)
		if _, err := os.Stat(path + quarantineSuffix); err != nil {
			t.Errorf("generation %d not quarantined: %v", gen, err)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("generation %d still present under its live name", gen)
		}
	}
	live, err := s.Generations("feat")
	if err != nil {
		t.Fatal(err)
	}
	if len(live) != 1 || live[0] != gens[0] {
		t.Fatalf("live generations %v, want [%d]", live, gens[0])
	}

	// A second load must skip the quarantined files without re-reading
	// them: the verify hook fires exactly once more, for the survivor.
	if _, gen, err := s.LoadLatestVerified("feat", verify); err != nil || gen != gens[0] {
		t.Fatalf("second load: gen %d, err %v", gen, err)
	}
	if verifyCalls != 3 {
		t.Fatalf("verify hook ran %d times after second load, want 3", verifyCalls)
	}
}

func TestLoadLatestAllCorrupt(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		gen, err := s.Write("feat", testSections("x"))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(s.Path("feat", gen), []byte("garbage"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := s.LoadLatest("feat"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("all-corrupt store: got %v, want ErrNotFound", err)
	}
	// Every generation must have been renamed aside.
	matches, err := filepath.Glob(filepath.Join(s.Dir(), "*"+quarantineSuffix))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 3 {
		t.Fatalf("%d quarantined files, want 3", len(matches))
	}
}

func TestWriteFileVerifyFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.bin")
	if err := WriteFile(path, testSections("one")); err != nil {
		t.Fatal(err)
	}
	if err := VerifyFile(path); err != nil {
		t.Fatal(err)
	}
	env, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if body, _ := env.Section("body"); string(body) != "payload-one" {
		t.Fatalf("body %q", body)
	}
}

func TestAtomicWriteReplaces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	if err := AtomicWriteBytes(path, []byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := AtomicWriteBytes(path, []byte("new")); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "new" {
		t.Fatalf("read %q, %v", got, err)
	}
	// The temp file must not linger.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("%d entries after atomic write, want 1", len(entries))
	}
}

// TestNewerGenerationStopsLoad: a newest generation written by a newer
// format, whether the envelope's FormatVersion or the payload schema
// (reported by the verify hook) says so, stops both loaders with
// ErrUnsupportedVersion naming the file. It is neither quarantined nor
// skipped: serving the older generation would silently roll back what
// the newer writer acknowledged.
func TestNewerGenerationStopsLoad(t *testing.T) {
	newerSchema := func(e *Envelope) error {
		if p, _ := e.Section("body"); string(p) == "payload-newer" {
			return fmt.Errorf("%w: test schema 2, reader supports <= 1", ErrUnsupportedVersion)
		}
		return nil
	}
	for _, tc := range []struct {
		name   string
		newer  func(t *testing.T, s *Store) uint64 // writes the newer generation
		verify func(*Envelope) error
	}{
		{"envelope version", func(t *testing.T, s *Store) uint64 {
			gen, err := s.Write("graphbin", testSections("next"))
			if err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(s.Path("graphbin", gen))
			if err != nil {
				t.Fatal(err)
			}
			data[len(headerMagic)] = FormatVersion + 1
			if err := os.WriteFile(s.Path("graphbin", gen), resign(data), 0o644); err != nil {
				t.Fatal(err)
			}
			return gen
		}, nil},
		{"payload schema", func(t *testing.T, s *Store) uint64 {
			gen, err := s.Write("graphbin", testSections("newer"))
			if err != nil {
				t.Fatal(err)
			}
			return gen
		}, newerSchema},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var logged []string
			s, err := Open(t.TempDir(), Options{Log: func(f string, a ...any) { logged = append(logged, fmt.Sprintf(f, a...)) }})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Write("graphbin", testSections("old")); err != nil {
				t.Fatal(err)
			}
			gen := tc.newer(t, s)
			path := s.Path("graphbin", gen)

			_, _, err = s.LoadLatestVerified("graphbin", tc.verify)
			if !errors.Is(err, ErrUnsupportedVersion) || !strings.Contains(err.Error(), path) {
				t.Fatalf("LoadLatestVerified = %v, want ErrUnsupportedVersion naming %s", err, path)
			}
			m, _, _, err := s.LoadLatestMapped("graphbin", tc.verify)
			if !errors.Is(err, ErrUnsupportedVersion) || !strings.Contains(err.Error(), path) {
				if m != nil {
					m.Close()
				}
				t.Fatalf("LoadLatestMapped = %v, want ErrUnsupportedVersion naming %s", err, path)
			}
			if _, err := os.Stat(path); err != nil {
				t.Fatalf("newer generation lost its name: %v", err)
			}
			if gens, err := s.Generations("graphbin"); err != nil || len(gens) != 2 {
				t.Fatalf("generations %v (%v), want both kept", gens, err)
			}
			if len(logged) != 0 {
				t.Fatalf("refusal logged as a quarantine: %q", logged)
			}
		})
	}
}
