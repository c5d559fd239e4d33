package store

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// chunkedStream is a Stream that writes payload in the uneven chunk
// lengths cuts gives (each taken mod 97, plus 1), cycling.
func chunkedStream(payload, cuts []byte) func(io.Writer) error {
	return func(w io.Writer) error {
		for i, p := 0, payload; len(p) > 0; i++ {
			n := 1
			if len(cuts) > 0 {
				n += int(cuts[i%len(cuts)]) % 97
			}
			n = min(n, len(p))
			if _, err := w.Write(p[:n]); err != nil {
				return err
			}
			p = p[n:]
		}
		return nil
	}
}

// FuzzStreamedEnvelope encodes random sections the way WriteFile does,
// every other one streamed in uneven chunks, and requires the bytes to
// equal EncodeEnvelope of the same sections as Payloads — and
// ParseEnvelope to accept them with every payload where PayloadOffset
// says. Sections EncodeEnvelope refuses must fail. One input in eight
// (by its cut count) also goes through WriteFile itself, whose file
// must hold those bytes, or, when refused, not exist; fsyncing every
// input would leave the fuzzer a few execs a second.
func FuzzStreamedEnvelope(f *testing.F) {
	f.Add("meta/graph", []byte(`{"artifact":"graphbin"}0123456789abcdef`), []byte{23, 5, 200, 0})
	f.Add("a", []byte{}, []byte{})
	f.Add("x//y", []byte("three sections, one empty name"), []byte{1})
	f.Add("meta/ingestmeta/graph", bytes.Repeat([]byte{7, 0, 255}, 400), []byte{96, 3, 41})
	f.Add(strings.Repeat("n", 256), []byte("name too long"), []byte{9})
	path := filepath.Join(f.TempDir(), "env.snap")

	f.Fuzz(func(t *testing.T, names string, data, cuts []byte) {
		split := strings.Split(names, "/")
		if len(split) > maxSections+1 {
			split = split[:maxSections+1]
		}
		streamed := make([]Section, len(split))
		plain := make([]Section, len(split))
		for i, name := range split {
			var p []byte
			if i == len(split)-1 {
				p = data
			} else if len(cuts) > 0 {
				n := min(len(data), int(cuts[i%len(cuts)]))
				p, data = data[:n], data[n:]
			}
			plain[i] = Section{Name: name, Payload: p}
			streamed[i] = plain[i]
			if i%2 == 0 {
				streamed[i] = Section{Name: name, Size: len(p), Stream: chunkedStream(p, cuts)}
			}
		}
		want, refErr := EncodeEnvelope(plain)
		var buf bytes.Buffer
		err := encodeTo(&buf, streamed)
		got := buf.Bytes()
		if len(cuts)%8 == 0 {
			os.Remove(path)
			err = WriteFile(path, streamed)
			if refErr == nil && err == nil {
				if got, err = os.ReadFile(path); err != nil {
					t.Fatal(err)
				}
			} else if _, statErr := os.Stat(path); !errors.Is(statErr, os.ErrNotExist) {
				t.Fatalf("refused write left a file: %v", statErr)
			}
		}
		if refErr != nil {
			if err == nil {
				t.Fatalf("sections EncodeEnvelope refuses (%v) were written", refErr)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("streamed file (%d bytes) differs from the buffered envelope (%d bytes)", len(got), len(want))
		}
		env, err := ParseEnvelope(got)
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range plain {
			off := PayloadOffset(streamed, i)
			if !bytes.Equal(env.Sections[i].Payload, s.Payload) || !bytes.Equal(got[off:off+len(s.Payload)], s.Payload) {
				t.Fatalf("section %d payload not at offset %d or changed", i, off)
			}
		}
	})
}

// TestFailedSectionLeavesNothing: a Stream that errors, falls short of
// its declared size or runs past it fails the write, and leaves
// neither a new generation nor a temp file; the previous generation
// stays the newest.
func TestFailedSectionLeavesNothing(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Write("k", testSections("good")); err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("abcdefgh"), 20000) // past the write buffer
	boom := errors.New("encoder failed")
	for _, tc := range []struct {
		name string
		sec  Section
	}{
		{"errors", Section{Name: "body", Size: len(payload), Stream: func(w io.Writer) error {
			if _, err := w.Write(payload[:len(payload)/2]); err != nil {
				return err
			}
			return boom
		}}},
		{"short", Section{Name: "body", Size: len(payload) + 1, Stream: chunkedStream(payload, []byte{50})}},
		{"long", Section{Name: "body", Size: len(payload) - 1, Stream: chunkedStream(payload, []byte{50})}},
		{"long, error ignored", Section{Name: "body", Size: 10, Stream: func(w io.Writer) error {
			w.Write(payload[:10])
			w.Write(payload[:1])
			return nil
		}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sections := []Section{{Name: "meta", Payload: []byte("{}")}, tc.sec}
			gen, err := st.Write("k", sections)
			if err == nil {
				t.Fatalf("write succeeded as generation %d", gen)
			}
			if tc.name == "errors" && !errors.Is(err, boom) {
				t.Fatalf("stream error not wrapped: %v", err)
			}
			if err := WriteFile(filepath.Join(dir, "single.snap"), sections); err == nil {
				t.Fatal("WriteFile succeeded")
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			var names []string
			for _, e := range entries {
				names = append(names, e.Name())
			}
			if want := []string{"k-g0000000001.snap"}; fmt.Sprint(names) != fmt.Sprint(want) {
				t.Fatalf("store holds %v, want %v", names, want)
			}
		})
	}
	env, gen, err := st.LoadLatest("k")
	if err != nil || gen != 1 {
		t.Fatalf("LoadLatest: generation %d, %v", gen, err)
	}
	if body, _ := env.Section("body"); string(body) != "payload-good" {
		t.Fatalf("generation 1 body %q", body)
	}
}

// TestConcurrentWritersDistinctGenerations: writers racing on one
// Store and kind each get their own generation, and every one loads.
func TestConcurrentWritersDistinctGenerations(t *testing.T) {
	const writers = 8
	st, err := Open(t.TempDir(), Options{Retain: 64})
	if err != nil {
		t.Fatal(err)
	}
	gens := make([]uint64, writers)
	errs := make([]error, writers)
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			payload := bytes.Repeat([]byte{byte(i)}, 64<<10)
			gens[i], errs[i] = st.Write("k", []Section{{Name: "body", Payload: payload}})
		}(i)
	}
	wg.Wait()
	seen := make(map[uint64]int)
	for i := 0; i < writers; i++ {
		if errs[i] != nil {
			t.Fatalf("writer %d: %v", i, errs[i])
		}
		if j, dup := seen[gens[i]]; dup {
			t.Fatalf("writers %d and %d both got generation %d", j, i, gens[i])
		}
		seen[gens[i]] = i
		env, err := ReadFile(st.Path("k", gens[i]))
		if err != nil {
			t.Fatalf("writer %d generation %d: %v", i, gens[i], err)
		}
		if body, _ := env.Section("body"); len(body) != 64<<10 || body[0] != byte(i) {
			t.Fatalf("generation %d does not hold writer %d's payload", gens[i], i)
		}
	}
	on, err := st.Generations("k")
	if err != nil || len(on) != writers {
		t.Fatalf("%d generations on disk (%v), want %d", len(on), err, writers)
	}
}
