package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hsgf/internal/core"
	"hsgf/internal/graph"
	"hsgf/internal/store"
)

// reloadableServer builds a server whose reloader swaps between two
// distinct extractors (different graphs, so different fingerprints),
// bumping the generation on every successful reload.
func reloadableServer(t testing.TB, cfg Config) (*Server, *core.Extractor, *core.Extractor) {
	t.Helper()
	exA, err := core.NewExtractor(testGraph(t, 30), core.Options{MaxEdges: 3})
	if err != nil {
		t.Fatal(err)
	}
	exB, err := core.NewExtractor(testGraph(t, 40), core.Options{MaxEdges: 3})
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(exA, cfg)
	var gen atomic.Uint64
	s.SetReloader(func(ctx context.Context) (*Snapshot, error) {
		g := gen.Add(1)
		ex := exA
		if g%2 == 1 {
			ex = exB
		}
		snap := NewSnapshot(ex)
		snap.Generation = g
		snap.Source = "test"
		return snap, nil
	})
	return s, exA, exB
}

func TestReloadSwapsGeneration(t *testing.T) {
	s, exA, exB := reloadableServer(t, Config{})
	fpA, fpB := fingerprint(exA), fingerprint(exB)
	if fpA == fpB {
		t.Fatal("test graphs must have distinct fingerprints")
	}

	var meta MetaResponse
	doJSON(t, s, http.MethodGet, "/v1/meta", "", &meta)
	if meta.Fingerprint != fpA || meta.Generation != 0 {
		t.Fatalf("initial meta = %+v, want fingerprint %s gen 0", meta, fpA)
	}

	var resp ReloadResponse
	if w := doJSON(t, s, http.MethodPost, "/v1/admin/reload", "", &resp); w.Code != http.StatusOK {
		t.Fatalf("reload = %d: %s", w.Code, w.Body.String())
	}
	if resp.Generation != 1 || resp.Fingerprint != fpB {
		t.Fatalf("reload response = %+v, want gen 1 fingerprint %s", resp, fpB)
	}

	doJSON(t, s, http.MethodGet, "/v1/meta", "", &meta)
	if meta.Fingerprint != fpB || meta.Generation != 1 {
		t.Fatalf("post-reload meta = %+v, want fingerprint %s gen 1", meta, fpB)
	}

	var stats StatsSnapshot
	doJSON(t, s, http.MethodGet, "/debug/stats", "", &stats)
	if stats.Reloads != 1 || stats.ReloadOK != 1 || stats.ReloadFailed != 0 {
		t.Errorf("stats = %d/%d/%d, want 1 attempt 1 ok 0 failed",
			stats.Reloads, stats.ReloadOK, stats.ReloadFailed)
	}
	if stats.Generation != 1 || stats.LastReload == nil || stats.LastReload.Outcome != "ok" {
		t.Errorf("stats reload state = gen %d lastReload %+v", stats.Generation, stats.LastReload)
	}
}

func TestReloadUnsupportedWithoutReloader(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	w := doJSON(t, s, http.MethodPost, "/v1/admin/reload", "", nil)
	if w.Code != http.StatusNotImplemented || errorCode(t, w) != "reload_unsupported" {
		t.Fatalf("reload without reloader = %d %q", w.Code, errorCode(t, w))
	}
	if w := doJSON(t, s, http.MethodGet, "/v1/admin/reload", "", nil); w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET reload = %d, want 405", w.Code)
	}
}

func TestReloadFailureKeepsOldGeneration(t *testing.T) {
	s, ex := newTestServer(t, Config{})
	boom := errors.New("artifact store on fire")
	s.SetReloader(func(ctx context.Context) (*Snapshot, error) { return nil, boom })

	w := doJSON(t, s, http.MethodPost, "/v1/admin/reload", "", nil)
	if w.Code != http.StatusInternalServerError || errorCode(t, w) != "reload_failed" {
		t.Fatalf("failed reload = %d %q", w.Code, errorCode(t, w))
	}

	// The old generation must still serve, and the failure must be
	// visible in the stats without flipping readiness.
	var resp FeaturesResponse
	if w := doJSON(t, s, http.MethodPost, "/v1/features", `{"roots":[0]}`, &resp); w.Code != http.StatusOK {
		t.Fatalf("features after failed reload = %d", w.Code)
	}
	if got := s.Snapshot().Fingerprint; got != fingerprint(ex) {
		t.Errorf("serving fingerprint changed after failed reload: %s", got)
	}
	var stats StatsSnapshot
	doJSON(t, s, http.MethodGet, "/debug/stats", "", &stats)
	if stats.ReloadFailed != 1 || stats.LastReload == nil || stats.LastReload.Outcome != "failed" {
		t.Errorf("failure not recorded: %d failed, lastReload %+v", stats.ReloadFailed, stats.LastReload)
	}
	if w := doJSON(t, s, http.MethodGet, "/readyz", "", nil); w.Code != http.StatusOK {
		t.Errorf("readyz = %d after failed reload, want 200 (old generation still serves)", w.Code)
	}

	// A nil-snapshot reloader is a failure too, never a nil deref.
	s.SetReloader(func(ctx context.Context) (*Snapshot, error) { return &Snapshot{}, nil })
	if _, err := s.Reload(context.Background()); err == nil {
		t.Fatal("empty snapshot accepted")
	}
}

// TestReloadRefusesNewerGeneration: a hot reload over a store whose
// newest graph generation was written by a newer binary (a later
// schema with an extra section) must fail with ErrUnsupportedVersion
// and keep serving the current generation, leaving the newer file in
// place and falling back to nothing older.
func TestReloadRefusesNewerGeneration(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.SaveGraphSnapshots(st, testGraph(t, 30)); err != nil {
		t.Fatal(err)
	}
	reloader := func(context.Context) (*Snapshot, error) {
		g, gen, err := core.LoadGraphSnapshotAuto(st)
		if err != nil {
			return nil, err
		}
		ex, err := core.NewExtractor(g, core.Options{MaxEdges: 3})
		if err != nil {
			return nil, err
		}
		snap := NewSnapshot(ex)
		snap.Generation = gen
		return snap, nil
	}
	snap, err := reloader(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	s := NewServerSnapshot(snap, Config{})
	s.SetReloader(reloader)

	payload, err := graph.EncodeBinary(testGraph(t, 40), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Any schema past this reader's; the extra section is what a newer
	// layout would add.
	sections, err := core.ArtifactSections(core.ArtifactGraphBin, 99,
		store.Section{Name: core.ArtifactGraphBin, Payload: payload},
		store.Section{Name: "edgetypes", Payload: []byte{0}})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := st.Write(core.ArtifactGraphBin, sections)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := s.Reload(context.Background()); !errors.Is(err, store.ErrUnsupportedVersion) {
		t.Fatalf("reload over a newer generation: %v, want ErrUnsupportedVersion", err)
	}
	if cur := s.Snapshot(); cur != snap || cur.Generation != 1 {
		t.Fatalf("serving generation %d after the refused reload, want the current generation 1", cur.Generation)
	}
	var resp FeaturesResponse
	if w := doJSON(t, s, http.MethodPost, "/v1/features", `{"roots":[0]}`, &resp); w.Code != http.StatusOK {
		t.Fatalf("features after the refused reload = %d", w.Code)
	}
	if _, err := os.Stat(st.Path(core.ArtifactGraphBin, gen)); err != nil {
		t.Fatalf("newer generation lost its name: %v", err)
	}
}

func TestReloadSingleFlight(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	release := make(chan struct{})
	started := make(chan struct{})
	s.SetReloader(func(ctx context.Context) (*Snapshot, error) {
		close(started)
		<-release
		return nil, errors.New("slow failure")
	})

	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Reload(context.Background())
	}()
	<-started

	w := doJSON(t, s, http.MethodPost, "/v1/admin/reload", "", nil)
	if w.Code != http.StatusConflict || errorCode(t, w) != "reload_in_progress" {
		t.Fatalf("concurrent reload = %d %q, want 409 reload_in_progress", w.Code, errorCode(t, w))
	}
	close(release)
	<-done
}

// TestReloadUnderConcurrentLoad hammers /v1/features from many
// goroutines while reloads continuously swap between two generations.
// Zero requests may fail: every response must be a fully formed 200,
// and each must be internally consistent with exactly one generation
// (the RCU contract — a request never observes a mid-flight swap).
// Afterwards the goroutine count must return to baseline (no leaks from
// the reload path). Run with -race to check the swap discipline.
func TestReloadUnderConcurrentLoad(t *testing.T) {
	baseline := runtime.NumGoroutine()

	// Queue deep enough that admission never sheds: load-shedding 429s
	// would mask reload-induced failures.
	s, exA, exB := reloadableServer(t, Config{MaxInFlight: 8, MaxQueue: 1024})

	const (
		clients   = 8
		perClient = 40
	)
	var (
		wg      sync.WaitGroup
		failed  atomic.Int64
		served  atomic.Int64
		stopRel = make(chan struct{})
	)

	// Reload as fast as single-flight allows for the whole test.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stopRel:
				return
			default:
			}
			if _, err := s.Reload(context.Background()); err != nil && !errors.Is(err, ErrReloadInProgress) {
				t.Errorf("reload under load failed: %v", err)
				return
			}
		}
	}()

	var clientWG sync.WaitGroup
	for c := 0; c < clients; c++ {
		clientWG.Add(1)
		go func(c int) {
			defer clientWG.Done()
			for i := 0; i < perClient; i++ {
				var resp FeaturesResponse
				body := fmt.Sprintf(`{"roots":[%d,%d,%d]}`, i%20, (i+3)%20, (i+7)%20)
				w := doJSON(t, s, http.MethodPost, "/v1/features", body, &resp)
				if w.Code != http.StatusOK {
					failed.Add(1)
					t.Errorf("client %d req %d: status %d body %s", c, i, w.Code, w.Body.String())
					continue
				}
				if len(resp.Rows) != 3 {
					failed.Add(1)
					t.Errorf("client %d req %d: %d rows", c, i, len(resp.Rows))
					continue
				}
				// Every row of one response came from one snapshot: the
				// reply's fingerprint must be one of the two generations,
				// never empty or mixed garbage.
				if resp.Fingerprint != fingerprint(exA) && resp.Fingerprint != fingerprint(exB) {
					failed.Add(1)
					t.Errorf("client %d req %d: unknown fingerprint %q", c, i, resp.Fingerprint)
					continue
				}
				served.Add(1)
			}
		}(c)
	}
	clientWG.Wait()
	close(stopRel)
	wg.Wait()

	if failed.Load() != 0 {
		t.Fatalf("%d/%d requests failed during hot reload", failed.Load(), clients*perClient)
	}
	if served.Load() != clients*perClient {
		t.Fatalf("served %d, want %d", served.Load(), clients*perClient)
	}

	var stats StatsSnapshot
	doJSON(t, s, http.MethodGet, "/debug/stats", "", &stats)
	if stats.ReloadOK == 0 {
		t.Error("no reload completed during the load window")
	}
	t.Logf("served %d requests across %d reloads", served.Load(), stats.ReloadOK)

	// Goroutine-leak check: allow the runtime a moment to reap workers.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d > baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}
