//go:build smoke

// End-to-end smoke test for zero-downtime hot reload: builds the real
// binary under the race detector, boots it on an artifact store seeded
// from a TSV graph, then — while client traffic hammers /v1/features —
// rotates new graph generations in via POST /v1/admin/reload and
// SIGHUP, corrupts a snapshot on disk to prove the daemon quarantines
// it and keeps serving the last good generation, and finally drains
// cleanly. Zero requests may fail across every reload.
//
// Gated behind the "smoke" build tag; run it with `make reload-smoke`.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"hsgf"
	"hsgf/internal/graph"
)

// buildGraph assembles a connected labelled graph of n nodes in memory,
// seeded so distinct sizes give distinct fingerprints.
func buildGraph(t *testing.T, n int, seed int64) *hsgf.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilderWithAlphabet(graph.MustAlphabet("loc", "org", "act"))
	for i := 0; i < n; i++ {
		if _, err := b.AddLabeledNode(graph.Label(rng.Intn(3))); err != nil {
			t.Fatal(err)
		}
	}
	for v := 1; v < n; v++ {
		if err := b.AddEdge(graph.NodeID(rng.Intn(v)), graph.NodeID(v)); err != nil {
			t.Fatal(err)
		}
		u := rng.Intn(n)
		if u != v {
			if err := b.AddEdge(graph.NodeID(v), graph.NodeID(u)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return b.MustBuild()
}

func TestReloadSmoke(t *testing.T) {
	tmp := t.TempDir()
	tsv := filepath.Join(tmp, "graph.tsv")
	storeDir := filepath.Join(tmp, "store")

	f, err := os.Create(tsv)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteTSV(f, buildGraph(t, 200, 1)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	bin := filepath.Join(tmp, "hsgfd")
	build := exec.Command("go", "build", "-race", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build -race: %v\n%s", err, out)
	}

	cmd := exec.Command(bin,
		"-in", tsv,
		"-store", storeDir,
		"-addr", "127.0.0.1:0",
		"-emax", "3",
		"-max-inflight", "8",
		"-max-queue", "64",
		"-drain-grace", "10s",
	)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if cmd.Process != nil {
			_ = cmd.Process.Kill()
		}
	}()

	addrCh := make(chan string, 1)
	var logTail bytes.Buffer
	var logMu sync.Mutex
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			logMu.Lock()
			fmt.Fprintln(&logTail, line)
			logMu.Unlock()
			if i := strings.Index(line, "listening on "); i >= 0 {
				addr := strings.Fields(line[i+len("listening on "):])[0]
				select {
				case addrCh <- addr:
				default:
				}
			}
		}
	}()
	var base string
	select {
	case addr := <-addrCh:
		base = "http://" + addr
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never reported its listen address")
	}

	type metaBody struct {
		Fingerprint string `json:"fingerprint"`
		Generation  uint64 `json:"generation"`
		Nodes       int    `json:"nodes"`
	}
	getMeta := func() metaBody {
		resp, err := http.Get(base + "/v1/meta")
		if err != nil {
			t.Fatalf("GET /v1/meta: %v", err)
		}
		defer resp.Body.Close()
		var m metaBody
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatalf("meta decode: %v", err)
		}
		return m
	}

	// Boot imported the TSV into the store as generation 1.
	if m := getMeta(); m.Generation != 1 || m.Nodes != 200 {
		t.Fatalf("boot meta = %+v, want generation 1 over 200 nodes", m)
	}

	// Client traffic for the whole reload sequence: every response must
	// be a fully served 200 — a reload that drops or fails a request is
	// the bug this test exists to catch.
	var (
		stop      atomic.Bool
		served    atomic.Int64
		failedN   atomic.Int64
		trafficWG sync.WaitGroup
	)
	for c := 0; c < 4; c++ {
		trafficWG.Add(1)
		go func() {
			defer trafficWG.Done()
			for !stop.Load() {
				resp, err := http.Post(base+"/v1/features", "application/json",
					strings.NewReader(`{"roots":[1,2,3]}`))
				if err != nil {
					failedN.Add(1)
					t.Errorf("traffic request: %v", err)
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					failedN.Add(1)
					t.Errorf("traffic request: status %d", resp.StatusCode)
					continue
				}
				served.Add(1)
			}
		}()
	}

	reload := func() (int, map[string]any) {
		resp, err := http.Post(base+"/v1/admin/reload", "application/json", nil)
		if err != nil {
			t.Fatalf("POST /v1/admin/reload: %v", err)
		}
		defer resp.Body.Close()
		var body map[string]any
		json.NewDecoder(resp.Body).Decode(&body)
		return resp.StatusCode, body
	}

	// Rotate a bigger graph in as generation 2 and hot-reload it.
	st, err := hsgf.OpenStore(storeDir, hsgf.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := hsgf.SaveGraphSnapshot(st, buildGraph(t, 300, 2))
	if err != nil {
		t.Fatal(err)
	}
	if gen != 2 {
		t.Fatalf("second snapshot = generation %d, want 2", gen)
	}
	if code, body := reload(); code != http.StatusOK {
		t.Fatalf("reload to generation 2 = %d: %v", code, body)
	}
	if m := getMeta(); m.Generation != 2 || m.Nodes != 300 {
		t.Fatalf("post-reload meta = %+v, want generation 2 over 300 nodes", m)
	}

	// Corrupt the next generation on disk: the daemon must quarantine it
	// during reload and keep serving generation 2 — no crash, no outage.
	if _, err := hsgf.SaveGraphSnapshot(st, buildGraph(t, 250, 3)); err != nil {
		t.Fatal(err)
	}
	snapPath := filepath.Join(storeDir, "graphbin-g0000000003.snap")
	raw, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xFF
	if err := os.WriteFile(snapPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if code, body := reload(); code != http.StatusOK {
		t.Fatalf("reload over corrupt generation 3 = %d: %v (must fall back, not fail)", code, body)
	}
	if m := getMeta(); m.Generation != 2 || m.Nodes != 300 {
		t.Fatalf("meta after corrupt generation = %+v, want generation 2 still serving", m)
	}
	if _, err := os.Stat(snapPath + ".corrupt"); err != nil {
		t.Errorf("corrupt snapshot not quarantined: %v", err)
	}

	// SIGHUP picks up a fresh good generation without any HTTP trigger.
	if gen, err = hsgf.SaveGraphSnapshot(st, buildGraph(t, 350, 4)); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Process.Signal(syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		if m := getMeta(); m.Generation == gen && m.Nodes == 350 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("SIGHUP reload never reached generation %d: meta %+v", gen, getMeta())
		}
		time.Sleep(100 * time.Millisecond)
	}

	stop.Store(true)
	trafficWG.Wait()
	if failedN.Load() != 0 {
		t.Fatalf("%d requests failed across reloads (%d served)", failedN.Load(), served.Load())
	}
	t.Logf("served %d requests across reload sequence with zero failures", served.Load())

	// Reload stats surfaced the failure-free rotation.
	resp, err := http.Get(base + "/debug/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Reloads  int64 `json:"reloads"`
		ReloadOK int64 `json:"reload_ok"`
	}
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil || stats.ReloadOK < 3 {
		t.Fatalf("stats = %+v (err %v), want >= 3 successful reloads", stats, err)
	}

	// Graceful drain still works after the reload churn.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waitErr := make(chan error, 1)
	go func() { waitErr <- cmd.Wait() }()
	select {
	case err := <-waitErr:
		if err != nil {
			logMu.Lock()
			tail := logTail.String()
			logMu.Unlock()
			t.Fatalf("daemon exited non-zero after SIGTERM: %v\n%s", err, tail)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not exit within the drain window after SIGTERM")
	}
}
