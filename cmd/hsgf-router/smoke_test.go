//go:build smoke

// Multi-process smoke test for the routing tier: partitions a synthetic
// graph into 4 shards, boots 8 real hsgfd shard workers (2 replicas per
// shard) plus the real hsgf-router binary — all built under the race
// detector — and exercises the distributed failure modes end to end:
//
//   - scatter/gather over concurrent mixed-root traffic,
//   - a fleet-wide zero-downtime reload while traffic is running
//     (every request during the flip must succeed, every replica must
//     land on the new generation),
//   - SIGKILL of one replica mid-load: zero 5xx, zero degraded rows
//     (the surviving replica absorbs the shard),
//   - SIGKILL of the shard's second replica: batches still answer 200
//     with that shard's roots flagged shard-unavailable and every other
//     shard's rows exact,
//   - graceful SIGTERM drain of router and surviving daemons.
//
// Gated behind the "smoke" build tag; run with `make router-smoke`.
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
	"hsgf/internal/router"
)

const (
	smokeShards   = 4
	smokeReplicas = 2
	smokeNodes    = 600
	smokeEmax     = 3
)

// buildSmokeGraph returns a connected labelled graph with hubs and
// periphery.
func buildSmokeGraph(t *testing.T) *graph.Graph {
	t.Helper()
	return buildSmokeGraphN(t, smokeNodes, 41)
}

// buildSmokeGraphN builds the same shape at any size and seed.
func buildSmokeGraphN(t *testing.T, n int, seed int64) *graph.Graph {
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

// shutdownProc SIGTERMs p and requires a clean exit 0 within the drain
// window.
func shutdownProc(t *testing.T, p *proc) {
	t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("%s: SIGTERM: %v", p.name, err)
	}
	waitErr := make(chan error, 1)
	go func() { waitErr <- p.cmd.Wait() }()
	select {
	case err := <-waitErr:
		if err != nil {
			t.Fatalf("%s exited non-zero after SIGTERM: %v\n%s", p.name, err, p.log())
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("%s did not exit within the drain window", p.name)
	}
}

// writeShardFleet partitions g and writes the one store every replica
// of every shard serves, plus the routing manifest, under dir — the same
// library path `hsgf -partition` drives.
func writeShardFleet(t *testing.T, g *graph.Graph, dir string) (manifestPath, storeDir string) {
	t.Helper()
	plans, err := graph.PartitionByRoot(g, graph.PartitionConfig{NumShards: smokeShards})
	if err != nil {
		t.Fatal(err)
	}
	storeDir = filepath.Join(dir, "store")
	st, err := hsgf.OpenStore(storeDir, hsgf.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hsgf.SaveGraphSnapshot(st, g); err != nil {
		t.Fatal(err)
	}
	manifestPath = filepath.Join(dir, "manifest.json")
	if err := router.WriteManifest(manifestPath, router.BuildManifest(g.NumNodes(), 0, plans)); err != nil {
		t.Fatal(err)
	}
	return manifestPath, storeDir
}

// proc is one child process with its scraped listen address and log tail.
type proc struct {
	name string
	cmd  *exec.Cmd
	addr string

	logMu   sync.Mutex
	logTail bytes.Buffer
}

func (p *proc) log() string {
	p.logMu.Lock()
	defer p.logMu.Unlock()
	return p.logTail.String()
}

// startProc launches bin, scrapes "listening on <addr>" from stderr and
// keeps draining the pipe.
func startProc(t *testing.T, name, bin string, args ...string) *proc {
	t.Helper()
	return startProcEnv(t, name, bin, nil, args...)
}

// startProcEnv is startProc with extra environment variables appended
// to the inherited environment.
func startProcEnv(t *testing.T, name, bin string, env []string, args ...string) *proc {
	t.Helper()
	p := &proc{name: name, cmd: exec.Command(bin, args...)}
	if len(env) > 0 {
		p.cmd.Env = append(os.Environ(), env...)
	}
	stderr, err := p.cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if p.cmd.Process != nil {
			_ = p.cmd.Process.Kill()
			_, _ = p.cmd.Process.Wait()
		}
	})
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			p.logMu.Lock()
			fmt.Fprintln(&p.logTail, line)
			p.logMu.Unlock()
			if i := strings.Index(line, "listening on "); i >= 0 {
				addr := strings.Fields(line[i+len("listening on "):])[0]
				select {
				case addrCh <- addr:
				default:
				}
			}
		}
	}()
	select {
	case addr := <-addrCh:
		p.addr = addr
	case <-time.After(30 * time.Second):
		t.Fatalf("%s never reported its listen address:\n%s", name, p.log())
	}
	return p
}

func TestRouterSmoke(t *testing.T) {
	tmp := t.TempDir()
	g := buildSmokeGraph(t)
	manifestPath, storeDir := writeShardFleet(t, g, tmp)

	// Build both real binaries under the race detector.
	hsgfdBin := filepath.Join(tmp, "hsgfd")
	routerBin := filepath.Join(tmp, "hsgf-router")
	for bin, dir := range map[string]string{hsgfdBin: "../hsgfd", routerBin: "."} {
		build := exec.Command("go", "build", "-race", "-o", bin, dir)
		if out, err := build.CombinedOutput(); err != nil {
			t.Fatalf("go build -race %s: %v\n%s", dir, err, out)
		}
	}

	// Boot 4 shards x 2 replicas, every replica a real hsgfd serving the
	// one store.
	daemons := make([][]*proc, smokeShards)
	var shardFlags []string
	for si := 0; si < smokeShards; si++ {
		var urls []string
		for ri := 0; ri < smokeReplicas; ri++ {
			p := startProc(t, fmt.Sprintf("hsgfd[%d/%d]", si, ri), hsgfdBin,
				"-store", storeDir,
				"-addr", "127.0.0.1:0",
				"-emax", fmt.Sprint(smokeEmax),
				"-max-inflight", "4",
				"-drain-grace", "10s",
			)
			daemons[si] = append(daemons[si], p)
			urls = append(urls, "http://"+p.addr)
		}
		shardFlags = append(shardFlags, "-shard", fmt.Sprintf("%d=%s", si, strings.Join(urls, ",")))
	}

	args := append([]string{
		"-manifest", manifestPath,
		"-addr", "127.0.0.1:0",
		"-probe-interval", "100ms",
		"-fail-after", "1",
		"-retry-attempts", "3",
		"-retry-base", "20ms",
		"-hedge-delay", "40ms",
		"-drain-grace", "10s",
	}, shardFlags...)
	rt := startProc(t, "hsgf-router", routerBin, args...)
	base := "http://" + rt.addr

	get := func(path string) (int, []byte) {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, body
	}

	if code, body := get("/healthz"); code != http.StatusOK {
		t.Fatalf("healthz = %d: %s", code, body)
	}
	if code, body := get("/readyz"); code != http.StatusOK {
		t.Fatalf("readyz = %d: %s", code, body)
	}
	code, body := get("/v1/meta")
	if code != http.StatusOK {
		t.Fatalf("meta = %d: %s", code, body)
	}
	var meta struct {
		NumShards int `json:"num_shards"`
		NumNodes  int `json:"num_nodes"`
	}
	if err := json.Unmarshal(body, &meta); err != nil || meta.NumShards != smokeShards || meta.NumNodes != smokeNodes {
		t.Fatalf("meta body %s (err %v)", body, err)
	}

	// batch posts one mixed-root request and returns status, rows.
	type row struct {
		Root  int64  `json:"root"`
		Flags string `json:"flags"`
	}
	type featResp struct {
		Rows     []row `json:"rows"`
		Degraded bool  `json:"degraded"`
	}
	rng := rand.New(rand.NewSource(97))
	randomRoots := func(n int) []int64 {
		roots := make([]int64, n)
		for i := range roots {
			roots[i] = int64(rng.Intn(smokeNodes))
		}
		return roots
	}
	postBatch := func(roots []int64) (int, featResp, error) {
		b, _ := json.Marshal(map[string]any{"roots": roots})
		resp, err := http.Post(base+"/v1/features", "application/json", bytes.NewReader(b))
		if err != nil {
			return 0, featResp{}, err
		}
		defer resp.Body.Close()
		var fr featResp
		data, _ := io.ReadAll(resp.Body)
		if resp.StatusCode == http.StatusOK {
			if err := json.Unmarshal(data, &fr); err != nil {
				return resp.StatusCode, fr, fmt.Errorf("undecodable body %q: %w", data, err)
			}
		}
		return resp.StatusCode, fr, nil
	}

	// Phase 0: healthy-fleet traffic. Every batch 200, no degradation,
	// rows in request order.
	roots := randomRoots(60)
	code, fr, err := postBatch(roots)
	if err != nil || code != http.StatusOK {
		t.Fatalf("healthy batch: code %d err %v", code, err)
	}
	if fr.Degraded || len(fr.Rows) != len(roots) {
		t.Fatalf("healthy batch degraded=%v rows=%d", fr.Degraded, len(fr.Rows))
	}
	for i, r := range fr.Rows {
		if r.Root != roots[i] {
			t.Fatalf("row %d root %d, want %d: scatter/gather lost request order", i, r.Root, roots[i])
		}
		if r.Flags != "ok" {
			t.Fatalf("healthy row %d flagged %q", i, r.Flags)
		}
	}

	// trafficPhase runs mixed-root batches from W workers until stop is
	// closed, recording hard failures (transport errors, 5xx) and
	// degraded rows.
	trafficPhase := func(workers int, stop <-chan struct{}) (requests, hardFailures, degradedRows *atomic.Int64, done *sync.WaitGroup) {
		requests, hardFailures, degradedRows = new(atomic.Int64), new(atomic.Int64), new(atomic.Int64)
		done = new(sync.WaitGroup)
		for w := 0; w < workers; w++ {
			done.Add(1)
			seed := int64(1000 + w)
			go func() {
				defer done.Done()
				wrng := rand.New(rand.NewSource(seed))
				for {
					select {
					case <-stop:
						return
					default:
					}
					roots := make([]int64, 20)
					for i := range roots {
						roots[i] = int64(wrng.Intn(smokeNodes))
					}
					code, fr, err := postBatch(roots)
					requests.Add(1)
					if err != nil || code >= 500 {
						hardFailures.Add(1)
						continue
					}
					for _, r := range fr.Rows {
						if r.Flags != "ok" {
							degradedRows.Add(1)
						}
					}
				}
			}()
		}
		return requests, hardFailures, degradedRows, done
	}

	// Phase 1: fleet-wide zero-downtime reload under load. Write
	// generation 2 into the store first, then flip the fleet.
	st, err := hsgf.OpenStore(storeDir, hsgf.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hsgf.SaveGraphSnapshot(st, g); err != nil {
		t.Fatal(err)
	}
	stop1 := make(chan struct{})
	req1, hard1, deg1, wg1 := trafficPhase(4, stop1)
	time.Sleep(300 * time.Millisecond) // traffic in flight before the flip

	resp, err := http.Post(base+"/v1/admin/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	reloadBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fleet reload = %d: %s", resp.StatusCode, reloadBody)
	}
	var reload struct {
		Outcome string `json:"outcome"`
		Shards  []struct {
			Replicas []struct {
				Flipped    bool   `json:"flipped"`
				Generation uint64 `json:"generation"`
			} `json:"replicas"`
		} `json:"shards"`
	}
	if err := json.Unmarshal(reloadBody, &reload); err != nil || reload.Outcome != "ok" {
		t.Fatalf("fleet reload outcome %q (err %v): %s", reload.Outcome, err, reloadBody)
	}
	for si, sh := range reload.Shards {
		for ri, rep := range sh.Replicas {
			if !rep.Flipped || rep.Generation != 2 {
				t.Fatalf("shard %d replica %d: flipped=%v generation=%d, want generation 2 everywhere", si, ri, rep.Flipped, rep.Generation)
			}
		}
	}
	time.Sleep(300 * time.Millisecond) // traffic across the post-flip fleet
	close(stop1)
	wg1.Wait()
	if req1.Load() == 0 {
		t.Fatal("no traffic ran during the fleet reload")
	}
	if hard1.Load() != 0 || deg1.Load() != 0 {
		t.Fatalf("fleet reload dropped requests: %d hard failures, %d degraded rows over %d requests",
			hard1.Load(), deg1.Load(), req1.Load())
	}
	t.Logf("fleet reload: %d requests during flip, zero failures", req1.Load())

	// Phase 2: SIGKILL one replica of shard 2 mid-load. The surviving
	// replica absorbs everything: zero hard failures, zero degraded rows.
	const victimShard = 2
	stop2 := make(chan struct{})
	req2, hard2, deg2, wg2 := trafficPhase(4, stop2)
	time.Sleep(200 * time.Millisecond)
	if err := daemons[victimShard][0].cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_, _ = daemons[victimShard][0].cmd.Process.Wait()
	time.Sleep(1500 * time.Millisecond) // traffic through failover + probe detection
	close(stop2)
	wg2.Wait()
	if hard2.Load() != 0 {
		t.Fatalf("replica SIGKILL caused %d hard failures over %d requests (failover must absorb it)",
			hard2.Load(), req2.Load())
	}
	if deg2.Load() != 0 {
		t.Fatalf("replica SIGKILL degraded %d rows over %d requests despite a healthy replica", deg2.Load(), req2.Load())
	}
	t.Logf("replica kill: %d requests, zero failures, zero degraded rows", req2.Load())

	// Phase 3: SIGKILL the shard's second replica — the shard is gone.
	// Batches still answer 200; only the dead shard's roots degrade.
	if err := daemons[victimShard][1].cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_, _ = daemons[victimShard][1].cmd.Process.Wait()
	time.Sleep(500 * time.Millisecond) // probes notice

	deadRows, okRows := 0, 0
	for round := 0; round < 5; round++ {
		roots := randomRoots(40)
		code, fr, err := postBatch(roots)
		if err != nil || code != http.StatusOK {
			t.Fatalf("round %d with a dead shard: code %d err %v (batches must degrade, not fail)", round, code, err)
		}
		for i, r := range fr.Rows {
			if r.Root != roots[i] {
				t.Fatalf("row order lost under degradation: row %d root %d want %d", i, r.Root, roots[i])
			}
			if graph.RootShard(graph.NodeID(r.Root), smokeShards) == victimShard {
				deadRows++
				if r.Flags != "shard-unavailable" {
					t.Fatalf("dead-shard root %d flagged %q, want shard-unavailable", r.Root, r.Flags)
				}
			} else {
				okRows++
				if r.Flags != "ok" {
					t.Fatalf("healthy-shard root %d flagged %q while another shard is down", r.Root, r.Flags)
				}
			}
		}
	}
	if deadRows == 0 || okRows == 0 {
		t.Fatalf("degenerate phase-3 sample: %d dead rows, %d ok rows", deadRows, okRows)
	}
	if code, body := get("/readyz"); code != http.StatusOK || !strings.Contains(string(body), "degraded") {
		t.Fatalf("readyz with one dead shard = %d %s, want 200 degraded", code, body)
	}

	// Stats must reflect the life the router just lived.
	code, body = get("/debug/stats")
	if code != http.StatusOK {
		t.Fatalf("stats = %d", code)
	}
	var stats struct {
		Requests        int64 `json:"requests"`
		UnavailableRows int64 `json:"unavailable_rows"`
		Retries         int64 `json:"retries"`
		Hedges          int64 `json:"hedges"`
		Failovers       int64 `json:"failovers"`
		FleetReloadOK   int64 `json:"fleet_reload_ok"`
	}
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatalf("stats body %s (err %v)", body, err)
	}
	if stats.UnavailableRows == 0 || stats.FleetReloadOK != 1 {
		t.Fatalf("stats inconsistent with the run: %+v", stats)
	}
	if stats.Retries+stats.Hedges+stats.Failovers == 0 {
		t.Fatalf("no retries/hedges/failovers recorded across two replica kills: %+v", stats)
	}

	// Graceful drain: router first, then the surviving daemons; all exit 0.
	shutdownProc(t, rt)
	if !strings.Contains(rt.log(), "drained cleanly") {
		t.Errorf("router log missing clean-drain marker:\n%s", rt.log())
	}
	for si, reps := range daemons {
		if si == victimShard {
			continue // already SIGKILLed
		}
		for _, p := range reps {
			shutdownProc(t, p)
		}
	}
}
