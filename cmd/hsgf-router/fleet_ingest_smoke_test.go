//go:build smoke

// Fault-injection smoke suite for fleet-wide ordered ingest: builds the
// real hsgfd and hsgf-router binaries under the race detector, boots a
// 2-shard x 2-replica follower fleet plus the sequencing router, and
// drives the crash windows the sequencer log exists for:
//
//   - replica SIGKILL mid-stream: batches go 503 fleet_partial_apply
//     (never a false ack), the restarted replica is caught up by the
//     router's background repair, and every refused batch retries into
//     an idempotent replayed ack with its original fleet sequence,
//   - router SIGKILL between sequencing and fan-out (the
//     HSGF_ROUTER_CRASH_AFTER_SEQ hook): the durable-but-unfanned batch
//     is replayed to the fleet on restart and the client retry acks
//     replayed,
//   - duplicate-replay storm: every batch re-sent; all ack replayed and
//     no shard's state moves,
//   - torn sequencer tail: a partial frame after the last fsynced
//     record is truncated on boot and sequencing resumes at the next
//     sequence,
//
// and closes with the acceptance oracle: a single uninterrupted hsgfd
// ingest daemon over the full graph is fed the identical batch stream,
// and every root's census through the router must be byte-equal to the
// oracle's — including roots created by ingest after partition time.
//
// Gated behind the "smoke" build tag; run with `make fleet-ingest-smoke`.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hsgf/internal/graph"
	"hsgf/internal/router"
)

const (
	fiShards   = 2
	fiReplicas = 2
	fiNodes    = 200
	fiEmax     = 2
)

// fiBatchBody is the k-th batch of the canonical stream: grow by one
// node wired to node k, plus a relabel. The new node's global ID is
// fiNodes+k, so any lost or double-applied batch shifts every later ID
// and surfaces as a census mismatch against the oracle.
func fiBatchBody(k int) string {
	labels := []string{"loc", "org", "act"}
	return fmt.Sprintf(
		`{"batch_id":"fleet-%d","mutations":[`+
			`{"op":"add_node","label":"org"},`+
			`{"op":"add_edge","u":%d,"v":%d},`+
			`{"op":"relabel","u":%d,"label":"%s"}]}`,
		k, fiNodes+k, k, (k*7)%fiNodes, labels[k%3])
}

type fleetAck struct {
	FleetSeq  uint64 `json:"fleet_seq"`
	Replayed  bool   `json:"replayed"`
	Watermark uint64 `json:"watermark"`
}

// postIngest sends one batch and decodes either the ack or the typed
// error reason.
func postIngest(base, body string) (code int, ack fleetAck, reason string, raw []byte, err error) {
	resp, err := http.Post(base+"/v1/ingest", "application/json", strings.NewReader(body))
	if err != nil {
		return 0, ack, "", nil, err
	}
	defer resp.Body.Close()
	raw, _ = io.ReadAll(resp.Body)
	if resp.StatusCode == http.StatusOK {
		err = json.Unmarshal(raw, &ack)
	} else {
		var e struct {
			Reason string `json:"reason"`
		}
		_ = json.Unmarshal(raw, &e)
		reason = e.Reason
	}
	return resp.StatusCode, ack, reason, raw, err
}

// mustIngest requires a fresh 200 ack with the given sequence.
func mustIngest(t *testing.T, base string, k int, wantSeq uint64) {
	t.Helper()
	code, ack, reason, raw, err := postIngest(base, fiBatchBody(k))
	if err != nil || code != http.StatusOK || ack.Replayed || ack.FleetSeq != wantSeq {
		t.Fatalf("batch %d: code %d reason %q ack %+v err %v (%s)", k, code, reason, ack, err, raw)
	}
}

// routerWatermark polls /debug/stats until the fleet watermark reaches
// want or the deadline passes.
func routerWatermark(t *testing.T, base string, want uint64, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	last := uint64(0)
	for {
		resp, err := http.Get(base + "/debug/stats")
		if err == nil {
			var stats struct {
				FleetWatermark uint64 `json:"fleet_watermark"`
			}
			err = json.NewDecoder(resp.Body).Decode(&stats)
			resp.Body.Close()
			if err == nil {
				last = stats.FleetWatermark
				if last >= want {
					return
				}
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet watermark stuck at %d, want %d", last, want)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// censuses fetches content-keyed count maps for all n roots via base.
func censuses(t *testing.T, base string, n int) []map[string]int64 {
	t.Helper()
	roots := make([]int64, n)
	for i := range roots {
		roots[i] = int64(i)
	}
	body, _ := json.Marshal(map[string]any{"roots": roots, "deadline_ms": 60000})
	resp, err := http.Post(base+"/v1/features", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("features = %d: %s", resp.StatusCode, raw)
	}
	var feat struct {
		Rows []struct {
			Root   int64            `json:"root"`
			Flags  string           `json:"flags"`
			Counts map[string]int64 `json:"counts"`
		} `json:"rows"`
		Degraded bool `json:"degraded"`
	}
	if err := json.Unmarshal(raw, &feat); err != nil {
		t.Fatal(err)
	}
	if feat.Degraded {
		t.Fatalf("census extraction degraded at %s", base)
	}
	out := make([]map[string]int64, n)
	for _, r := range feat.Rows {
		if r.Flags != "ok" {
			t.Fatalf("root %d flagged %q", r.Root, r.Flags)
		}
		out[r.Root] = r.Counts
	}
	return out
}

// shardFingerprint reads one replica's serving fingerprint.
func shardFingerprint(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/v1/meta")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var meta struct {
		Fingerprint string `json:"fingerprint"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&meta); err != nil {
		t.Fatal(err)
	}
	return meta.Fingerprint
}

// writeTSV writes g to path in the TSV exchange format.
func writeTSV(t *testing.T, path string, g *graph.Graph) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteTSV(f, g); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestFleetIngestSmoke(t *testing.T) {
	tmp := t.TempDir()
	// Same hub-and-periphery shape as the router smoke, smaller.
	g := buildSmokeGraphN(t, fiNodes, 43)

	// The full-graph TSV: the router's -ingest-graph, and the seed of
	// every follower replica and of the oracle, since every shard serves
	// the whole graph.
	fullTSV := filepath.Join(tmp, "graph.tsv")
	writeTSV(t, fullTSV, g)
	plans, err := graph.PartitionByRoot(g, graph.PartitionConfig{NumShards: fiShards})
	if err != nil {
		t.Fatal(err)
	}
	manifestPath := filepath.Join(tmp, "manifest.json")
	if err := router.WriteManifest(manifestPath, router.BuildManifest(g.NumNodes(), 0, plans)); err != nil {
		t.Fatal(err)
	}
	seqlogPath := filepath.Join(tmp, "seq.wal")

	hsgfdBin := filepath.Join(tmp, "hsgfd")
	routerBin := filepath.Join(tmp, "hsgf-router")
	for bin, dir := range map[string]string{hsgfdBin: "../hsgfd", routerBin: "."} {
		build := exec.Command("go", "build", "-race", "-o", bin, dir)
		if out, err := build.CombinedOutput(); err != nil {
			t.Fatalf("go build -race %s: %v\n%s", dir, err, out)
		}
	}

	// Boot the follower fleet: per-replica stores (each replica owns its
	// WAL), follower mode so only router-sequenced batches are accepted.
	daemonArgs := func(si, ri int, addr string) []string {
		return []string{
			"-store", filepath.Join(tmp, fmt.Sprintf("store-%d-%d", si, ri)),
			"-in", fullTSV,
			"-ingest", "-fleet-follower",
			"-emax", fmt.Sprint(fiEmax),
			"-addr", addr,
			"-drain-grace", "10s",
		}
	}
	daemons := make([][]*proc, fiShards)
	var shardFlags []string
	for si := 0; si < fiShards; si++ {
		var urls []string
		for ri := 0; ri < fiReplicas; ri++ {
			p := startProc(t, fmt.Sprintf("hsgfd[%d/%d]", si, ri), hsgfdBin, daemonArgs(si, ri, "127.0.0.1:0")...)
			daemons[si] = append(daemons[si], p)
			urls = append(urls, "http://"+p.addr)
		}
		shardFlags = append(shardFlags, "-shard", fmt.Sprintf("%d=%s", si, strings.Join(urls, ",")))
	}

	// The oracle: one uninterrupted full-graph ingest daemon fed the
	// identical stream (in global IDs, which is what clients send the
	// router too).
	oracle := startProc(t, "oracle", hsgfdBin,
		"-store", filepath.Join(tmp, "oracle-store"), "-in", fullTSV,
		"-ingest", "-emax", fmt.Sprint(fiEmax), "-addr", "127.0.0.1:0", "-drain-grace", "10s")
	oracleBase := "http://" + oracle.addr

	routerArgs := append([]string{
		"-manifest", manifestPath,
		"-seqlog", seqlogPath,
		"-ingest-graph", fullTSV,
		"-ingest-ack-timeout", "2s",
		"-addr", "127.0.0.1:0",
		"-probe-interval", "100ms",
		"-fail-after", "1",
		"-retry-base", "20ms",
		"-drain-grace", "10s",
	}, shardFlags...)
	rt := startProc(t, "hsgf-router", routerBin, routerArgs...)
	base := "http://" + rt.addr

	// Phase 0 — healthy fleet: five batches ack in sequence order.
	for k := 0; k < 5; k++ {
		mustIngest(t, base, k, uint64(k+1))
	}

	// Phase 1 — replica SIGKILL mid-stream. Batches keep being durably
	// sequenced; any batch whose fan-out needs the dead replica answers
	// 503 fleet_partial_apply with the watermark — never a false ack.
	victim := daemons[0][0]
	victimAddr := victim.addr
	if err := victim.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_, _ = victim.cmd.Process.Wait()
	partial := 0
	for k := 5; k < 8; k++ {
		code, ack, reason, raw, err := postIngest(base, fiBatchBody(k))
		if err != nil {
			t.Fatalf("batch %d with dead replica: %v", k, err)
		}
		switch code {
		case http.StatusOK:
			if ack.FleetSeq != uint64(k+1) {
				t.Fatalf("batch %d: seq %d, want %d", k, ack.FleetSeq, k+1)
			}
		case http.StatusServiceUnavailable:
			partial++
			if reason != "fleet_partial_apply" {
				t.Fatalf("batch %d: 503 reason %q, want fleet_partial_apply (%s)", k, reason, raw)
			}
		default:
			t.Fatalf("batch %d with dead replica: code %d (%s)", k, code, raw)
		}
	}
	if partial == 0 {
		t.Fatal("no batch went fleet_partial_apply while a replica was dead; the fault was not exercised")
	}
	t.Logf("replica kill: %d/3 batches honestly refused with fleet_partial_apply", partial)

	// Restart the replica on its old address and store; the router's
	// background repair must catch it up and complete every sequenced
	// batch without any client action.
	daemons[0][0] = startProc(t, "hsgfd[0/0]r", hsgfdBin, daemonArgs(0, 0, victimAddr)...)
	routerWatermark(t, base, 8, 30*time.Second)
	// Client retries of the refused batches ack idempotently with their
	// original sequences.
	for k := 5; k < 8; k++ {
		code, ack, reason, raw, err := postIngest(base, fiBatchBody(k))
		if err != nil || code != http.StatusOK || !ack.Replayed || ack.FleetSeq != uint64(k+1) {
			t.Fatalf("retry of batch %d after repair: code %d reason %q ack %+v err %v (%s)", k, code, reason, ack, err, raw)
		}
	}

	// Phase 2 — router SIGKILL between sequencing and fan-out. A fresh
	// router with the crash hook armed exits the instant sequence 9 is
	// durable; the batch is sequenced but no shard ever saw it.
	if err := rt.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_, _ = rt.cmd.Process.Wait()
	rt = startProcEnv(t, "hsgf-router[crash]", routerBin, []string{"HSGF_ROUTER_CRASH_AFTER_SEQ=9"}, routerArgs...)
	base = "http://" + rt.addr
	routerWatermark(t, base, 8, 30*time.Second) // boot replay settles first
	if code, _, _, _, err := postIngest(base, fiBatchBody(8)); err == nil && code == http.StatusOK {
		t.Fatal("batch 8 acked despite the crash hook; the crash window was not exercised")
	}
	_, _ = rt.cmd.Process.Wait()

	// Restart without the hook: boot replay must deliver the orphaned
	// sequence 9 to the fleet, and the client retry acks replayed.
	rt = startProc(t, "hsgf-router[2]", routerBin, routerArgs...)
	base = "http://" + rt.addr
	routerWatermark(t, base, 9, 30*time.Second)
	if code, ack, reason, raw, err := postIngest(base, fiBatchBody(8)); err != nil || code != http.StatusOK || !ack.Replayed || ack.FleetSeq != 9 {
		t.Fatalf("retry of orphaned batch 8: code %d reason %q ack %+v err %v (%s)", code, reason, ack, err, raw)
	}

	// Phase 3 — duplicate-replay storm: every batch re-sent; all must
	// ack replayed with original sequences and no shard's state moves.
	fpBefore := make([][]string, fiShards)
	for si := range daemons {
		for _, d := range daemons[si] {
			fpBefore[si] = append(fpBefore[si], shardFingerprint(t, "http://"+d.addr))
		}
	}
	for k := 0; k < 9; k++ {
		code, ack, reason, raw, err := postIngest(base, fiBatchBody(k))
		if err != nil || code != http.StatusOK || !ack.Replayed || ack.FleetSeq != uint64(k+1) {
			t.Fatalf("storm batch %d: code %d reason %q ack %+v err %v (%s)", k, code, reason, ack, err, raw)
		}
	}
	for si := range daemons {
		for ri, d := range daemons[si] {
			if fp := shardFingerprint(t, "http://"+d.addr); fp != fpBefore[si][ri] {
				t.Fatalf("replay storm moved shard %d replica %d: %s -> %s", si, ri, fpBefore[si][ri], fp)
			}
		}
	}

	// Phase 4 — torn sequencer tail: kill the router mid-life, append a
	// partial frame after the last fsynced record, and require the next
	// boot to truncate exactly the torn suffix and resume at sequence 10.
	if err := rt.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_, _ = rt.cmd.Process.Wait()
	f, err := os.OpenFile(seqlogPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("WREC\x0c\x00\x00\x00par")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	rt = startProc(t, "hsgf-router[3]", routerBin, routerArgs...)
	base = "http://" + rt.addr
	routerWatermark(t, base, 9, 30*time.Second)
	mustIngest(t, base, 9, 10)

	// Acceptance oracle — feed the identical stream to the single
	// uninterrupted daemon, then every root's census through the router
	// (seed roots and the ten ingested ones) must match byte-for-byte.
	for k := 0; k < 10; k++ {
		resp, err := http.Post(oracleBase+"/v1/ingest", "application/json", strings.NewReader(fiBatchBody(k)))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("oracle batch %d: %d %s", k, resp.StatusCode, body)
		}
	}
	total := fiNodes + 10
	got := censuses(t, base, total)
	want := censuses(t, oracleBase, total)
	for v := 0; v < total; v++ {
		if len(got[v]) != len(want[v]) {
			t.Fatalf("root %d: %d census keys via router vs %d oracle", v, len(got[v]), len(want[v]))
		}
		for key, count := range want[v] {
			if got[v][key] != count {
				t.Fatalf("root %d: census %q = %d via router, %d oracle", v, key, got[v][key], count)
			}
		}
	}
	t.Logf("census differential: %d roots byte-equal through two router crashes, a replica kill, a replay storm, and a torn sequencer tail", total)

	// Everything drains cleanly.
	shutdownProc(t, rt)
	for _, reps := range daemons {
		for _, p := range reps {
			shutdownProc(t, p)
		}
	}
	shutdownProc(t, oracle)
}
