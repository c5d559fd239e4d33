package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hsgf/internal/router"
	"hsgf/internal/serve"
)

// rootsPerRead is the batch size of every read.
const rootsPerRead = 8

// readStream is the deterministic sequence of read requests. Request i
// holds rootsPerRead distinct roots drawn from Zipf(s) over the node
// ranking of population i mod populations, each ranking a seeded
// permutation of node IDs, so popular roots are scattered over both
// shards. Requests are generated on demand, in index order, so the
// sequence depends only on the seed, never on which goroutine asks.
//
// Several populations, not one: under a single Zipf(1.1) ranking the
// top-ranked root alone is about a ninth of all rows, so a run's mean
// row size, and with it every latency, swings by a sixth with which
// node the seed happens to rank first. Mixing 8 rankings spreads the
// head over 8 nodes per rank and cuts that swing by about sqrt(8).
type readStream struct {
	mu    sync.Mutex
	zipf  *rand.Zipf
	perms [][]int64
	reqs  [][]int64
}

const populations = 8

func newReadStream(seed int64, nodes int, s float64) *readStream {
	rng := rand.New(rand.NewSource(seed))
	rs := &readStream{zipf: rand.NewZipf(rng, s, 1, uint64(nodes-1))}
	for p := 0; p < populations; p++ {
		perm := make([]int64, nodes)
		for i, v := range rng.Perm(nodes) {
			perm[i] = int64(v)
		}
		rs.perms = append(rs.perms, perm)
	}
	return rs
}

// rank returns population p's node at popularity rank r (0 is the most
// popular).
func (rs *readStream) rank(p, r int) int64 { return rs.perms[p][r] }

func (rs *readStream) get(i int) []int64 {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	for len(rs.reqs) <= i {
		perm := rs.perms[len(rs.reqs)%populations]
		roots := make([]int64, 0, rootsPerRead)
		for len(roots) < rootsPerRead {
			r := perm[rs.zipf.Uint64()]
			dup := false
			for _, x := range roots {
				dup = dup || x == r
			}
			if !dup {
				roots = append(roots, r)
			}
		}
		rs.reqs = append(rs.reqs, roots)
	}
	return rs.reqs[i]
}

// poissonSchedule returns the arrival offsets of a Poisson process at
// rate per second over [from, to), conditioned on holding its expected
// count: that many uniform draws over the interval, sorted. Arrivals
// still come in bursts, but every seed puts the same load on the
// interval; a free count would move a 20 s run's write load by a
// quarter from one seed to the next.
func poissonSchedule(rng *rand.Rand, rate float64, from, to time.Duration) []time.Duration {
	out := make([]time.Duration, int(math.Round(rate*(to-from).Seconds())))
	for i := range out {
		out[i] = from + time.Duration(rng.Int63n(int64(to-from)))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// sentLog digests every request body by its stream key, so two runs
// with one seed can be shown to send identical sequences.
type sentLog struct {
	mu sync.Mutex
	m  map[string]uint64
}

func newSentLog() *sentLog { return &sentLog{m: make(map[string]uint64)} }

func (l *sentLog) note(key string, body []byte) {
	h := fnv.New64a()
	h.Write(body)
	l.mu.Lock()
	l.m[key] = h.Sum64()
	l.mu.Unlock()
}

// digest folds the digests of keys, in the given order.
func (l *sentLog) digest(keys []string) string {
	h := fnv.New64a()
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%x;", k, l.m[k])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// client sends requests to the router over at most conns connections.
type client struct {
	base string
	hc   *http.Client
	sent *sentLog
}

func newClient(base string, conns int, sent *sentLog) *client {
	return &client{
		base: base,
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			IdleConnTimeout:     time.Minute,
		}},
		sent: sent,
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// read sends one /v1/features request and checks the answer: status
// 200, one row per root in request order, every row flagged "ok". The
// load phases check only that much; full, used by the correctness
// gates, also decodes every row's counts and returns them.
func (c *client) read(ctx context.Context, key string, roots []int64, full bool) ([]serve.FeatureRow, error) {
	body, err := json.Marshal(serve.FeaturesRequest{Roots: roots})
	if err != nil {
		return nil, err
	}
	c.sent.note(key, body)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/features", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("read: status %d: %.200s", resp.StatusCode, raw)
	}
	var head struct {
		Rows []struct {
			Root  int64  `json:"root"`
			Flags string `json:"flags"`
		} `json:"rows"`
	}
	if err := json.Unmarshal(raw, &head); err != nil {
		return nil, fmt.Errorf("read: undecodable response: %w", err)
	}
	if len(head.Rows) != len(roots) {
		return nil, fmt.Errorf("read: %d rows for %d roots", len(head.Rows), len(roots))
	}
	for i, row := range head.Rows {
		if row.Root != roots[i] {
			return nil, fmt.Errorf("read: row %d is root %d, want %d", i, row.Root, roots[i])
		}
		if row.Flags != "ok" {
			return nil, fmt.Errorf("read: root %d flagged %q", row.Root, row.Flags)
		}
	}
	if !full {
		return nil, nil
	}
	var fr router.FeaturesResponse
	if err := json.Unmarshal(raw, &fr); err != nil {
		return nil, fmt.Errorf("read: undecodable response: %w", err)
	}
	return fr.Rows, nil
}

// write sends one mutation batch to the router. It fails on a transport
// error, a non-200 (fleet_partial_apply included), or an ack marked
// replayed, since every batch is sent exactly once.
func (c *client) write(ctx context.Context, batchID string, muts []serve.IngestMutation) error {
	body, err := json.Marshal(serve.IngestRequest{BatchID: batchID, Mutations: muts})
	if err != nil {
		return err
	}
	c.sent.note(batchID, body)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/ingest", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(batchHeader, batchID)
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("write %s: status %d: %.200s", batchID, resp.StatusCode, raw)
	}
	var ack router.IngestResponse
	if err := json.Unmarshal(raw, &ack); err != nil {
		return fmt.Errorf("write %s: undecodable ack: %w", batchID, err)
	}
	if ack.Replayed {
		return fmt.Errorf("write %s: first send acked as replayed (fleet seq %d)", batchID, ack.FleetSeq)
	}
	return nil
}

// getJSON fetches a JSON document (readiness, /debug/stats); with a nil
// out it only drains the body.
func getJSON(ctx context.Context, hc *http.Client, url string, out any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, err
	}
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(out)
}

// loopResult is what one load phase observed.
type loopResult struct {
	latency   []time.Duration // successful operations; open loop: from the due time
	late      []time.Duration // open loop: send time minus due time, every attempt
	attempted int
	failed    int
	firstErr  error
	elapsed   time.Duration
}

func (r *loopResult) record(lat, late time.Duration, err error, open bool) {
	r.attempted++
	if open {
		r.late = append(r.late, late)
	}
	if err != nil {
		r.failed++
		if r.firstErr == nil {
			r.firstErr = err
		}
		return
	}
	r.latency = append(r.latency, lat)
}

func (r *loopResult) merge(o *loopResult) {
	r.latency = append(r.latency, o.latency...)
	r.late = append(r.late, o.late...)
	r.attempted += o.attempted
	r.failed += o.failed
	if r.firstErr == nil {
		r.firstErr = o.firstErr
	}
}

// openLoop sends operation i at start+due[i] on at most conns
// goroutines, whatever the system's speed. Each operation is timed from
// its due time, so a stall also charges the requests queued behind it;
// how late the generator itself ran is recorded separately.
func openLoop(ctx context.Context, due []time.Duration, conns int, op func(ctx context.Context, i int) error) *loopResult {
	var next atomic.Int64
	parts := make([]loopResult, conns)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(part *loopResult) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) || ctx.Err() != nil {
					return
				}
				at := start.Add(due[i])
				if d := time.Until(at); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				err := op(ctx, i)
				part.record(time.Since(at), sent.Sub(at), err, true)
			}
		}(&parts[w])
	}
	wg.Wait()
	res := &loopResult{elapsed: time.Since(start)}
	for i := range parts {
		res.merge(&parts[i])
	}
	return res
}

// closedLoop runs conns goroutines, each sending its next operation as
// soon as the previous one returns, until d has passed. Operation
// indices are handed out in order from first.
func closedLoop(ctx context.Context, d time.Duration, conns, first int, op func(ctx context.Context, i int) error) *loopResult {
	var next atomic.Int64
	next.Store(int64(first))
	parts := make([]loopResult, conns)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(part *loopResult) {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				t0 := time.Now()
				err := op(ctx, i)
				part.record(time.Since(t0), 0, err, false)
			}
		}(&parts[w])
	}
	wg.Wait()
	res := &loopResult{elapsed: time.Since(start)}
	for i := range parts {
		res.merge(&parts[i])
	}
	return res
}
