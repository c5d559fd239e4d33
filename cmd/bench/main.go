// Command bench runs one tracked performance suite and writes its
// results as JSON, the perf ledger successive changes diff:
//
//	go run ./cmd/bench census   # BENCH_census.json: census hot path + serve request path
//	go run ./cmd/bench embed    # BENCH_embed.json: walk generation + Hogwild training per worker count
//	go run ./cmd/bench ingest   # BENCH_ingest.json: durable streaming ingest, single engine and fleet
//	go run ./cmd/bench scale    # BENCH_scale.json: the 10^4/10^5/10^6-node scale ladder
//
// -o overrides the output path; -o - writes to stdout. Every setting is
// a constant, so files recorded by different changes stay comparable.
// Every report opens with the same header: generation time, Go
// version, num_cpu, gomaxprocs (what parallel rows were allowed to
// use) and the process's peak RSS at the end of the run.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"hsgf/internal/datagen"
	"hsgf/internal/embed"
	"hsgf/internal/graph"
	"hsgf/internal/sysres"
)

// suites maps each suite name to its measurement at the tracked
// settings; all but scale measure the bench graph g.
var suites = map[string]func(g *graph.Graph) (report, error){
	"census": func(g *graph.Graph) (report, error) { return runCensus(g, "1s", 1) },
	"embed": func(g *graph.Graph) (report, error) {
		return runEmbed(g, "1s", embed.WalkConfig{WalksPerNode: 10, WalkLength: 40, ReturnP: 1, InOutQ: 1})
	},
	"ingest": func(g *graph.Graph) (report, error) { return runIngest(g, 200, 100) },
	"scale": func(*graph.Graph) (report, error) {
		return runScale([]int{10_000, 100_000, 1_000_000}, 512, 2)
	},
}

const usage = "usage: bench census|embed|ingest|scale [-o path]"

func main() {
	if len(os.Args) < 2 || suites[os.Args[1]] == nil {
		fmt.Fprintln(os.Stderr, usage)
		os.Exit(2)
	}
	name := os.Args[1]
	fs := flag.NewFlagSet("bench "+name, flag.ExitOnError)
	out := fs.String("o", "BENCH_"+name+".json", "output path ('-' for stdout)")
	fs.Parse(os.Args[2:])
	if fs.NArg() > 0 {
		fmt.Fprintln(os.Stderr, usage)
		os.Exit(2)
	}
	start := time.Now()
	g, err := benchGraph()
	if err == nil {
		err = run(*out, func() (report, error) { return suites[name](g) })
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench %s: %v\n", name, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "bench %s: wrote %s in %v\n", name, *out, time.Since(start).Round(time.Millisecond))
}

// header opens every report.
type header struct {
	Generated string `json:"generated"`
	GoVersion string `json:"go_version"`
	NumCPU    int    `json:"num_cpu"`
	// GoMaxProcs is what parallel speedups in the file were actually
	// allowed to use — num_cpu alone makes scaling rows unreadable when
	// the scheduler is capped below the hardware.
	GoMaxProcs int `json:"gomaxprocs"`
	// MaxRSSBytes is the process's peak resident set at the end of the
	// run: what the whole suite actually cost in memory.
	MaxRSSBytes int64 `json:"max_rss_bytes"`
}

func (h *header) head() *header { return h }

// report is a suite's result; each embeds the header.
type report interface{ head() *header }

// run measures one suite, stamps the header around it and writes the
// report as indented JSON to path ("-" for stdout).
func run(path string, measure func() (report, error)) error {
	h := header{
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	rep, err := measure()
	if err != nil {
		return err
	}
	h.MaxRSSBytes = sysres.MaxRSSBytes()
	*rep.head() = h
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(buf)
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// benchGraph is the reduced publication network the census, embed and
// ingest suites share. It mirrors the in-package benchmarks
// (internal/core/censusbench_test.go), so numbers from `go test -bench`
// and from this harness describe the same graph.
func benchGraph() (*graph.Graph, error) {
	cfg := datagen.DefaultPublicationConfig()
	cfg.Institutions = 40
	cfg.Conferences = datagen.DefaultConferences[:3]
	cfg.Years = []int{2010, 2011, 2012, 2013}
	cfg.PapersPerConfYear = 25
	cfg.ExternalPapers = 400
	pub, err := datagen.GeneratePublication(cfg)
	if err != nil {
		return nil, err
	}
	return pub.Graph, nil
}

// benchtime sets the target run length of testing.Benchmark ("1s",
// "10x", ...), which reads it from the testing package's flag.
func benchtime(d string) error {
	testing.Init()
	return flag.Lookup("test.benchtime").Value.Set(d)
}

// sampleRoots spreads n roots evenly over g's node IDs.
func sampleRoots(g *graph.Graph, n int) []graph.NodeID {
	if n > g.NumNodes() {
		n = g.NumNodes()
	}
	roots := make([]graph.NodeID, n)
	stride := g.NumNodes() / n
	for i := range roots {
		roots[i] = graph.NodeID(i * stride)
	}
	return roots
}

// serveResult is a hand-rolled benchmark run: the aggregate shape
// testing.Benchmark produces plus per-request latency percentiles,
// which the stdlib harness does not surface.
type serveResult struct {
	testing.BenchmarkResult
	p50, p99 time.Duration
}

// serveLatency drives handler's POST /v1/features with one request per
// iteration for about seconds of wall clock (at least 100 requests),
// recording per-request latency (for p50/p99) and the process-wide
// allocation delta (for allocs/request). body produces iteration i's
// request body; the warm-up request uses i = -1, so per-iteration
// cache keys never collide with the run.
func serveLatency(handler http.Handler, seconds float64, body func(i int) []byte) (serveResult, error) {
	do := func(i int) (time.Duration, error) {
		req := httptest.NewRequest(http.MethodPost, "/v1/features", bytes.NewReader(body(i)))
		rec := httptest.NewRecorder()
		t0 := time.Now()
		handler.ServeHTTP(rec, req)
		d := time.Since(t0)
		if rec.Code != http.StatusOK {
			return 0, fmt.Errorf("serve request returned %d: %s", rec.Code, rec.Body)
		}
		return d, nil
	}
	// Warm the extractor pool (and, when enabled, the row cache).
	if _, err := do(-1); err != nil {
		return serveResult{}, err
	}

	const (
		minIters = 100
		maxIters = 1 << 20
	)
	budget := time.Duration(seconds * float64(time.Second))
	lats := make([]time.Duration, 0, 1<<16)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	var total time.Duration
	for i := 0; (i < minIters || time.Since(start) < budget) && i < maxIters; i++ {
		d, err := do(i)
		if err != nil {
			return serveResult{}, err
		}
		lats = append(lats, d)
		total += d
	}
	runtime.ReadMemStats(&after)

	sort.Slice(lats, func(a, b int) bool { return lats[a] < lats[b] })
	pct := func(q float64) time.Duration { return lats[int(q*float64(len(lats)-1))] }
	return serveResult{
		BenchmarkResult: testing.BenchmarkResult{
			N:         len(lats),
			T:         total,
			MemAllocs: after.Mallocs - before.Mallocs,
			MemBytes:  after.TotalAlloc - before.TotalAlloc,
		},
		p50: pct(0.50),
		p99: pct(0.99),
	}, nil
}
