package main

// Smoke test for every suite: each runs in-process at tiny sizes set
// through its parameters, writes its report through the shared header
// and writer, and the decoded file must carry the header and every row
// with finite numbers. It keeps the suites' code from rotting between
// ledger re-recordings, which take minutes.

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"hsgf/internal/datagen"
	"hsgf/internal/embed"
	"hsgf/internal/graph"
)

func smokeGraph(t *testing.T) *graph.Graph {
	t.Helper()
	cfg := datagen.DefaultPublicationConfig()
	cfg.Institutions = 10
	cfg.Conferences = datagen.DefaultConferences[:2]
	cfg.Years = []int{2010, 2011}
	cfg.PapersPerConfYear = 8
	cfg.ExternalPapers = 60
	pub, err := datagen.GeneratePublication(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return pub.Graph
}

// runSuite writes one suite's report into a temp dir and decodes it.
func runSuite(t *testing.T, name string, measure func() (report, error)) map[string]any {
	t.Helper()
	path := filepath.Join(t.TempDir(), "BENCH_"+name+".json")
	if err := run(path, measure); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if ts, _ := doc["generated"].(string); ts == "" {
		t.Errorf("%s: generated unset", name)
	} else if _, err := time.Parse(time.RFC3339, ts); err != nil {
		t.Errorf("%s: generated %q: %v", name, ts, err)
	}
	if v, _ := doc["go_version"].(string); !strings.HasPrefix(v, "go") {
		t.Errorf("%s: go_version = %q", name, v)
	}
	for _, k := range []string{"num_cpu", "gomaxprocs", "max_rss_bytes"} {
		if v, _ := doc[k].(float64); v <= 0 {
			t.Errorf("%s: %s = %v, want > 0", name, k, doc[k])
		}
	}
	checkFinite(t, name, doc)
	return doc
}

// checkFinite fails on any number that is not finite or is negative:
// every tracked quantity is a count, a size, a time or a rate.
func checkFinite(t *testing.T, path string, v any) {
	t.Helper()
	switch v := v.(type) {
	case float64:
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			t.Errorf("%s = %v", path, v)
		}
	case map[string]any:
		for k, x := range v {
			checkFinite(t, path+"."+k, x)
		}
	case []any:
		for _, x := range v {
			checkFinite(t, path+"[]", x)
		}
	}
}

// rowNames lists the "name" of every row under results, sorted.
func rowNames(t *testing.T, doc map[string]any) []string {
	t.Helper()
	rows, _ := doc["results"].([]any)
	var names []string
	for _, r := range rows {
		m, _ := r.(map[string]any)
		name, _ := m["name"].(string)
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func wantKeys(t *testing.T, name string, m map[string]any, keys ...string) {
	t.Helper()
	for _, k := range keys {
		if _, ok := m[k]; !ok {
			t.Errorf("%s: key %q missing", name, k)
		}
	}
}

func TestSuites(t *testing.T) {
	g := smokeGraph(t)

	t.Run("census", func(t *testing.T) {
		doc := runSuite(t, "census", func() (report, error) { return runCensus(g, "2x", 0) })
		if got, want := strings.Join(rowNames(t, doc), ","),
			"census_all,census_root,serve_request,serve_request_cold,serve_request_warm"; got != want {
			t.Errorf("rows = %s, want %s", got, want)
		}
		for _, r := range doc["results"].([]any) {
			row := r.(map[string]any)
			wantKeys(t, "row", row, "ns_per_op", "ns_per_root", "allocs_per_root", "roots_per_op")
			if strings.HasPrefix(row["name"].(string), "serve_") {
				wantKeys(t, "serve row", row, "p50_ns_per_op", "p99_ns_per_op")
			} else {
				wantKeys(t, "census row", row, "subgraphs_per_sec")
			}
		}
	})

	t.Run("embed", func(t *testing.T) {
		wcfg := embed.WalkConfig{WalksPerNode: 1, WalkLength: 6, ReturnP: 1, InOutQ: 1}
		doc := runSuite(t, "embed", func() (report, error) { return runEmbed(g, "1x", wcfg) })
		if got, want := len(rowNames(t, doc)), 4*len(workerLadder()); got != want {
			t.Errorf("rows = %d, want %d", got, want)
		}
		for _, r := range doc["results"].([]any) {
			row := r.(map[string]any)
			wantKeys(t, "row", row, "workers", "ns_per_op", "speedup_vs_serial")
			if _, walks := row["walks_per_sec"]; !walks {
				wantKeys(t, "training row", row, "updates_per_sec", "ns_per_update")
			}
		}
	})

	t.Run("ingest", func(t *testing.T) {
		doc := runSuite(t, "ingest", func() (report, error) { return runIngest(g, 20, 10) })
		wantKeys(t, "report", doc, "mutations_per_sec", "ingest_to_serve_p50_ms", "mean_dirty_roots", "fleet")
		fleet, _ := doc["fleet"].(map[string]any)
		wantKeys(t, "fleet", fleet, "mutations_per_sec", "ack_p50_ms", "ack_p99_ms")
		if doc["batches"] != 20.0 || fleet["batches"] != 10.0 {
			t.Errorf("batches = %v, fleet batches = %v, want 20 and 10", doc["batches"], fleet["batches"])
		}
	})

	t.Run("scale", func(t *testing.T) {
		doc := runSuite(t, "scale", func() (report, error) { return runScale([]int{300, 600}, 16, 0) })
		rungs, _ := doc["rungs"].([]any)
		if len(rungs) != 2 {
			t.Fatalf("rungs = %d, want 2", len(rungs))
		}
		for _, r := range rungs {
			wantKeys(t, "rung", r.(map[string]any), "bin_load_speedup", "census_roots_per_sec", "serve_p50_ns", "max_rss_bytes")
		}
	})
}
