// Command hsgf extracts heterogeneous subgraph features from a graph —
// a file in the TSV exchange format or a store graph snapshot — and
// writes them as CSV: one row per root node, one column per subgraph
// encoding.
//
// Usage:
//
//	hsgf -in graph.tsv [-emax 5] [-dmax-percentile 0.9] [-mask] \
//	     [-label author] [-workers 0] [-out features.csv] [-json]
//
// Without -label, features are extracted for every node. The CSV header
// names each column by its encoding (the paper's compact notation, e.g.
// z010z010y002), so features stay interpretable downstream.
//
// Long extractions are resilient: -root-budget and -root-deadline bound
// the work spent on any single (hub) root, truncating its census instead
// of stalling the run, and -checkpoint FILE snapshots completed roots
// periodically so a killed run restarted with -resume picks up where it
// left off. Roots that finished in degraded form are reported on stderr.
//
// With -store DIR the graph is also written into a crash-safe artifact
// store as the next checksummed, generation-numbered snapshot, which
// hsgfd -store boots from and hot-reloads; hsgfd computes feature rows
// from it on demand.
//
// Input in the typed TSV format (a leading "t directed|undirected"
// record and an edge label on every edge line) yields direction- and
// edge-label-aware features (the paper's §5 extension). -json,
// -checkpoint, -store and -partition refuse typed input: their formats
// carry no edge-type section.
//
// With -partition N -shards-out DIR the command becomes the fleet
// partitioner instead of an extractor: the graph's roots are split
// between N shards, each of which serves the whole graph, so the graph
// is written once, into the store DIR/store that every replica of every
// shard boots from, and DIR/manifest.json records the routing metadata
// hsgf-router loads (manifest version 3: the shard and node counts).
// hsgf-router refuses the version-1 and version-2 manifests of older
// builds, whose shards were halo-cut sub-graphs; re-run -partition to
// replace them.
package main

import (
	"context"
	"encoding/csv"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"hsgf"
	"hsgf/internal/graph"
	"hsgf/internal/router"
)

func main() {
	var (
		in       = flag.String("in", "", "input graph: a TSV exchange file or a store graph snapshot (required)")
		out      = flag.String("out", "", "output CSV path (default: stdout)")
		emax     = flag.Int("emax", 5, "maximum edges per subgraph")
		dmaxPct  = flag.Float64("dmax-percentile", 0, "hub cutoff as a degree percentile in (0,1); 0 disables")
		mask     = flag.Bool("mask", false, "mask the root node's label during extraction")
		label    = flag.String("label", "", "only extract features for nodes with this label")
		workers  = flag.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
		strKeys  = flag.Bool("canonical-keys", false, "use canonical-string census keys instead of the rolling hash")
		asJSON   = flag.Bool("json", false, "write a JSON FeatureSet (decoded vocabulary + sparse rows) instead of CSV")
		budget   = flag.Int64("root-budget", 0, "max subgraphs enumerated per root; 0 = unlimited")
		deadline = flag.Duration("root-deadline", 0, "max wall-clock time per root; 0 = unlimited")
		ckpt     = flag.String("checkpoint", "", "snapshot completed roots to this file during extraction")
		resume   = flag.Bool("resume", false, "load the checkpoint file and skip already-completed roots")
		ckptIv   = flag.Int("checkpoint-interval", 64, "snapshot after every N completed roots")
		storeDir = flag.String("store", "", "also write the graph into this artifact store as a checksummed snapshot")

		partition = flag.Int("partition", 0, "split the graph's roots between this many shards for the routing tier instead of extracting")
		shardsOut = flag.String("shards-out", "", "directory for the shard store (DIR/store, shared by every shard) and manifest.json, the version-3 routing manifest (required with -partition)")
	)
	flag.Parse()
	if *in == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *resume && *ckpt == "" {
		fmt.Fprintln(os.Stderr, "hsgf: -resume requires -checkpoint")
		os.Exit(2)
	}
	var err error
	if *partition > 0 {
		if *shardsOut == "" {
			err = fmt.Errorf("-partition requires -shards-out")
		} else {
			err = runPartition(*in, *shardsOut, *partition)
		}
	} else {
		err = run(*in, *out, *workers, *asJSON, extractConfig{
			emax: *emax, dmaxPct: *dmaxPct, mask: *mask, label: *label, strKeys: *strKeys,
			budget: *budget, deadline: *deadline,
			ckpt: *ckpt, ckptInterval: *ckptIv, resume: *resume,
			store: *storeDir,
		})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hsgf:", err)
		os.Exit(1)
	}
}

type extractConfig struct {
	emax    int
	dmaxPct float64
	mask    bool
	label   string
	strKeys bool

	budget       int64
	deadline     time.Duration
	ckpt         string
	ckptInterval int
	resume       bool
	store        string
}

// writeOutput runs write against stdout or the -out file. File errors —
// including Sync and Close, which a bare defer would swallow — fail the
// command, so a short write can never masquerade as success.
func writeOutput(out string, write func(io.Writer) error) error {
	if out == "" {
		return write(os.Stdout)
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	if err := syncFile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncFile flushes f to stable storage, tolerating sinks that cannot
// sync (/dev/null, pipes — EINVAL/ENOTSUP).
func syncFile(f *os.File) error {
	err := f.Sync()
	if err == nil || errors.Is(err, syscall.EINVAL) || errors.Is(err, syscall.ENOTSUP) {
		return nil
	}
	return err
}

func run(in, out string, workers int, asJSON bool, cfg extractConfig) error {
	g, err := hsgf.ReadGraphFile(in)
	if err != nil {
		return err
	}

	var roots []hsgf.NodeID
	if cfg.label != "" {
		l, ok := g.Alphabet().Lookup(cfg.label)
		if !ok {
			return fmt.Errorf("unknown label %q (have %v)", cfg.label, g.Alphabet().Names())
		}
		roots = g.NodesWithLabel(l)
	} else {
		roots = make([]hsgf.NodeID, g.NumNodes())
		for i := range roots {
			roots[i] = hsgf.NodeID(i)
		}
	}

	opts := hsgf.Options{
		MaxEdges:            cfg.emax,
		MaskRootLabel:       cfg.mask,
		MaxSubgraphsPerRoot: cfg.budget,
		RootDeadline:        cfg.deadline,
	}
	if cfg.strKeys {
		opts.KeyMode = hsgf.CanonicalString
	}
	if cfg.dmaxPct > 0 && cfg.dmaxPct < 1 {
		opts.MaxDegree = hsgf.DegreePercentile(g, cfg.dmaxPct)
	}

	ex, err := hsgf.NewExtractor(g, opts)
	if err != nil {
		return err
	}
	var censuses []*hsgf.Census
	if cfg.ckpt != "" {
		censuses, err = ex.CensusAllCheckpoint(context.Background(), roots, workers, hsgf.CheckpointConfig{
			Path:     cfg.ckpt,
			Interval: cfg.ckptInterval,
			Resume:   cfg.resume,
		})
		if err != nil {
			return err
		}
	} else {
		censuses = ex.CensusAll(roots, workers)
	}
	reportDegradation(censuses, ex.Panics())
	vocab := hsgf.VocabularyOf(censuses)

	// Persist a crash-safe snapshot of the graph alongside the flat
	// output: the next checksummed generation, ready for hsgfd -store to
	// boot from and hot-reload.
	if cfg.store != "" {
		st, err := hsgf.OpenStore(cfg.store, hsgf.StoreOptions{})
		if err != nil {
			return err
		}
		gGen, err := hsgf.SaveGraphSnapshot(st, g)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "hsgf: stored graph generation %d in %s\n", gGen, cfg.store)
	}

	if asJSON {
		fs, err := hsgf.NewFeatureSet(ex, censuses, vocab)
		if err != nil {
			return err
		}
		if err := writeOutput(out, fs.Write); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "hsgf: %d nodes, %d features (emax=%d, dmax=%d)\n",
			len(roots), vocab.Len(), cfg.emax, opts.MaxDegree)
		return nil
	}

	err = writeOutput(out, func(w io.Writer) error {
		x := hsgf.Matrix(censuses, vocab)
		cw := csv.NewWriter(w)
		header := make([]string, 1+vocab.Len())
		header[0] = "node"
		for c := 0; c < vocab.Len(); c++ {
			header[c+1] = ex.EncodingString(vocab.Key(c))
		}
		if err := cw.Write(header); err != nil {
			return err
		}
		row := make([]string, 1+vocab.Len())
		for i, root := range roots {
			row[0] = strconv.Itoa(int(root))
			for c, v := range x[i] {
				row[c+1] = strconv.FormatFloat(v, 'f', -1, 64)
			}
			if err := cw.Write(row); err != nil {
				return err
			}
		}
		cw.Flush()
		return cw.Error()
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "hsgf: %d nodes, %d features (emax=%d, dmax=%d)\n",
		len(roots), vocab.Len(), cfg.emax, opts.MaxDegree)
	return nil
}

// reportDegradation summarises incomplete censuses on stderr so degraded
// feature rows never pass silently.
func reportDegradation(censuses []*hsgf.Census, panics []hsgf.PanicRecord) {
	counts := map[hsgf.CensusFlag]int{}
	for _, c := range censuses {
		if c == nil || c.Flags == 0 {
			continue
		}
		for _, f := range []hsgf.CensusFlag{
			hsgf.FlagBudgetExceeded, hsgf.FlagDeadlineExceeded, hsgf.FlagCancelled, hsgf.FlagPanicked,
		} {
			if c.Flags&f != 0 {
				counts[f]++
			}
		}
	}
	for _, f := range []hsgf.CensusFlag{
		hsgf.FlagBudgetExceeded, hsgf.FlagDeadlineExceeded, hsgf.FlagCancelled, hsgf.FlagPanicked,
	} {
		if counts[f] > 0 {
			fmt.Fprintf(os.Stderr, "hsgf: warning: %d roots %s\n", counts[f], f)
		}
	}
	for _, p := range panics {
		fmt.Fprintf(os.Stderr, "hsgf: warning: worker panic at root %d: %s\n", p.Root, p.Value)
	}
}

// runPartition cuts the graph for the routing tier: one store snapshot
// of the whole graph, which every shard serves, plus the routing
// manifest.
func runPartition(in, outDir string, nShards int) error {
	g, err := hsgf.ReadGraphFile(in)
	if err != nil {
		return err
	}
	plans, err := graph.PartitionByRoot(g, graph.PartitionConfig{NumShards: nShards})
	if err != nil {
		return err
	}
	if err := graph.ValidatePartition(g, plans); err != nil {
		return err
	}
	dir := filepath.Join(outDir, "store")
	st, err := hsgf.OpenStore(dir, hsgf.StoreOptions{})
	if err != nil {
		return err
	}
	gen, err := hsgf.SaveGraphSnapshot(st, g)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "hsgf: %d nodes, %d edges -> %s (generation %d)\n", g.NumNodes(), g.NumEdges(), dir, gen)
	for _, p := range plans {
		fmt.Fprintf(os.Stderr, "hsgf: shard %d owns %d roots\n", p.Shard, len(p.OwnedRoots))
	}
	path := filepath.Join(outDir, "manifest.json")
	if err := router.WriteManifest(path, router.BuildManifest(g.NumNodes(), 0, plans)); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "hsgf: wrote routing manifest %s (%d shards)\n", path, nShards)
	return nil
}
