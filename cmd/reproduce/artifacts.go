package main

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"text/tabwriter"
	"time"

	"hsgf/internal/core"
	"hsgf/internal/datagen"
	"hsgf/internal/graph"
	"hsgf/internal/iso"
	"hsgf/internal/motif"
)

// The encoding audit's settings: edge budgets 1..auditMaxEdges, and the
// alphabet size of the loop-free audit.
const (
	auditMaxEdges = 6
	auditLabels   = 2
)

// writeAudit re-derives the paper's encoding-uniqueness bounds (§3.1,
// Figure 1C) by exhaustive enumeration: for every edge budget it
// enumerates all non-isomorphic connected labelled graphs, groups them
// by characteristic-sequence encoding, and reports collisions with a
// witness pair. The paper's claims — unique through emax = 5 when the
// label connectivity graph is loop-free, and through emax = 4 otherwise
// — fall out as the last collision-free rows of the two tables.
func writeAudit(w io.Writer) error {
	fmt.Fprintf(w, "Audit A — same-label edges allowed (label connectivity with loops), %d label(s)\n", 1)
	if err := printAudit(w, 1, auditMaxEdges, false); err != nil {
		return err
	}
	fmt.Fprintf(w, "Audit B — loop-free label connectivity, %d labels\n", auditLabels)
	return printAudit(w, auditLabels, auditMaxEdges, true)
}

func printAudit(w io.Writer, k, maxEdges int, loopFree bool) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "edges\tgraphs\tencodings\tcollisions\tunique")
	lastUnique := 0
	for e := 1; e <= maxEdges; e++ {
		r := iso.Audit(e, k, loopFree)
		fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%v\n", e, r.Graphs, r.Encodings, len(r.Collisions), r.Unique())
		if r.Unique() && lastUnique == e-1 {
			lastUnique = e
		}
		if !r.Unique() && len(r.Collisions) > 0 {
			// The witness is the pair of the smallest colliding encoding,
			// so the table does not follow iso.Audit's map order.
			c := r.Collisions[0]
			for _, o := range r.Collisions[1:] {
				if o.Encoding < c.Encoding {
					c = o
				}
			}
			fmt.Fprintf(tw, "\t\t\t\twitness: %s\n", describe(c.A, c.B))
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(w, "=> encoding unique through emax = %d\n\n", lastUnique)
	return nil
}

func describe(a, b iso.Small) string {
	return fmt.Sprintf("%s vs %s", render(a), render(b))
}

func render(g iso.Small) string {
	s := fmt.Sprintf("{n=%d;", g.N)
	for i := 0; i < g.N; i++ {
		for j := i + 1; j < g.N; j++ {
			if g.HasEdge(i, j) {
				s += fmt.Sprintf(" %d%c-%d%c", i, 'a'+rune(g.Labels[i]), j, 'a'+rune(g.Labels[j]))
			}
		}
	}
	return s + "}"
}

// The motif contrast's settings: motif size of the global census,
// sample size and edge budget of the rooted census.
const (
	motifK      = 3
	motifRooted = 100
	motifEmax   = 4
)

// writeMotif renders the contrast the paper draws in §2 between
// classical network-motif analysis and rooted subgraph features: a
// global census enumerates every size-k subgraph of the network (cost
// grows with the whole network and explodes in k), whereas the rooted
// census only explores around the nodes that need features. It runs
// both on the same synthetic co-occurrence network, reports the motif
// z-scores of the global analysis against samples null-model networks,
// and compares wall-clock costs.
func writeMotif(w io.Writer, seed int64, samples int) error {
	cfg := datagen.DefaultCooccurrenceConfig()
	cfg.Locations, cfg.Organizations, cfg.Actors, cfg.Dates = 150, 120, 250, 90
	cfg.Documents = 1500
	cfg.Seed = seed
	co, err := datagen.GenerateCooccurrence(cfg)
	if err != nil {
		return err
	}
	g := co.Graph
	fmt.Fprintln(w, "network:", g)

	// Global motif analysis.
	rng := rand.New(rand.NewSource(seed))
	start := time.Now()
	sig, err := motif.Motifs(g, motifK, samples, rng)
	if err != nil {
		return err
	}
	globalTime := time.Since(start)

	fmt.Fprintf(w, "\nglobal size-%d motif analysis (%d null samples, %v):\n", motifK, samples, globalTime.Round(time.Millisecond))
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "z-score\treal\tnull mean\tclass")
	shown := 0
	for _, s := range sig {
		if shown >= 8 {
			break
		}
		z := fmt.Sprintf("%.1f", s.Z)
		if math.IsInf(s.Z, 0) {
			z = "inf"
		}
		fmt.Fprintf(tw, "%s\t%d\t%.1f\t%s\n", z, s.Real, s.RandMean, motif.Describe(s.Example, g.Alphabet()))
		shown++
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	// Rooted census over a bounded sample.
	roots := core.SampleRoots(g, motifRooted/g.NumLabels()+1, rand.New(rand.NewSource(seed+1)))
	roots = core.FilterRootsByDegree(g, roots, 0.95)
	ex, err := core.NewExtractor(g, core.Options{
		MaxEdges:      motifEmax,
		MaxDegree:     graph.DegreePercentile(g, 0.90),
		MaskRootLabel: true,
	})
	if err != nil {
		return err
	}
	start = time.Now()
	censuses := ex.CensusAll(roots, 0)
	rootedTime := time.Since(start)
	var subgraphs int64
	distinct := map[uint64]bool{}
	for _, c := range censuses {
		subgraphs += c.Subgraphs
		for key := range c.Counts {
			distinct[key] = true
		}
	}
	fmt.Fprintf(w, "\nrooted census (emax=%d, dmax=p90) over %d sampled roots: %v\n",
		motifEmax, len(roots), rootedTime.Round(time.Millisecond))
	fmt.Fprintf(w, "  %d subgraph occurrences, %d distinct feature encodings\n", subgraphs, len(distinct))

	fmt.Fprintf(w, "\nglobal/rooted wall-clock ratio: %.1fx\n", globalTime.Seconds()/rootedTime.Seconds())
	fmt.Fprintln(w, "\nthe global census must touch the entire network (and every null")
	fmt.Fprintln(w, "sample repeats that cost), while the rooted census scales with the")
	fmt.Fprintln(w, "feature sample — the reason the paper builds features from rooted")
	fmt.Fprintln(w, "censuses instead of motif machinery (§2).")
	return nil
}
