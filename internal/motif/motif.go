// Package motif implements classical network-motif analysis — the
// approach the paper contrasts heterogeneous subgraph features against
// (§2, "Network Motifs"): Wernicke's ESU algorithm for the exhaustive
// enumeration of size-k connected node-induced subgraphs, a
// degree-preserving random rewiring null model, and motif significance
// z-scores (Milo et al.).
//
// The package exists for the comparison the paper draws: a *global*
// census enumerates every subgraph of the network once, which is
// prohibitively expensive beyond small sizes and answers a different
// question than the *rooted* census of package core, which counts
// subgraphs around selected nodes and is what the feature extraction
// needs. The motif stage of cmd/reproduce and the benchmarks quantify
// the difference.
package motif

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"hsgf/internal/graph"
	"hsgf/internal/iso"
)

// MaxSize is the largest supported motif size (limited by the exact
// canonicaliser's permutation search).
const MaxSize = 6

// Census enumerates every connected node-induced subgraph of g with
// exactly k nodes, exactly once, using the ESU algorithm, and tallies
// them by canonical labelled class. The returned map is keyed by the
// canonical certificate; Reps maps each class to one representative for
// rendering.
type Census struct {
	K      int
	Counts map[string]int64
	Reps   map[string]iso.Small
	Total  int64
}

// Enumerate runs the ESU census for subgraph size k (2 <= k <= MaxSize).
func Enumerate(g *graph.Graph, k int) (*Census, error) {
	if k < 2 || k > MaxSize {
		return nil, fmt.Errorf("motif: size %d outside [2, %d]", k, MaxSize)
	}
	c := &Census{K: k, Counts: make(map[string]int64), Reps: make(map[string]iso.Small)}

	n := g.NumNodes()
	inSub := make([]bool, n)
	inExt := make([]bool, n)
	sub := make([]graph.NodeID, 0, k)

	var extend func(ext []graph.NodeID, root graph.NodeID)
	extend = func(ext []graph.NodeID, root graph.NodeID) {
		if len(sub) == k {
			c.record(g, sub)
			return
		}
		// ESU: pop candidates one by one; each pop owns the extensions
		// reachable through it exclusively.
		for len(ext) > 0 {
			w := ext[len(ext)-1]
			ext = ext[:len(ext)-1]
			inExt[w] = false

			// New candidates: exclusive neighbours of w (not adjacent
			// to the current subgraph, id greater than the root).
			var added []graph.NodeID
			for _, u := range g.Neighbors(w) {
				if u <= root || inSub[u] || inExt[u] {
					continue
				}
				adjacentToSub := false
				for _, s := range sub {
					if g.HasEdge(u, s) {
						adjacentToSub = true
						break
					}
				}
				if adjacentToSub {
					continue
				}
				inExt[u] = true
				added = append(added, u)
			}
			sub = append(sub, w)
			inSub[w] = true
			child := make([]graph.NodeID, 0, len(ext)+len(added))
			child = append(child, ext...)
			child = append(child, added...)
			extend(child, root)
			inSub[w] = false
			sub = sub[:len(sub)-1]
			for _, u := range added {
				inExt[u] = false
			}
		}
	}

	for v := graph.NodeID(0); int(v) < n; v++ {
		var ext []graph.NodeID
		for _, u := range g.Neighbors(v) {
			if u > v {
				inExt[u] = true
				ext = append(ext, u)
			}
		}
		sub = append(sub[:0], v)
		inSub[v] = true
		extend(ext, v)
		inSub[v] = false
		for _, u := range ext {
			inExt[u] = false
		}
	}
	return c, nil
}

// record classifies the current node set by canonical labelled form.
func (c *Census) record(g *graph.Graph, nodes []graph.NodeID) {
	var s iso.Small
	for _, v := range nodes {
		s.AddNode(int(g.Label(v)))
	}
	for i := 0; i < len(nodes); i++ {
		for j := i + 1; j < len(nodes); j++ {
			if g.HasEdge(nodes[i], nodes[j]) {
				s.AddEdge(i, j)
			}
		}
	}
	cert := s.Canonical()
	if _, ok := c.Reps[cert]; !ok {
		c.Reps[cert] = s
	}
	c.Counts[cert]++
	c.Total++
}

// Rewire produces a degree-preserving randomisation of g: the standard
// double-edge-swap Markov chain, running `swaps` accepted swaps (a
// common choice is several times the edge count). Node labels are
// untouched, so the joint (label, degree) distribution is preserved —
// the null model used for heterogeneous motif significance.
func Rewire(g *graph.Graph, swaps int, rng *rand.Rand) (*graph.Graph, error) {
	type edge [2]graph.NodeID
	var edges []edge
	has := make(map[edge]bool)
	g.Edges(func(u, v graph.NodeID) bool {
		e := edge{u, v}
		edges = append(edges, e)
		has[e] = true
		return true
	})
	norm := func(a, b graph.NodeID) edge {
		if a > b {
			a, b = b, a
		}
		return edge{a, b}
	}
	if len(edges) >= 2 {
		attempts := 0
		accepted := 0
		maxAttempts := swaps * 20
		for accepted < swaps && attempts < maxAttempts {
			attempts++
			i := rng.Intn(len(edges))
			j := rng.Intn(len(edges))
			if i == j {
				continue
			}
			a, b := edges[i][0], edges[i][1]
			c, d := edges[j][0], edges[j][1]
			// Swap to (a,d), (c,b).
			if a == d || c == b {
				continue
			}
			e1, e2 := norm(a, d), norm(c, b)
			if has[e1] || has[e2] {
				continue
			}
			delete(has, edges[i])
			delete(has, edges[j])
			edges[i], edges[j] = e1, e2
			has[e1] = true
			has[e2] = true
			accepted++
		}
	}

	b := graph.NewBuilderWithAlphabet(g.Alphabet())
	for v := 0; v < g.NumNodes(); v++ {
		if _, err := b.AddLabeledNode(g.Label(graph.NodeID(v))); err != nil {
			return nil, err
		}
	}
	for _, e := range edges {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			return nil, err
		}
	}
	return b.Build()
}

// Significance is one subgraph class with its motif statistics.
type Significance struct {
	Class    string
	Example  iso.Small
	Real     int64
	RandMean float64
	RandStd  float64
	Z        float64 // (Real - RandMean) / RandStd; ±Inf when RandStd == 0
}

// Motifs runs the full Milo-style analysis: census the real network,
// census `samples` degree-preserving randomisations, and report a
// z-score per subgraph class, sorted by descending |z|. The class set is
// the union over real and random networks.
func Motifs(g *graph.Graph, k, samples int, rng *rand.Rand) ([]Significance, error) {
	real, err := Enumerate(g, k)
	if err != nil {
		return nil, err
	}
	randCounts := make(map[string][]float64)
	reps := make(map[string]iso.Small)
	for cert, rep := range real.Reps {
		reps[cert] = rep
	}
	for s := 0; s < samples; s++ {
		rg, err := Rewire(g, 4*g.NumEdges(), rng)
		if err != nil {
			return nil, err
		}
		rc, err := Enumerate(rg, k)
		if err != nil {
			return nil, err
		}
		for cert, n := range rc.Counts {
			randCounts[cert] = append(randCounts[cert], float64(n))
			if _, ok := reps[cert]; !ok {
				reps[cert] = rc.Reps[cert]
			}
		}
	}

	classes := make(map[string]bool)
	for cert := range real.Counts {
		classes[cert] = true
	}
	for cert := range randCounts {
		classes[cert] = true
	}
	var out []Significance
	for cert := range classes {
		counts := randCounts[cert]
		// Classes absent from a sample count as zero there.
		for len(counts) < samples {
			counts = append(counts, 0)
		}
		var mean float64
		for _, v := range counts {
			mean += v
		}
		if samples > 0 {
			mean /= float64(samples)
		}
		var variance float64
		for _, v := range counts {
			variance += (v - mean) * (v - mean)
		}
		if samples > 0 {
			variance /= float64(samples)
		}
		std := math.Sqrt(variance)
		realN := real.Counts[cert]
		z := 0.0
		switch {
		case std > 0:
			z = (float64(realN) - mean) / std
		case float64(realN) != mean:
			z = math.Inf(1)
			if float64(realN) < mean {
				z = math.Inf(-1)
			}
		}
		out = append(out, Significance{
			Class: cert, Example: reps[cert],
			Real: realN, RandMean: mean, RandStd: std, Z: z,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		ai, aj := math.Abs(out[i].Z), math.Abs(out[j].Z)
		if ai != aj {
			return ai > aj
		}
		return out[i].Class < out[j].Class
	})
	return out, nil
}

// Describe renders a subgraph class for human consumption using the
// graph's label names: "a-b a-c" style edge lists.
func Describe(s iso.Small, alpha *graph.Alphabet) string {
	out := ""
	for i := 0; i < s.N; i++ {
		for j := i + 1; j < s.N; j++ {
			if s.HasEdge(i, j) {
				if out != "" {
					out += " "
				}
				out += alpha.Name(graph.Label(s.Labels[i])) + "-" + alpha.Name(graph.Label(s.Labels[j]))
			}
		}
	}
	if out == "" {
		out = "(no edges)"
	}
	return out
}
