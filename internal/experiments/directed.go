package experiments

import (
	"fmt"
	"math/rand"

	"hsgf/internal/core"
	"hsgf/internal/datagen"
	"hsgf/internal/graph"
	"hsgf/internal/ml"
)

// DirectedConfig parameterises the directed-features experiment that
// tests the paper's §5 conjecture: "for denser directed networks,
// directed subgraph features may turn out to be more performant than the
// undirected variety".
type DirectedConfig struct {
	Citation datagen.CitationConfig
	PerRole  int // evaluation sample per role
	MaxEdges int
	Repeats  int
	Seed     int64
	Workers  int
}

// DefaultDirectedConfig returns a laptop-scale configuration.
func DefaultDirectedConfig() DirectedConfig {
	return DirectedConfig{
		Citation: datagen.DefaultCitationConfig(),
		PerRole:  60,
		MaxEdges: 3,
		Repeats:  10,
		Seed:     19,
	}
}

// DirectedResult reports Macro F1 of role prediction from directed
// (typed) versus undirected subgraph features on the same citation
// network, with 95% confidence half-widths over repeats.
type DirectedResult struct {
	DirectedF1   float64
	DirectedCI   float64
	UndirectedF1 float64
	UndirectedCI float64
	Roles        int
	SampleSize   int
	NetworkEdges int
}

// RunDirected generates the citation network, samples papers of each
// role, extracts both feature families and evaluates the shared
// logistic-regression protocol. Node labels are uniform ("paper"), so
// all class signal must come from topology — and the topology only
// separates the roles through edge directions.
func RunDirected(cfg DirectedConfig) (*DirectedResult, error) {
	net, err := datagen.GenerateCitation(cfg.Citation)
	if err != nil {
		return nil, err
	}
	undirected, err := net.Undirected()
	if err != nil {
		return nil, err
	}

	// Sample per role.
	rng := rand.New(rand.NewSource(cfg.Seed))
	byRole := make([][]graph.NodeID, datagen.NumRoles)
	for i, r := range net.Roles {
		byRole[r] = append(byRole[r], graph.NodeID(i))
	}
	var nodes []graph.NodeID
	var y []int
	for r, members := range byRole {
		rng.Shuffle(len(members), func(a, b int) { members[a], members[b] = members[b], members[a] })
		n := cfg.PerRole
		if n > len(members) {
			n = len(members)
		}
		for _, v := range members[:n] {
			nodes = append(nodes, v)
			y = append(y, r)
		}
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("experiments: empty role sample")
	}

	// Directed (typed) features.
	tex, err := core.NewExtractor(net.Graph, core.Options{MaxEdges: cfg.MaxEdges})
	if err != nil {
		return nil, err
	}
	typedCensuses := tex.CensusAll(nodes, cfg.Workers)

	// Undirected features on the collapsed graph.
	uex, err := core.NewExtractor(undirected, core.Options{MaxEdges: cfg.MaxEdges})
	if err != nil {
		return nil, err
	}
	plainCensuses := uex.CensusAll(nodes, cfg.Workers)

	evalFamily := func(rows func(trainIdx []int) [][]float64) ([]float64, error) {
		var scores []float64
		for rep := 0; rep < cfg.Repeats; rep++ {
			splitRng := rand.New(rand.NewSource(cfg.Seed + int64(rep)*5077))
			trainIdx, testIdx, err := ml.StratifiedSplit(y, 0.7, splitRng)
			if err != nil {
				return nil, err
			}
			x := rows(trainIdx)
			f1, err := evalSplit(x, y, trainIdx, testIdx, true, nil)
			if err != nil {
				return nil, err
			}
			scores = append(scores, f1)
		}
		return scores, nil
	}

	typedScores, err := evalFamily(func(trainIdx []int) [][]float64 {
		return subgraphRows(typedCensuses, trainIdx)
	})
	if err != nil {
		return nil, err
	}
	plainScores, err := evalFamily(func(trainIdx []int) [][]float64 {
		return subgraphRows(plainCensuses, trainIdx)
	})
	if err != nil {
		return nil, err
	}

	dm, _ := ml.MeanStd(typedScores)
	um, _ := ml.MeanStd(plainScores)
	return &DirectedResult{
		DirectedF1:   dm,
		DirectedCI:   ml.ConfidenceInterval95(typedScores),
		UndirectedF1: um,
		UndirectedCI: ml.ConfidenceInterval95(plainScores),
		Roles:        datagen.NumRoles,
		SampleSize:   len(nodes),
		NetworkEdges: net.Graph.NumEdges(),
	}, nil
}
