package datagen

import (
	"fmt"
	"math/rand"

	"hsgf/internal/graph"
)

// Citation-role identifiers for the directed-features experiment.
const (
	RoleRegular = iota // cites a normal amount, moderately cited
	RoleSurvey         // cites very many papers, rarely cited
	RoleClassic        // cites few papers, heavily cited
	NumRoles
)

// RoleNames maps role ids to display names.
var RoleNames = []string{"regular", "survey", "classic"}

// CitationConfig parameterises the directed citation network used to
// evaluate the paper's §5 conjecture that directed subgraph features
// outperform undirected ones on directed networks.
type CitationConfig struct {
	Papers       int
	SurveyFrac   float64 // fraction of survey papers
	ClassicFrac  float64 // fraction of classic papers
	RegularCites [2]int  // citations made by regular papers {min, max}
	SurveyCites  [2]int  // citations made by surveys
	ClassicCites [2]int  // citations made by classics
	Seed         int64
}

// DefaultCitationConfig returns a laptop-scale configuration.
func DefaultCitationConfig() CitationConfig {
	// The citation budgets and attractiveness weights below are tuned so
	// the *expected total degree* of the three roles nearly coincides
	// (~30): surveys reach it through out-edges, classics through
	// in-edges, regulars through a mix. An undirected census then sees
	// three barely separable degree profiles, while the directed census
	// separates them trivially — isolating the value of edge directions.
	return CitationConfig{
		Papers:       800,
		SurveyFrac:   0.15,
		ClassicFrac:  0.15,
		RegularCites: [2]int{12, 18},
		SurveyCites:  [2]int{28, 36},
		ClassicCites: [2]int{1, 4},
		Seed:         17,
	}
}

// CitationNetwork is the generated directed citation network. Every node
// carries the same node label ("paper"), so the prediction target — the
// paper's role — is invisible to node-label-based features and only
// recoverable from citation *directions*: surveys have high out-degree,
// classics high in-degree, regulars neither. An undirected census sees
// only total degrees, which surveys and classics share by construction.
type CitationNetwork struct {
	Graph  *graph.Graph // directed, edge-typed
	Roles  []int        // role per paper, aligned with node ids
	Config CitationConfig
}

// GenerateCitation builds the network. Citations point from newer papers
// (higher ids) to older papers; classics attract citations preferentially.
func GenerateCitation(cfg CitationConfig) (*CitationNetwork, error) {
	if cfg.Papers < 10 {
		return nil, fmt.Errorf("datagen: citation network needs >= 10 papers, got %d", cfg.Papers)
	}
	if cfg.SurveyFrac < 0 || cfg.ClassicFrac < 0 || cfg.SurveyFrac+cfg.ClassicFrac >= 1 {
		return nil, fmt.Errorf("datagen: invalid role fractions %v + %v", cfg.SurveyFrac, cfg.ClassicFrac)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	b := graph.NewTypedBuilder(true)
	if err := b.DeclareNodeLabels("paper"); err != nil {
		return nil, err
	}
	if err := b.DeclareEdgeLabels("cites"); err != nil {
		return nil, err
	}

	n := cfg.Papers
	roles := make([]int, n)
	for i := 0; i < n; i++ {
		if _, err := b.AddNode("paper"); err != nil {
			return nil, err
		}
		r := rng.Float64()
		switch {
		case r < cfg.SurveyFrac:
			roles[i] = RoleSurvey
		case r < cfg.SurveyFrac+cfg.ClassicFrac:
			roles[i] = RoleClassic
		default:
			roles[i] = RoleRegular
		}
	}

	// Citation attractiveness: classics are strongly preferred targets,
	// surveys weak ones; regulars in between. Matching total degrees
	// between surveys (high out, low in) and classics (low out, high in)
	// is what makes the undirected census blind to the roles.
	weight := func(j int) float64 {
		switch roles[j] {
		case RoleClassic:
			return 2.5
		case RoleSurvey:
			return 0.08
		default:
			return 1
		}
	}
	citeRange := func(role int) [2]int {
		switch role {
		case RoleSurvey:
			return cfg.SurveyCites
		case RoleClassic:
			return cfg.ClassicCites
		default:
			return cfg.RegularCites
		}
	}
	for i := 10; i < n; i++ { // the first few papers only receive citations
		r := citeRange(roles[i])
		cites := r[0]
		if r[1] > r[0] {
			cites += rng.Intn(r[1] - r[0] + 1)
		}
		if cites > i {
			cites = i
		}
		seen := map[int]bool{}
		for c := 0; c < cites; c++ {
			// Weighted sampling among older papers by rejection.
			var target int
			for tries := 0; tries < 50; tries++ {
				target = rng.Intn(i)
				if seen[target] {
					continue
				}
				if rng.Float64() < weight(target)/2.5 {
					break
				}
			}
			if seen[target] {
				continue
			}
			seen[target] = true
			if err := b.AddEdge(graph.NodeID(i), graph.NodeID(target), "cites"); err != nil {
				return nil, err
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		return nil, err
	}
	return &CitationNetwork{Graph: g, Roles: roles, Config: cfg}, nil
}

// Undirected collapses the citation network into a plain undirected
// node-labelled graph (every node "paper"), the input an undirected
// census would see.
func (c *CitationNetwork) Undirected() (*graph.Graph, error) {
	b := graph.NewBuilderWithAlphabet(graph.MustAlphabet("paper"))
	for i := 0; i < c.Graph.NumNodes(); i++ {
		if _, err := b.AddNode("paper"); err != nil {
			return nil, err
		}
	}
	for e := graph.EdgeID(0); int(e) < c.Graph.NumEdges(); e++ {
		u, v := c.Graph.EdgeEndpoints(e)
		if err := b.AddEdge(u, v); err != nil {
			return nil, err
		}
	}
	return b.Build()
}
