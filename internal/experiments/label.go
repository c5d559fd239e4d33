package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"hsgf/internal/core"
	"hsgf/internal/datagen"
	"hsgf/internal/embed"
	"hsgf/internal/graph"
	"hsgf/internal/ml"
)

// UnlabeledName is the label substituted for removed node labels in the
// partial-labelling experiment (Figure 5 D-F).
const UnlabeledName = "unlabeled"

// Embedding family identifiers reused from the rank experiment:
// FamSubgraph, FamNode2Vec, FamDeepWalk, FamLINE.

// LabelFamilies lists the feature families of Figure 5 in display order.
var LabelFamilies = []string{FamSubgraph, FamNode2Vec, FamDeepWalk, FamLINE}

// LabelDataset is one evaluation network for the label-prediction task.
type LabelDataset struct {
	Name  string
	Graph *graph.Graph
}

// LoadLabelDatasets generates the three evaluation networks in the order
// the paper reports them: LOAD, IMDB, MAG. scale in (0, 1] shrinks the
// generators for fast runs.
func LoadLabelDatasets(scale float64, seed int64) ([]LabelDataset, error) {
	if scale <= 0 || scale > 1 {
		return nil, fmt.Errorf("experiments: scale must be in (0,1], got %v", scale)
	}
	sc := func(n int) int {
		v := int(float64(n) * scale)
		if v < 1 {
			v = 1
		}
		return v
	}

	co := datagen.DefaultCooccurrenceConfig()
	co.Seed = seed
	co.Locations = sc(co.Locations)
	co.Organizations = sc(co.Organizations)
	co.Actors = sc(co.Actors)
	co.Dates = sc(co.Dates)
	co.Documents = sc(co.Documents)
	load, err := datagen.GenerateCooccurrence(co)
	if err != nil {
		return nil, err
	}

	mv := datagen.DefaultMovieConfig()
	mv.Seed = seed + 1
	mv.Movies = sc(mv.Movies)
	mv.Actors = sc(mv.Actors)
	mv.Directors = sc(mv.Directors)
	mv.Writers = sc(mv.Writers)
	mv.Composers = sc(mv.Composers)
	mv.Keywords = sc(mv.Keywords)
	imdb, err := datagen.GenerateMovie(mv)
	if err != nil {
		return nil, err
	}

	pc := datagen.DefaultPublicationConfig()
	pc.Seed = seed + 2
	pc.Institutions = sc(pc.Institutions)
	if pc.Institutions < 2 {
		pc.Institutions = 2
	}
	pc.PapersPerConfYear = sc(pc.PapersPerConfYear)
	pc.ExternalPapers = sc(pc.ExternalPapers)
	mag, err := datagen.GeneratePublication(pc)
	if err != nil {
		return nil, err
	}

	return []LabelDataset{
		{Name: "LOAD", Graph: load.Graph},
		{Name: "IMDB", Graph: imdb.Graph},
		{Name: "MAG", Graph: mag.Graph},
	}, nil
}

// LabelConfig parameterises the label-prediction experiments.
type LabelConfig struct {
	PerLabel  int     // sampled nodes per label; the paper uses 250
	MaxEdges  int     // subgraph emax; the paper uses 5
	DmaxLevel float64 // hub cutoff percentile for extraction (paper: 0.90)

	EmbedDim     int
	Walks        embed.WalkConfig
	SGNS         embed.SGNSConfig
	LINESamplesX int

	Repeats    int       // train/test resamples per point (paper: 100)
	TrainFracs []float64 // Figure 5 A-C x-axis
	Removals   []float64 // Figure 5 D-F x-axis (fraction of removed labels)
	DmaxLevels []float64 // Table 2 columns
	EmaxValues []int     // emax sensitivity sweep (§3.1 ablation)

	// CGrid, when non-empty, cross-validates the logistic regression's
	// inverse regularisation strength over this grid on every training
	// split (the paper's §4.3.3 tuning step). Empty keeps C = 1.
	CGrid []float64

	Seed    int64
	Workers int

	// EmbedWorkers parallelises embedding training (walk sharding plus
	// Hogwild SGNS/LINE). 0 or 1 keeps the exact serial trainers, whose
	// output is bitwise-deterministic under Seed; >1 trades that for
	// multicore training (walk corpora stay deterministic regardless).
	EmbedWorkers int
}

// DefaultLabelConfig returns a laptop-scale configuration preserving the
// paper's protocol shape.
func DefaultLabelConfig() LabelConfig {
	return LabelConfig{
		PerLabel:     80,
		MaxEdges:     4,
		DmaxLevel:    0.90,
		EmbedDim:     32,
		Walks:        embed.WalkConfig{WalksPerNode: 5, WalkLength: 20, ReturnP: 1, InOutQ: 1},
		SGNS:         embed.SGNSConfig{Dim: 32, Window: 5, Negatives: 5, Epochs: 1},
		LINESamplesX: 20,
		Repeats:      10,
		TrainFracs:   []float64{0.1, 0.3, 0.5, 0.7, 0.9},
		Removals:     []float64{0, 0.15, 0.30, 0.45, 0.60, 0.75},
		DmaxLevels:   []float64{0.90, 0.92, 0.94, 0.96, 0.98, 1.00},
		EmaxValues:   []int{2, 3, 4, 5},
		Seed:         11,
		Workers:      0,
	}
}

// FullLabelConfig returns the paper's settings (§4.3.2-4.3.3): 250 nodes
// per label, emax=5, d=128 embeddings, 100 resamples.
func FullLabelConfig() LabelConfig {
	cfg := DefaultLabelConfig()
	cfg.PerLabel = 250
	cfg.MaxEdges = 5
	cfg.EmbedDim = 128
	cfg.Walks = embed.DefaultWalkConfig()
	cfg.SGNS = embed.DefaultSGNSConfig()
	cfg.LINESamplesX = 100
	cfg.Repeats = 100
	cfg.TrainFracs = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
	cfg.CGrid = []float64{0.01, 0.1, 1, 10}
	return cfg
}

// labelSample is the evaluation node sample of one dataset: the nodes,
// their true labels, and the extracted features per family.
type labelSample struct {
	nodes    []graph.NodeID
	y        []int
	censuses []*core.Census         // subgraph censuses (keys only)
	embParts map[string][][]float64 // embedding rows per family
}

// sampleNodes draws up to perLabel nodes of every label, deterministic in
// rng.
func sampleNodes(g *graph.Graph, perLabel int, rng *rand.Rand) ([]graph.NodeID, []int) {
	var nodes []graph.NodeID
	var y []int
	for l := 0; l < g.NumLabels(); l++ {
		members := g.NodesWithLabel(graph.Label(l))
		if len(members) == 0 {
			continue
		}
		rng.Shuffle(len(members), func(a, b int) { members[a], members[b] = members[b], members[a] })
		n := perLabel
		if n > len(members) {
			n = len(members)
		}
		for _, v := range members[:n] {
			nodes = append(nodes, v)
			y = append(y, int(l))
		}
	}
	return nodes, y
}

// extractSample computes subgraph censuses and embeddings for a node
// sample of g. ctx cancels the embedding training loops.
func extractSample(ctx context.Context, g *graph.Graph, cfg LabelConfig, rng *rand.Rand) (*labelSample, error) {
	s := &labelSample{embParts: make(map[string][][]float64)}
	s.nodes, s.y = sampleNodes(g, cfg.PerLabel, rng)
	if len(s.nodes) == 0 {
		return nil, fmt.Errorf("experiments: empty node sample")
	}

	dmax := 0
	if cfg.DmaxLevel > 0 && cfg.DmaxLevel < 1 {
		dmax = graph.DegreePercentile(g, cfg.DmaxLevel)
	}
	ex, err := core.NewExtractor(g, core.Options{
		MaxEdges:      cfg.MaxEdges,
		MaxDegree:     dmax,
		MaskRootLabel: true,
	})
	if err != nil {
		return nil, err
	}
	s.censuses = ex.CensusAll(s.nodes, cfg.Workers)

	wcfg := cfg.Walks
	wcfg.Workers = cfg.EmbedWorkers
	scfg := cfg.SGNS
	scfg.Dim = cfg.EmbedDim
	scfg.Workers = cfg.EmbedWorkers
	seed := cfg.Seed * 997
	dw, err := embed.DeepWalk(ctx, g, wcfg, scfg, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	n2v, err := embed.Node2Vec(ctx, g, wcfg, scfg, rand.New(rand.NewSource(seed+1)))
	if err != nil {
		return nil, err
	}
	line, err := embed.LINE(ctx, g, embed.LINEConfig{Dim: cfg.EmbedDim / 2, Negatives: 5,
		Samples: cfg.LINESamplesX * g.NumEdges(), Workers: cfg.EmbedWorkers}, rand.New(rand.NewSource(seed+2)))
	if err != nil {
		return nil, err
	}
	for fam, vecs := range map[string][][]float64{FamDeepWalk: dw, FamNode2Vec: n2v, FamLINE: line} {
		rows := make([][]float64, len(s.nodes))
		for i, v := range s.nodes {
			rows[i] = vecs[v]
		}
		s.embParts[fam] = rows
	}
	return s, nil
}

// evalSplit trains the one-vs-rest logistic classifier on one family's
// train rows and returns the Macro F1 on the test rows. Subgraph count
// features get a log1p variance stabilisation; all features are
// standardised with training statistics. A non-empty cGrid tunes the
// regularisation strength by cross-validation on the training rows
// (§4.3.3).
func evalSplit(x [][]float64, y []int, trainIdx, testIdx []int, logCounts bool, cGrid []float64) (float64, error) {
	xtr := ml.Rows(x, trainIdx)
	xte := ml.Rows(x, testIdx)
	if logCounts {
		xtr = ml.Log1p(xtr)
		xte = ml.Log1p(xte)
	}
	var sc ml.StandardScaler
	xtrS, err := sc.FitTransform(xtr)
	if err != nil {
		return 0, err
	}
	xteS := sc.Transform(xte)
	c := 1.0
	if len(cGrid) > 0 && len(trainIdx) >= 6 {
		tuned, err := ml.TuneLogRegC(xtrS, ml.Ints(y, trainIdx), cGrid, 3, rand.New(rand.NewSource(int64(len(trainIdx)))))
		if err != nil {
			return 0, err
		}
		c = tuned
	}
	clf := ml.OneVsRest{C: c, MaxIter: 100}
	if err := clf.Fit(xtrS, ml.Ints(y, trainIdx)); err != nil {
		return 0, err
	}
	return ml.MacroF1(ml.Ints(y, testIdx), clf.Predict(xteS)), nil
}

// subgraphRows assembles the subgraph design matrix with a vocabulary
// built from the training rows only.
func subgraphRows(censuses []*core.Census, trainIdx []int) [][]float64 {
	vocab := core.NewVocabulary()
	for _, r := range trainIdx {
		if censuses[r] != nil {
			vocab.AddCensus(censuses[r])
		}
	}
	return core.Matrix(censuses, vocab)
}

// CurvePoint is one (training fraction, score) measurement with its 95%
// confidence half-width over repeats.
type CurvePoint struct {
	X    float64
	Mean float64
	CI95 float64
}

// TrainingSizeCurves runs Figure 5 A-C for one dataset: Macro F1 per
// feature family across training fractions, averaged over cfg.Repeats
// stratified resamples. ctx cancels the embedding training phase.
func TrainingSizeCurves(ctx context.Context, g *graph.Graph, cfg LabelConfig) (map[string][]CurvePoint, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	sample, err := extractSample(ctx, g, cfg, rng)
	if err != nil {
		return nil, err
	}
	out := make(map[string][]CurvePoint)
	for _, frac := range cfg.TrainFracs {
		scores := make(map[string][]float64)
		for rep := 0; rep < cfg.Repeats; rep++ {
			splitRng := rand.New(rand.NewSource(cfg.Seed + int64(rep)*1009 + int64(frac*1000)))
			trainIdx, testIdx, err := ml.StratifiedSplit(sample.y, frac, splitRng)
			if err != nil {
				return nil, err
			}
			sub := subgraphRows(sample.censuses, trainIdx)
			f1, err := evalSplit(sub, sample.y, trainIdx, testIdx, true, cfg.CGrid)
			if err != nil {
				return nil, err
			}
			scores[FamSubgraph] = append(scores[FamSubgraph], f1)
			for fam, rows := range sample.embParts {
				f1, err := evalSplit(rows, sample.y, trainIdx, testIdx, false, cfg.CGrid)
				if err != nil {
					return nil, err
				}
				scores[fam] = append(scores[fam], f1)
			}
		}
		for fam, ss := range scores {
			m, _ := ml.MeanStd(ss)
			out[fam] = append(out[fam], CurvePoint{X: frac, Mean: m, CI95: ml.ConfidenceInterval95(ss)})
		}
	}
	return out, nil
}

// relabelFraction returns a copy of g over an alphabet extended with the
// UnlabeledName label, with the given fraction of nodes relabelled to it.
func relabelFraction(g *graph.Graph, frac float64, rng *rand.Rand) (*graph.Graph, error) {
	names := append(g.Alphabet().Names(), UnlabeledName)
	alpha, err := graph.NewAlphabet(names...)
	if err != nil {
		return nil, err
	}
	unl := graph.Label(len(names) - 1)
	b := graph.NewBuilderWithAlphabet(alpha)
	for v := 0; v < g.NumNodes(); v++ {
		l := g.Label(graph.NodeID(v))
		if rng.Float64() < frac {
			l = unl
		}
		if _, err := b.AddLabeledNode(l); err != nil {
			return nil, err
		}
	}
	var addErr error
	g.Edges(func(u, v graph.NodeID) bool {
		if err := b.AddEdge(u, v); err != nil {
			addErr = err
			return false
		}
		return true
	})
	if addErr != nil {
		return nil, addErr
	}
	return b.Build()
}

// LabelRemovalCurves runs Figure 5 D-F for one dataset: Macro F1 per
// family as the fraction of removed node labels grows, at a fixed 90/10
// train/test protocol. Embedding scores are computed once (they are
// invariant to label removal) and replicated across the x-axis, exactly
// as the paper draws them. ctx cancels the embedding training phase.
func LabelRemovalCurves(ctx context.Context, g *graph.Graph, cfg LabelConfig) (map[string][]CurvePoint, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	sample, err := extractSample(ctx, g, cfg, rng)
	if err != nil {
		return nil, err
	}

	// Embedding baselines: fixed across removal fractions.
	embScores := make(map[string][]float64)
	splitAt := func(rep int) ([]int, []int, error) {
		splitRng := rand.New(rand.NewSource(cfg.Seed + int64(rep)*2017))
		return ml.StratifiedSplit(sample.y, 0.9, splitRng)
	}
	for rep := 0; rep < cfg.Repeats; rep++ {
		trainIdx, testIdx, err := splitAt(rep)
		if err != nil {
			return nil, err
		}
		for fam, rows := range sample.embParts {
			f1, err := evalSplit(rows, sample.y, trainIdx, testIdx, false, cfg.CGrid)
			if err != nil {
				return nil, err
			}
			embScores[fam] = append(embScores[fam], f1)
		}
	}

	out := make(map[string][]CurvePoint)
	for _, frac := range cfg.Removals {
		relabelled := g
		if frac > 0 {
			relabelled, err = relabelFraction(g, frac, rand.New(rand.NewSource(cfg.Seed+int64(frac*10000))))
			if err != nil {
				return nil, err
			}
		}
		dmax := 0
		if cfg.DmaxLevel > 0 && cfg.DmaxLevel < 1 {
			dmax = graph.DegreePercentile(relabelled, cfg.DmaxLevel)
		}
		ex, err := core.NewExtractor(relabelled, core.Options{
			MaxEdges:      cfg.MaxEdges,
			MaxDegree:     dmax,
			MaskRootLabel: true,
		})
		if err != nil {
			return nil, err
		}
		censuses := ex.CensusAll(sample.nodes, cfg.Workers)

		var scores []float64
		for rep := 0; rep < cfg.Repeats; rep++ {
			trainIdx, testIdx, err := splitAt(rep)
			if err != nil {
				return nil, err
			}
			sub := subgraphRows(censuses, trainIdx)
			f1, err := evalSplit(sub, sample.y, trainIdx, testIdx, true, cfg.CGrid)
			if err != nil {
				return nil, err
			}
			scores = append(scores, f1)
		}
		m, _ := ml.MeanStd(scores)
		out[FamSubgraph] = append(out[FamSubgraph], CurvePoint{X: frac, Mean: m, CI95: ml.ConfidenceInterval95(scores)})
		for fam, ss := range embScores {
			m, _ := ml.MeanStd(ss)
			out[fam] = append(out[fam], CurvePoint{X: frac, Mean: m, CI95: ml.ConfidenceInterval95(ss)})
		}
	}
	return out, nil
}

// DmaxSweep runs Table 2 for one dataset: Macro F1 of the subgraph
// features at each dmax percentile level, under a fixed 50/50 protocol
// averaged over cfg.Repeats resamples. Levels at 100% on large dense
// networks can be extremely slow — the exact effect the heuristic exists
// to avoid — so callers may cap levels. ctx is checked before each
// level; a cancelled sweep returns ctx.Err().
func DmaxSweep(ctx context.Context, g *graph.Graph, cfg LabelConfig) ([]CurvePoint, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	nodes, y := sampleNodes(g, cfg.PerLabel, rng)
	var out []CurvePoint
	for _, level := range cfg.DmaxLevels {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		dmax := 0
		if level < 1 {
			dmax = graph.DegreePercentile(g, level)
		}
		ex, err := core.NewExtractor(g, core.Options{
			MaxEdges:      cfg.MaxEdges,
			MaxDegree:     dmax,
			MaskRootLabel: true,
		})
		if err != nil {
			return nil, err
		}
		censuses := ex.CensusAll(nodes, cfg.Workers)
		var scores []float64
		for rep := 0; rep < cfg.Repeats; rep++ {
			splitRng := rand.New(rand.NewSource(cfg.Seed + int64(rep)*3023))
			trainIdx, testIdx, err := ml.StratifiedSplit(y, 0.5, splitRng)
			if err != nil {
				return nil, err
			}
			sub := subgraphRows(censuses, trainIdx)
			f1, err := evalSplit(sub, y, trainIdx, testIdx, true, cfg.CGrid)
			if err != nil {
				return nil, err
			}
			scores = append(scores, f1)
		}
		m, _ := ml.MeanStd(scores)
		out = append(out, CurvePoint{X: level, Mean: m, CI95: ml.ConfidenceInterval95(scores)})
	}
	return out, nil
}

// EmaxSweep measures Macro F1 of the subgraph features as the subgraph
// edge budget grows — the §3.1 claim that "larger subgraphs serve as
// more discriminative features", traded against the roughly exponential
// census cost. Fixed 50/50 protocol averaged over cfg.Repeats resamples;
// the returned points carry emax in X and the census wall-clock share is
// reported by the corresponding benchmark. ctx is checked before each
// level; a cancelled sweep returns ctx.Err().
func EmaxSweep(ctx context.Context, g *graph.Graph, cfg LabelConfig) ([]CurvePoint, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	nodes, y := sampleNodes(g, cfg.PerLabel, rng)
	dmax := 0
	if cfg.DmaxLevel > 0 && cfg.DmaxLevel < 1 {
		dmax = graph.DegreePercentile(g, cfg.DmaxLevel)
	}
	var out []CurvePoint
	for _, emax := range cfg.EmaxValues {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ex, err := core.NewExtractor(g, core.Options{
			MaxEdges:      emax,
			MaxDegree:     dmax,
			MaskRootLabel: true,
		})
		if err != nil {
			return nil, err
		}
		censuses := ex.CensusAll(nodes, cfg.Workers)
		var scores []float64
		for rep := 0; rep < cfg.Repeats; rep++ {
			splitRng := rand.New(rand.NewSource(cfg.Seed + int64(rep)*4051))
			trainIdx, testIdx, err := ml.StratifiedSplit(y, 0.5, splitRng)
			if err != nil {
				return nil, err
			}
			sub := subgraphRows(censuses, trainIdx)
			f1, err := evalSplit(sub, y, trainIdx, testIdx, true, cfg.CGrid)
			if err != nil {
				return nil, err
			}
			scores = append(scores, f1)
		}
		m, _ := ml.MeanStd(scores)
		out = append(out, CurvePoint{X: float64(emax), Mean: m, CI95: ml.ConfidenceInterval95(scores)})
	}
	return out, nil
}
