// Benchmarks regenerating every table and figure of the paper's
// evaluation section (see DESIGN.md §3 for the experiment index), plus
// ablation benchmarks for the design choices of §3.2. Each benchmark runs
// a reduced-scale but protocol-faithful version of its experiment and
// reports the headline quality metric alongside the timing, so a single
//
//	go test -bench=. -benchmem
//
// sweep reproduces the comparison shape of the whole evaluation. The
// full-scale tables are produced by the cmd/rankbench, cmd/labelbench,
// cmd/runtimebench and cmd/isoaudit tools.
package hsgf_test

import (
	"context"
	"math/rand"
	"testing"

	"hsgf"
	"hsgf/internal/core"
	"hsgf/internal/datagen"
	"hsgf/internal/embed"
	"hsgf/internal/experiments"
	"hsgf/internal/graph"
	"hsgf/internal/iso"
	"hsgf/internal/motif"
)

// benchRankConfig is the reduced rank-prediction configuration shared by
// the Figure 3 / Table 1 / Figure 4 benchmarks.
func benchRankConfig() experiments.RankConfig {
	cfg := experiments.DefaultRankConfig()
	cfg.Publication.Institutions = 30
	cfg.Publication.Conferences = []string{"KDD", "ICML"}
	cfg.Publication.Years = []int{2010, 2011, 2012, 2013, 2014}
	cfg.Publication.PapersPerConfYear = 15
	cfg.Publication.ExternalPapers = 120
	cfg.MaxEdges = 3
	cfg.EmbedDim = 16
	cfg.Walks = embed.WalkConfig{WalksPerNode: 3, WalkLength: 10, ReturnP: 1, InOutQ: 1}
	cfg.SGNS = embed.SGNSConfig{Dim: 16, Window: 4, Negatives: 3, Epochs: 1}
	cfg.LINESamplesX = 5
	cfg.ForestTrees = 50
	return cfg
}

func benchLabelConfig() experiments.LabelConfig {
	cfg := experiments.DefaultLabelConfig()
	cfg.PerLabel = 40
	cfg.MaxEdges = 3
	cfg.EmbedDim = 16
	cfg.Walks = embed.WalkConfig{WalksPerNode: 3, WalkLength: 10, ReturnP: 1, InOutQ: 1}
	cfg.SGNS = embed.SGNSConfig{Dim: 16, Window: 4, Negatives: 3, Epochs: 1}
	cfg.LINESamplesX = 5
	cfg.Repeats = 5
	cfg.TrainFracs = []float64{0.1, 0.5, 0.9}
	cfg.Removals = []float64{0, 0.25, 0.5, 0.75}
	cfg.DmaxLevels = []float64{0.90, 0.94, 0.98}
	return cfg
}

func benchLabelGraph(b *testing.B) *graph.Graph {
	b.Helper()
	cfg := datagen.DefaultCooccurrenceConfig()
	cfg.Locations, cfg.Organizations, cfg.Actors, cfg.Dates = 120, 100, 200, 80
	cfg.Documents = 1200
	co, err := datagen.GenerateCooccurrence(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return co.Graph
}

// BenchmarkFigure3RankPrediction regenerates Figure 3: NDCG@20 of all
// six feature families under the four regressors, per conference. It
// reports the subgraph-features random-forest score (the paper's
// headline cell) and the embedding gap.
func BenchmarkFigure3RankPrediction(b *testing.B) {
	cfg := benchRankConfig()
	var res *experiments.RankResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.RunRank(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	avg := res.Average()
	b.ReportMetric(avg[experiments.FamSubgraph][experiments.RegForest], "ndcg-subgraph-rf")
	b.ReportMetric(avg[experiments.FamClassic][experiments.RegForest], "ndcg-classic-rf")
	b.ReportMetric(avg[experiments.FamDeepWalk][experiments.RegForest], "ndcg-deepwalk-rf")
}

// BenchmarkTable1AverageNDCG regenerates Table 1: the cross-conference
// NDCG averages per feature family and regressor.
func BenchmarkTable1AverageNDCG(b *testing.B) {
	cfg := benchRankConfig()
	res, err := experiments.RunRank(context.Background(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var avg map[string]map[string]float64
	for i := 0; i < b.N; i++ {
		avg = res.Average()
	}
	b.ReportMetric(avg[experiments.FamSubgraph][experiments.RegBayRidge], "ndcg-subgraph-bayridge")
	b.ReportMetric(avg[experiments.FamCombined][experiments.RegForest], "ndcg-combined-rf")
}

// BenchmarkFigure4FeatureImportance regenerates Figure 4: the
// most-discriminative-subgraph analysis via random-forest importances.
func BenchmarkFigure4FeatureImportance(b *testing.B) {
	cfg := benchRankConfig()
	cfg.Publication.Conferences = []string{"KDD"}
	var res *experiments.RankResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.RunRank(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	tops := res.TopSubgraphs["KDD"]
	if len(tops) == 0 {
		b.Fatal("no top subgraphs")
	}
	b.ReportMetric(tops[0].Importance, "top-importance")
}

// BenchmarkTable2DmaxSweep regenerates Table 2: Macro F1 of the
// subgraph features across maximum-degree percentile levels on the dense
// co-occurrence network.
func BenchmarkTable2DmaxSweep(b *testing.B) {
	g := benchLabelGraph(b)
	cfg := benchLabelConfig()
	b.ResetTimer()
	var pts []experiments.CurvePoint
	var err error
	for i := 0; i < b.N; i++ {
		pts, err = experiments.DmaxSweep(g, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(pts[0].Mean, "f1-at-p90")
	b.ReportMetric(pts[len(pts)-1].Mean, "f1-at-top-level")
}

// BenchmarkTable3Runtime regenerates Table 3: the per-node census time
// distribution versus the amortised embedding costs.
func BenchmarkTable3Runtime(b *testing.B) {
	g := benchLabelGraph(b)
	cfg := benchLabelConfig()
	cfg.PerLabel = 15
	b.ResetTimer()
	var row *experiments.RuntimeRow
	var err error
	for i := 0; i < b.N; i++ {
		row, err = experiments.MeasureRuntime(context.Background(), "LOAD", g, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(row.SubgraphMean.Seconds()*1e3, "census-ms/node")
	b.ReportMetric(row.DeepWalkMean.Seconds()*1e3, "deepwalk-ms/node")
}

// BenchmarkFigure5TrainingSize regenerates Figure 5 A-C: Macro F1 of
// subgraph features versus the three embeddings across training sizes.
func BenchmarkFigure5TrainingSize(b *testing.B) {
	g := benchLabelGraph(b)
	cfg := benchLabelConfig()
	b.ResetTimer()
	var curves map[string][]experiments.CurvePoint
	var err error
	for i := 0; i < b.N; i++ {
		curves, err = experiments.TrainingSizeCurves(context.Background(), g, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	last := len(cfg.TrainFracs) - 1
	b.ReportMetric(curves[experiments.FamSubgraph][last].Mean, "f1-subgraph")
	b.ReportMetric(curves[experiments.FamLINE][last].Mean, "f1-line")
	b.ReportMetric(curves[experiments.FamDeepWalk][last].Mean, "f1-deepwalk")
}

// BenchmarkFigure5LabelRemoval regenerates Figure 5 D-F: Macro F1 as
// node labels are progressively removed.
func BenchmarkFigure5LabelRemoval(b *testing.B) {
	g := benchLabelGraph(b)
	cfg := benchLabelConfig()
	b.ResetTimer()
	var curves map[string][]experiments.CurvePoint
	var err error
	for i := 0; i < b.N; i++ {
		curves, err = experiments.LabelRemovalCurves(context.Background(), g, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	pts := curves[experiments.FamSubgraph]
	b.ReportMetric(pts[0].Mean, "f1-all-labels")
	b.ReportMetric(pts[len(pts)-1].Mean, "f1-75pct-removed")
}

// BenchmarkEncodingCollisionAudit regenerates the §3.1 uniqueness-bound
// audit (Figure 1C): exhaustive enumeration up to 5 edges in the loopy
// regime.
func BenchmarkEncodingCollisionAudit(b *testing.B) {
	var bound int
	for i := 0; i < b.N; i++ {
		bound, _ = iso.MaxUniqueEdges(5, 1, false)
	}
	if bound != 4 {
		b.Fatalf("loopy uniqueness bound = %d, want 4", bound)
	}
	b.ReportMetric(float64(bound), "emax-unique-loopy")
}

// --- Ablation benchmarks (DESIGN.md E9) -----------------------------

// ablationGraph is a dense-ish labelled graph exercising the census hot
// path.
func ablationGraph(b *testing.B) (*graph.Graph, []graph.NodeID) {
	b.Helper()
	rng := rand.New(rand.NewSource(123))
	gb := graph.NewBuilderWithAlphabet(graph.MustAlphabet("a", "b", "c"))
	n := 300
	for i := 0; i < n; i++ {
		gb.AddLabeledNode(graph.Label(rng.Intn(3)))
	}
	for u := 0; u < n; u++ {
		for k := 0; k < 6; k++ {
			v := rng.Intn(n)
			if v != u {
				gb.AddEdge(graph.NodeID(u), graph.NodeID(v))
			}
		}
	}
	g := gb.MustBuild()
	roots := make([]graph.NodeID, 40)
	for i := range roots {
		roots[i] = graph.NodeID(i)
	}
	return g, roots
}

func benchCensus(b *testing.B, opts core.Options) {
	g, roots := ablationGraph(b)
	ex, err := core.NewExtractor(g, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var total int64
	for i := 0; i < b.N; i++ {
		total = 0
		for _, c := range ex.CensusAll(roots, 1) {
			total += c.Subgraphs
		}
	}
	b.ReportMetric(float64(total)/float64(len(roots)), "subgraphs/node")
}

// BenchmarkAblationRollingHash measures the census with the paper's
// incremental rolling hash (the contribution of §3.2's hashing
// optimization)...
func BenchmarkAblationRollingHash(b *testing.B) {
	benchCensus(b, core.Options{MaxEdges: 4})
}

// BenchmarkAblationCanonicalString ...against the baseline that
// materialises and hashes the canonical sequence at every emission.
func BenchmarkAblationCanonicalString(b *testing.B) {
	benchCensus(b, core.Options{MaxEdges: 4, KeyMode: core.CanonicalString})
}

// BenchmarkAblationLeafBatching measures the census with the
// heterogeneous optimization heuristic (same-label leaf attachments
// counted in one step)...
func BenchmarkAblationLeafBatching(b *testing.B) {
	benchCensus(b, core.Options{MaxEdges: 4})
}

// BenchmarkAblationNoLeafBatching ...against per-leaf counting.
func BenchmarkAblationNoLeafBatching(b *testing.B) {
	benchCensus(b, core.Options{MaxEdges: 4, DisableLeafBatching: true})
}

// BenchmarkAblationEmaxQuality measures the quality side of the emax
// trade-off (§3.1: larger subgraphs are more discriminative): Macro F1
// of the label-prediction protocol per edge budget.
func BenchmarkAblationEmaxQuality(b *testing.B) {
	g := benchLabelGraph(b)
	cfg := benchLabelConfig()
	cfg.EmaxValues = []int{2, 3, 4}
	b.ResetTimer()
	var pts []experiments.CurvePoint
	var err error
	for i := 0; i < b.N; i++ {
		pts, err = experiments.EmaxSweep(g, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(pts[0].Mean, "f1-emax2")
	b.ReportMetric(pts[len(pts)-1].Mean, "f1-emax4")
}

// BenchmarkMotifGlobalCensus measures the §2 comparator: the global
// ESU census of all size-3 induced subgraphs on the same graph the
// rooted benchmarks use.
func BenchmarkMotifGlobalCensus(b *testing.B) {
	g, _ := ablationGraph(b)
	b.ResetTimer()
	var total int64
	for i := 0; i < b.N; i++ {
		c, err := motif.Enumerate(g, 3)
		if err != nil {
			b.Fatal(err)
		}
		total = c.Total
	}
	b.ReportMetric(float64(total), "subgraphs")
}

// BenchmarkDirectedFeatures measures the §5 extension experiment:
// directed (typed) versus undirected subgraph features for role
// prediction on the degree-matched citation network.
func BenchmarkDirectedFeatures(b *testing.B) {
	cfg := experiments.DefaultDirectedConfig()
	cfg.Citation.Papers = 400
	cfg.PerRole = 40
	cfg.Repeats = 5
	b.ResetTimer()
	var res *experiments.DirectedResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.RunDirected(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.DirectedF1, "f1-directed")
	b.ReportMetric(res.UndirectedF1, "f1-undirected")
}

// BenchmarkCensusEmax3/4/5 sweep the subgraph budget, the paper's main
// cost knob (§3.1: cost grows roughly exponentially with emax).
func BenchmarkCensusEmax3(b *testing.B) { benchCensus(b, core.Options{MaxEdges: 3}) }
func BenchmarkCensusEmax4(b *testing.B) { benchCensus(b, core.Options{MaxEdges: 4}) }
func BenchmarkCensusEmax5(b *testing.B) { benchCensus(b, core.Options{MaxEdges: 5}) }

// BenchmarkCensusParallel measures by-node parallel scaling of the
// census (the paper's "trivially parallelizable" claim, §3.2).
func BenchmarkCensusParallel(b *testing.B) {
	g, roots := ablationGraph(b)
	ex, err := core.NewExtractor(g, core.Options{MaxEdges: 4})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex.CensusAll(roots, 0)
	}
}

// BenchmarkTypedDirectedCensus measures the §5 extension: the census on
// a directed, edge-labelled version of the ablation graph.
func BenchmarkTypedDirectedCensus(b *testing.B) {
	rng := rand.New(rand.NewSource(321))
	tb := graph.NewTypedBuilder(true)
	tb.DeclareNodeLabels("a", "b", "c")
	tb.DeclareEdgeLabels("x", "y")
	n := 300
	for i := 0; i < n; i++ {
		tb.AddNode([]string{"a", "b", "c"}[rng.Intn(3)])
	}
	for u := 0; u < n; u++ {
		for k := 0; k < 6; k++ {
			v := rng.Intn(n)
			if v != u {
				tb.AddEdge(graph.NodeID(u), graph.NodeID(v), []string{"x", "y"}[rng.Intn(2)])
			}
		}
	}
	g, err := tb.Build()
	if err != nil {
		b.Fatal(err)
	}
	ex, err := core.NewExtractor(g, core.Options{MaxEdges: 4})
	if err != nil {
		b.Fatal(err)
	}
	roots := make([]graph.NodeID, 40)
	for i := range roots {
		roots[i] = graph.NodeID(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var total int64
	for i := 0; i < b.N; i++ {
		total = 0
		for _, c := range ex.CensusAll(roots, 1) {
			total += c.Subgraphs
		}
	}
	b.ReportMetric(float64(total)/float64(len(roots)), "subgraphs/node")
}

// BenchmarkExtractFeaturesFacade exercises the public one-call API.
func BenchmarkExtractFeaturesFacade(b *testing.B) {
	g, roots := ablationGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := hsgf.ExtractFeatures(g, roots, hsgf.Options{MaxEdges: 3}, 0); err != nil {
			b.Fatal(err)
		}
	}
}
