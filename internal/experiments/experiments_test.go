package experiments

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"hsgf/internal/datagen"
	"hsgf/internal/embed"
	"hsgf/internal/graph"
)

// tinyRankConfig shrinks everything so the full pipeline runs in seconds.
func tinyRankConfig() RankConfig {
	cfg := DefaultRankConfig()
	cfg.Publication.Institutions = 25
	cfg.Publication.Conferences = []string{"KDD", "FSE"}
	cfg.Publication.Years = []int{2011, 2012, 2013, 2014}
	cfg.Publication.PapersPerConfYear = 12
	cfg.Publication.ExternalPapers = 80
	cfg.MaxEdges = 3
	cfg.EmbedDim = 8
	cfg.Walks = embed.WalkConfig{WalksPerNode: 2, WalkLength: 8, ReturnP: 1, InOutQ: 1}
	cfg.SGNS = embed.SGNSConfig{Dim: 8, Window: 3, Negatives: 2, Epochs: 1}
	cfg.LINESamplesX = 3
	cfg.ForestTrees = 20
	return cfg
}

func tinyLabelConfig() LabelConfig {
	cfg := DefaultLabelConfig()
	cfg.PerLabel = 20
	cfg.MaxEdges = 3
	cfg.EmbedDim = 8
	cfg.Walks = embed.WalkConfig{WalksPerNode: 2, WalkLength: 8, ReturnP: 1, InOutQ: 1}
	cfg.SGNS = embed.SGNSConfig{Dim: 8, Window: 3, Negatives: 2, Epochs: 1}
	cfg.LINESamplesX = 3
	cfg.Repeats = 3
	cfg.TrainFracs = []float64{0.3, 0.7}
	cfg.Removals = []float64{0, 0.5}
	cfg.DmaxLevels = []float64{0.90, 1.00}
	return cfg
}

func tinyLabelGraph(t *testing.T) *graph.Graph {
	t.Helper()
	cfg := datagen.DefaultCooccurrenceConfig()
	cfg.Locations, cfg.Organizations, cfg.Actors, cfg.Dates = 60, 50, 90, 40
	cfg.Documents = 500
	co, err := datagen.GenerateCooccurrence(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return co.Graph
}

func TestClassicFeaturesShape(t *testing.T) {
	cfg := tinyRankConfig()
	pub, err := datagen.GeneratePublication(cfg.Publication)
	if err != nil {
		t.Fatal(err)
	}
	conf := cfg.Publication.Conferences[0]
	rows := ClassicFeatures(pub, conf, 2013, 2)
	if len(rows) != len(pub.Institutions) {
		t.Fatalf("rows = %d, want %d", len(rows), len(pub.Institutions))
	}
	topWords := topTitleWords(pub, conf, 2013, 20)
	names := ClassicFeatureNames(2, topWords)
	if len(rows[0]) != len(names) {
		t.Fatalf("feature width %d != name count %d", len(rows[0]), len(names))
	}
	// The relevance column must agree with ground truth.
	rel := pub.Relevance(conf, 2012)
	for i, inst := range pub.Institutions {
		if math.Abs(rows[i][0]-rel[inst]) > 1e-9 {
			t.Fatalf("relevance[t-1] mismatch for inst %d: %v vs %v", i, rows[i][0], rel[inst])
		}
	}
	// No feature may peek at the target year: computing features for the
	// first possible target year must not see later papers. Proxy check:
	// sums over full paper counts are monotone in the target year.
	early := ClassicFeatures(pub, conf, 2012, 2)
	late := ClassicFeatures(pub, conf, 2014, 2)
	var se, sl float64
	for i := range early {
		se += early[i][4] // full_papers_past
		sl += late[i][4]
	}
	if se > sl {
		t.Errorf("past paper counts shrank over time: %v > %v", se, sl)
	}
}

// TestClassicFeaturesBitwiseReproducible pins the rank stage's
// determinism: tree regressors split on the last bit of a feature, so
// every float sum must run in a fixed order, never in map iteration
// order.
func TestClassicFeaturesBitwiseReproducible(t *testing.T) {
	cfg := tinyRankConfig()
	pub, err := datagen.GeneratePublication(cfg.Publication)
	if err != nil {
		t.Fatal(err)
	}
	last := cfg.Publication.Years[len(cfg.Publication.Years)-1]
	for _, conf := range cfg.Publication.Conferences {
		want := ClassicFeatures(pub, conf, last, cfg.History)
		diff := 0
		for run := 1; run < 50; run++ {
			got := ClassicFeatures(pub, conf, last, cfg.History)
			for i := range want {
				for j := range want[i] {
					if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
						diff++
					}
				}
			}
		}
		if diff != 0 {
			t.Errorf("%s: %d cells differ bitwise across 50 runs", conf, diff)
		}
	}
}

func TestTopTitleWords(t *testing.T) {
	cfg := tinyRankConfig()
	pub, err := datagen.GeneratePublication(cfg.Publication)
	if err != nil {
		t.Fatal(err)
	}
	words := topTitleWords(pub, cfg.Publication.Conferences[0], 2014, 20)
	if len(words) == 0 || len(words) > 20 {
		t.Fatalf("top words length %d", len(words))
	}
	seen := map[string]bool{}
	for _, w := range words {
		if seen[w] {
			t.Fatalf("duplicate top word %q", w)
		}
		seen[w] = true
	}
}

func TestRunRankEndToEnd(t *testing.T) {
	cfg := tinyRankConfig()
	res, err := RunRank(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Conferences) != 2 {
		t.Fatalf("conferences = %v", res.Conferences)
	}
	for _, fam := range RankFamilies {
		for _, reg := range RankRegressors {
			for _, conf := range res.Conferences {
				v, ok := res.NDCG[fam][reg][conf]
				if !ok {
					t.Fatalf("missing NDCG for %s/%s/%s", fam, reg, conf)
				}
				if v < 0 || v > 1+1e-9 || math.IsNaN(v) {
					t.Fatalf("NDCG %s/%s/%s = %v out of range", fam, reg, conf, v)
				}
			}
		}
	}
	for _, conf := range res.Conferences {
		tops := res.TopSubgraphs[conf]
		if len(tops) == 0 {
			t.Fatalf("no top subgraphs for %s", conf)
		}
		for _, si := range tops {
			if si.Encoding == "" || strings.HasPrefix(si.Encoding, "?") {
				t.Errorf("undecodable top subgraph for %s: %+v", conf, si)
			}
			if si.Importance < 0 {
				t.Errorf("negative importance: %+v", si)
			}
		}
	}
	// Table 1 aggregation agrees with the grid.
	avg := res.Average()
	var manual float64
	for _, conf := range res.Conferences {
		manual += res.NDCG[FamClassic][RegForest][conf]
	}
	manual /= float64(len(res.Conferences))
	if math.Abs(avg[FamClassic][RegForest]-manual) > 1e-12 {
		t.Error("Average() disagrees with manual aggregation")
	}

	// Rendering does not panic and mentions every family.
	var buf bytes.Buffer
	WriteFigure3(&buf, res)
	WriteTable1(&buf, res)
	WriteFigure4(&buf, res)
	out := buf.String()
	for _, fam := range RankFamilies {
		if !strings.Contains(out, fam) {
			t.Errorf("report missing family %s", fam)
		}
	}
}

func TestRankPredictionSignal(t *testing.T) {
	// The headline sanity check: with a real (if small) configuration,
	// subgraph features must carry genuine ranking signal for the
	// forest/ridge regressors — far better than random (~0.3 on this
	// label distribution).
	cfg := tinyRankConfig()
	cfg.Publication.Institutions = 40
	cfg.Publication.PapersPerConfYear = 25
	cfg.Publication.Years = []int{2010, 2011, 2012, 2013, 2014}
	cfg.Publication.Conferences = []string{"KDD"}
	res, err := RunRank(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	sub := res.NDCG[FamSubgraph][RegForest]["KDD"]
	classic := res.NDCG[FamClassic][RegForest]["KDD"]
	if sub < 0.5 {
		t.Errorf("subgraph forest NDCG = %v, want > 0.5", sub)
	}
	if classic < 0.5 {
		t.Errorf("classic forest NDCG = %v, want > 0.5", classic)
	}
}

func TestSampleNodes(t *testing.T) {
	g := tinyLabelGraph(t)
	rng := rand.New(rand.NewSource(1))
	nodes, y := sampleNodes(g, 10, rng)
	if len(nodes) != len(y) {
		t.Fatal("nodes/labels misaligned")
	}
	perLabel := make(map[int]int)
	for i, v := range nodes {
		if int(g.Label(v)) != y[i] {
			t.Fatal("label mismatch")
		}
		perLabel[y[i]]++
	}
	for l, c := range perLabel {
		if c > 10 {
			t.Errorf("label %d sampled %d nodes, cap 10", l, c)
		}
	}
	if len(perLabel) != g.NumLabels() {
		t.Errorf("sampled %d labels, want %d", len(perLabel), g.NumLabels())
	}
}

func TestTrainingSizeCurves(t *testing.T) {
	g := tinyLabelGraph(t)
	cfg := tinyLabelConfig()
	curves, err := TrainingSizeCurves(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, fam := range LabelFamilies {
		pts, ok := curves[fam]
		if !ok {
			t.Fatalf("missing curve for %s", fam)
		}
		if len(pts) != len(cfg.TrainFracs) {
			t.Fatalf("%s: %d points, want %d", fam, len(pts), len(cfg.TrainFracs))
		}
		for _, p := range pts {
			if p.Mean < 0 || p.Mean > 1 || math.IsNaN(p.Mean) {
				t.Fatalf("%s: F1 %v out of range", fam, p.Mean)
			}
		}
	}
	// The paper's headline: subgraph features dominate embeddings. On
	// the co-occurrence network the gap is large even at tiny scale.
	last := len(cfg.TrainFracs) - 1
	sub := curves[FamSubgraph][last].Mean
	for _, fam := range []string{FamDeepWalk, FamNode2Vec} {
		if sub <= curves[fam][last].Mean {
			t.Errorf("subgraph F1 %v not above %s F1 %v", sub, fam, curves[fam][last].Mean)
		}
	}
	var buf bytes.Buffer
	WriteCurves(&buf, "Figure 5A — LOAD", "train", curves)
	if !strings.Contains(buf.String(), FamSubgraph) {
		t.Error("curve report missing subgraph family")
	}
}

func TestLabelRemovalCurves(t *testing.T) {
	g := tinyLabelGraph(t)
	cfg := tinyLabelConfig()
	curves, err := LabelRemovalCurves(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sub := curves[FamSubgraph]
	if len(sub) != len(cfg.Removals) {
		t.Fatalf("subgraph points = %d, want %d", len(sub), len(cfg.Removals))
	}
	// Embeddings are invariant: flat lines.
	for _, fam := range []string{FamDeepWalk, FamNode2Vec, FamLINE} {
		pts := curves[fam]
		for i := 1; i < len(pts); i++ {
			if pts[i].Mean != pts[0].Mean {
				t.Errorf("%s must be invariant to label removal", fam)
			}
		}
	}
}

func TestRelabelFraction(t *testing.T) {
	g := tinyLabelGraph(t)
	rng := rand.New(rand.NewSource(5))
	relabelled, err := relabelFraction(g, 0.5, rng)
	if err != nil {
		t.Fatal(err)
	}
	if relabelled.NumNodes() != g.NumNodes() || relabelled.NumEdges() != g.NumEdges() {
		t.Fatal("relabelling must preserve structure")
	}
	if relabelled.NumLabels() != g.NumLabels()+1 {
		t.Fatalf("labels = %d, want %d", relabelled.NumLabels(), g.NumLabels()+1)
	}
	unl, ok := relabelled.Alphabet().Lookup(UnlabeledName)
	if !ok {
		t.Fatal("unlabeled label missing")
	}
	counts := relabelled.CountLabels()
	frac := float64(counts[unl]) / float64(relabelled.NumNodes())
	if frac < 0.4 || frac > 0.6 {
		t.Errorf("unlabeled fraction %v, want ≈ 0.5", frac)
	}
	// frac = 0 keeps everything.
	same, err := relabelFraction(g, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	if same.CountLabels()[unl] != 0 {
		t.Error("frac 0 must not relabel")
	}
}

func TestDmaxSweep(t *testing.T) {
	g := tinyLabelGraph(t)
	cfg := tinyLabelConfig()
	pts, err := DmaxSweep(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(cfg.DmaxLevels) {
		t.Fatalf("points = %d, want %d", len(pts), len(cfg.DmaxLevels))
	}
	for _, p := range pts {
		if p.Mean < 0 || p.Mean > 1 {
			t.Fatalf("F1 %v out of range", p.Mean)
		}
	}
	var buf bytes.Buffer
	WriteTable2(&buf, map[string][]CurvePoint{"LOAD": pts}, []string{"LOAD"})
	if !strings.Contains(buf.String(), "LOAD") {
		t.Error("table 2 rendering missing dataset")
	}
}

func TestSweepsHonourCancellation(t *testing.T) {
	g := tinyLabelGraph(t)
	cfg := tinyLabelConfig()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, sweep := range map[string]func(context.Context, *graph.Graph, LabelConfig) ([]CurvePoint, error){
		"dmax": DmaxSweep,
		"emax": EmaxSweep,
	} {
		pts, err := sweep(ctx, g, cfg)
		if !errors.Is(err, context.Canceled) || pts != nil {
			t.Errorf("%s sweep under a cancelled context = %v, %v; want no points and context.Canceled", name, pts, err)
		}
	}
}

func TestMeasureRuntime(t *testing.T) {
	g := tinyLabelGraph(t)
	cfg := tinyLabelConfig()
	cfg.PerLabel = 8
	row, err := MeasureRuntime(context.Background(), "LOAD", g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if row.Nodes == 0 {
		t.Fatal("no nodes measured")
	}
	if row.SubgraphMax < row.SubgraphP75 {
		t.Error("max below p75")
	}
	if row.SubgraphMean <= 0 || row.DeepWalkMean <= 0 || row.Node2VecMean <= 0 || row.LINEMean <= 0 {
		t.Error("non-positive timings")
	}
	var buf bytes.Buffer
	WriteTable3(&buf, []*RuntimeRow{row})
	if !strings.Contains(buf.String(), "LOAD") {
		t.Error("table 3 rendering missing dataset")
	}
}

func TestLoadLabelDatasets(t *testing.T) {
	ds, err := LoadLabelDatasets(0.15, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 3 {
		t.Fatalf("datasets = %d, want 3", len(ds))
	}
	names := []string{"LOAD", "IMDB", "MAG"}
	for i, d := range ds {
		if d.Name != names[i] {
			t.Errorf("dataset %d = %s, want %s", i, d.Name, names[i])
		}
		if err := d.Graph.Validate(); err != nil {
			t.Errorf("%s: %v", d.Name, err)
		}
	}
	if _, err := LoadLabelDatasets(0, 1); err == nil {
		t.Error("scale 0 must fail")
	}
	if _, err := LoadLabelDatasets(1.5, 1); err == nil {
		t.Error("scale > 1 must fail")
	}
}

func TestTopLabelFeatures(t *testing.T) {
	g := tinyLabelGraph(t)
	cfg := tinyLabelConfig()
	tops, err := TopLabelFeatures(g, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(tops) != g.NumLabels() {
		t.Fatalf("classes = %d, want %d", len(tops), g.NumLabels())
	}
	for class, feats := range tops {
		if len(feats) == 0 || len(feats) > 3 {
			t.Fatalf("%s: %d features, want 1..3", class, len(feats))
		}
		for i, f := range feats {
			if f.Encoding == "" || strings.HasPrefix(f.Encoding, "?") {
				t.Errorf("%s: undecodable feature %q", class, f.Encoding)
			}
			if i > 0 && feats[i-1].Weight < f.Weight {
				t.Errorf("%s: features not sorted by weight", class)
			}
		}
	}
}

func TestWriteTable2UnionHeader(t *testing.T) {
	// Datasets covering different level sets (the dense ones skip the
	// unlimited level) must render against the union of levels with "–"
	// for missing cells.
	rows := map[string][]CurvePoint{
		"LOAD": {{X: 0.90, Mean: 0.5}, {X: 0.98, Mean: 0.51}},
		"IMDB": {{X: 0.90, Mean: 0.7}, {X: 0.98, Mean: 0.7}, {X: 1.00, Mean: 0.69}},
	}
	var buf bytes.Buffer
	WriteTable2(&buf, rows, []string{"LOAD", "IMDB"})
	out := buf.String()
	if !strings.Contains(out, "100%") {
		t.Error("header missing the 100% level")
	}
	if !strings.Contains(out, "–") {
		t.Error("missing cells must render as –")
	}
	if !strings.Contains(out, "0.69") {
		t.Error("IMDB's 100% cell missing")
	}
}
