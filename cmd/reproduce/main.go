// Command reproduce runs the entire evaluation of the paper end to end
// at a chosen scale and writes every artifact to one report, one stage
// each: the §3.1 encoding audit (audit), Figure 3 / Table 1 / Figure 4
// (rank), Figure 5 A-F (label-LOAD, label-IMDB, label-MAG), the
// label-task interpretability report (interpret), Table 2 (dmax), the
// §3.1 emax ablation (emax), Table 3 (runtime), the §5 directed-features
// experiment (directed) and the §2 motif contrast (motif).
//
//	reproduce                      # laptop scale, ~30-60 min, stdout
//	reproduce -quick               # reduced protocol, minutes
//	reproduce -full                # the paper's protocol parameters, hours
//	reproduce -only dmax,runtime   # the named stages, in pipeline order
//	reproduce -out report.txt      # write the report to a file
//
// The run is resilient: every stage executes under panic isolation and
// is retried with exponential backoff; a stage that keeps failing is
// skipped with an explicit gap marker in the report instead of aborting
// the reproduction, and the closing stage summary lists every outcome.
// With -checkpoint DIR each completed stage's rendered section is
// persisted, and a later run with -checkpoint DIR -resume splices those
// sections instead of recomputing them — so a run killed after the rank
// stage resumes with the rank stage already done. DIR records the
// options that shape section content (-seed, -scale, -quick, -full,
// -embed-workers); a resume under different options is refused. -only
// is not recorded, so stages checkpointed by an -only run are reused
// by a later full resume.
//
// SIGINT or SIGTERM stops the run: the running stage is cancelled and
// not retried, no later stage starts, and each is marked skipped in the
// report, which is still written.
//
// Exit status: 0 on a complete report, 1 on fatal errors (unwritable
// report, bad flags, a refused resume), 3 when the report was written
// but one or more stages were skipped or interrupted.
//
// Every run is deterministic under -seed when -embed-workers=1, apart
// from the wall-clock figures of the runtime and motif stages and the
// rank stage's tree-regressor cells on classic features, which move by
// up to 0.02 (the authorship feature sums floats in map order); at
// higher worker counts the walk corpora stay deterministic but Hogwild
// embedding training trades bitwise reproducibility for multicore speed
// (see DESIGN.md §10).
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"hsgf/internal/embed"
	"hsgf/internal/experiments"
	"hsgf/internal/store"
)

// options are the flags that shape report content; a checkpoint
// directory records them.
type options struct {
	quick, full  bool
	scale        float64
	seed         int64
	embedWorkers int
}

func (o options) validate() error {
	if o.quick && o.full {
		return errors.New("-quick and -full are mutually exclusive")
	}
	return nil
}

// record names each option as its flag for the checkpoint directory.
func (o options) record() []string {
	return []string{
		fmt.Sprintf("seed=%d", o.seed),
		fmt.Sprintf("scale=%g", o.scale),
		fmt.Sprintf("quick=%t", o.quick),
		fmt.Sprintf("full=%t", o.full),
		fmt.Sprintf("embed-workers=%d", o.embedWorkers),
	}
}

func main() {
	var (
		o        options
		out      = flag.String("out", "", "report path (default: stdout)")
		only     = flag.String("only", "", "comma-separated stages to run, in pipeline order (default: all)")
		ckpt     = flag.String("checkpoint", "", "directory for per-stage checkpoints")
		resume   = flag.Bool("resume", false, "splice completed stages from the checkpoint directory")
		storeDir = flag.String("store", "", "also persist the finished report into this artifact store as a checksummed snapshot")
		attempts = flag.Int("attempts", 2, "attempts per stage before it is skipped")
		backoff  = flag.Duration("backoff", 2*time.Second, "backoff before the first stage retry (doubles per retry)")
	)
	flag.BoolVar(&o.quick, "quick", false, "reduced protocol (minutes instead of an hour)")
	flag.BoolVar(&o.full, "full", false, "the paper's protocol parameters (hours)")
	flag.Float64Var(&o.scale, "scale", 0.2, "label-prediction network scale in (0,1]")
	flag.Int64Var(&o.seed, "seed", 42, "experiment seed")
	flag.IntVar(&o.embedWorkers, "embed-workers", runtime.GOMAXPROCS(0),
		"parallel workers for embedding training (1 = exact serial, bitwise-deterministic)")
	flag.Parse()
	if err := o.validate(); err != nil {
		fail(err)
	}
	if *resume && *ckpt == "" {
		fail(fmt.Errorf("-resume requires -checkpoint"))
	}

	// Ctrl-C / SIGTERM cancels the running stage; the pipeline then
	// starts no further stage and marks each one skipped.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	stages, err := selectStages(buildStages(ctx, o), *only)
	if err != nil {
		fail(err)
	}
	var sections *experiments.SectionStore
	if *ckpt != "" {
		sections = &experiments.SectionStore{Dir: *ckpt, Resume: *resume, Options: o.record()}
		if err := sections.Open(); err != nil {
			fail(err)
		}
	}

	w := io.Writer(os.Stdout)
	var f *os.File
	if *out != "" {
		f, err = os.Create(*out)
		if err != nil {
			fail(err)
		}
		w = f
	}
	// With -store the report is teed into a buffer and persisted as the
	// next checksummed "report" generation once the pipeline finishes —
	// a crash mid-run never leaves a torn snapshot behind.
	var reportBuf *bytes.Buffer
	if *storeDir != "" {
		reportBuf = &bytes.Buffer{}
		w = io.MultiWriter(w, reportBuf)
	}

	start := time.Now()
	fmt.Fprintf(w, "hsgf full reproduction — seed %d, scale %.2f, quick=%v, full=%v\n\n", o.seed, o.scale, o.quick, o.full)
	runner := &experiments.StageRunner{
		MaxAttempts: *attempts,
		Backoff:     *backoff,
		Log:         os.Stderr,
	}
	ok := experiments.RunPipeline(ctx, w, stages, runner, sections)
	fmt.Fprintf(w, "\ntotal: %v\n", time.Since(start).Round(time.Second))
	fmt.Fprintln(os.Stderr, "reproduce: done in", time.Since(start).Round(time.Second))

	// A truncated report must never pass for a successful one: surface
	// flush/sync/close failures instead of swallowing them in a defer.
	// Unsyncable sinks (/dev/null, pipes) report EINVAL/ENOTSUP and are
	// fine.
	if f != nil {
		if err := f.Sync(); err != nil && !errors.Is(err, syscall.EINVAL) && !errors.Is(err, syscall.ENOTSUP) {
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
	}
	if reportBuf != nil {
		st, err := store.Open(*storeDir, store.Options{})
		if err != nil {
			fail(err)
		}
		gen, err := st.Write("report", []store.Section{{Name: "report", Payload: reportBuf.Bytes()}})
		if err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "reproduce: stored report generation %d in %s\n", gen, *storeDir)
	}
	if !ok {
		if ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, "reproduce: interrupted")
		}
		fmt.Fprintln(os.Stderr, "reproduce: report contains skipped stages (exit 3)")
		os.Exit(3)
	}
}

// selectStages keeps the stages named in the comma-separated list only,
// in pipeline order; an empty list keeps them all.
func selectStages(stages []experiments.Stage, only string) ([]experiments.Stage, error) {
	if only == "" {
		return stages, nil
	}
	want := map[string]bool{}
	for _, name := range strings.Split(only, ",") {
		want[strings.TrimSpace(name)] = true
	}
	var names []string
	var kept []experiments.Stage
	for _, st := range stages {
		names = append(names, st.Name)
		if want[st.Name] {
			kept = append(kept, st)
			delete(want, st.Name)
		}
	}
	for name := range want {
		return nil, fmt.Errorf("-only: unknown stage %q (stages: %s)", name, strings.Join(names, ", "))
	}
	return kept, nil
}

// buildStages assembles the reproduction pipeline. Each stage renders a
// self-contained report section, so a resumed run can splice the saved
// text verbatim. The label datasets are generated lazily and shared:
// generation failures surface in (and are retried by) whichever
// dependent stage runs first, without touching independent stages.
func buildStages(ctx context.Context, o options) []experiments.Stage {
	var (
		datasets    []experiments.LabelDataset
		datasetsErr error
		loaded      bool
	)
	getDatasets := func() ([]experiments.LabelDataset, error) {
		if !loaded {
			datasets, datasetsErr = experiments.LoadLabelDatasets(o.scale, o.seed)
			loaded = datasetsErr == nil // a failed generation is retried next call
		}
		return datasets, datasetsErr
	}

	lcfg := experiments.DefaultLabelConfig()
	if o.full {
		lcfg = experiments.FullLabelConfig()
	}
	lcfg.Seed = o.seed
	lcfg.EmbedWorkers = o.embedWorkers
	if o.quick {
		lcfg.PerLabel = 40
		lcfg.Repeats = 5
		lcfg.TrainFracs = []float64{0.1, 0.5, 0.9}
		lcfg.Removals = []float64{0, 0.25, 0.5, 0.75}
		lcfg.DmaxLevels = []float64{0.90, 0.94, 0.98}
		lcfg.EmaxValues = []int{2, 3, 4}
	}

	stages := []experiments.Stage{
		{Name: "audit", Fn: func(w io.Writer) error {
			step(w, "E8: §3.1 encoding uniqueness audit")
			return writeAudit(w)
		}},
		{Name: "rank", Fn: func(w io.Writer) error {
			step(w, "E1-E3: rank prediction (Figure 3, Table 1, Figure 4)")
			rcfg := experiments.DefaultRankConfig()
			if o.full {
				rcfg = experiments.FullRankConfig()
			}
			rcfg.Seed = o.seed
			rcfg.Publication.Seed = o.seed
			rcfg.EmbedWorkers = o.embedWorkers
			if o.quick {
				rcfg.Publication.Institutions = 40
				rcfg.Publication.PapersPerConfYear = 20
				rcfg.Publication.ExternalPapers = 300
				rcfg.MaxEdges = 4
				rcfg.ForestTrees = 60
				rcfg.Walks = embed.WalkConfig{WalksPerNode: 3, WalkLength: 12, ReturnP: 1, InOutQ: 1}
				rcfg.SGNS = embed.SGNSConfig{Dim: 16, Window: 4, Negatives: 3, Epochs: 1}
				rcfg.EmbedDim = 16
				rcfg.LINESamplesX = 8
			}
			rres, err := experiments.RunRank(ctx, rcfg)
			if err != nil {
				return err
			}
			experiments.WriteFigure3(w, rres)
			experiments.WriteTable1(w, rres)
			experiments.WriteFigure4(w, rres)
			return nil
		}},
	}

	for _, name := range []string{"LOAD", "IMDB", "MAG"} {
		name := name
		stages = append(stages, experiments.Stage{
			Name: "label-" + name,
			Fn: func(w io.Writer) error {
				ds, err := findDataset(getDatasets, name)
				if err != nil {
					return err
				}
				step(w, fmt.Sprintf("E6, E7: label prediction on %s (Figure 5)", name))
				curves, err := experiments.TrainingSizeCurves(ctx, ds.Graph, lcfg)
				if err != nil {
					return err
				}
				experiments.WriteCurves(w, fmt.Sprintf("Figure 5 (%s) — Macro F1 vs training size", name), "train", curves)
				removal, err := experiments.LabelRemovalCurves(ctx, ds.Graph, lcfg)
				if err != nil {
					return err
				}
				experiments.WriteCurves(w, fmt.Sprintf("Figure 5 (%s) — Macro F1 vs removed labels", name), "removed", removal)
				return nil
			},
		})
	}

	stages = append(stages,
		experiments.Stage{Name: "interpret", Fn: func(w io.Writer) error {
			datasets, err := getDatasets()
			if err != nil {
				return err
			}
			step(w, "label-task interpretability: top subgraph features per entity type")
			for _, ds := range datasets {
				tops, err := experiments.TopLabelFeatures(ds.Graph, lcfg, 3)
				if err != nil {
					return err
				}
				fmt.Fprintf(w, "most characteristic subgraph features per entity type (%s):\n", ds.Name)
				names := ds.Graph.Alphabet().Names()
				for _, class := range names {
					for i, f := range tops[class] {
						if i == 0 {
							fmt.Fprintf(w, "  %-14s", class)
						} else {
							fmt.Fprintf(w, "  %-14s", "")
						}
						fmt.Fprintf(w, "w=%+.2f  %s\n", f.Weight, f.Encoding)
					}
				}
				fmt.Fprintln(w)
			}
			return nil
		}},
		experiments.Stage{Name: "dmax", Fn: func(w io.Writer) error {
			datasets, err := getDatasets()
			if err != nil {
				return err
			}
			step(w, "E4: dmax sensitivity (Table 2)")
			dmaxRows := map[string][]experiments.CurvePoint{}
			var order []string
			for _, ds := range datasets {
				order = append(order, ds.Name)
				dcfg := lcfg
				if ds.Name != "IMDB" {
					// The unlimited level does not finish on the dense
					// networks (the paper skips it there too).
					var capped []float64
					for _, l := range lcfg.DmaxLevels {
						if l < 1 {
							capped = append(capped, l)
						}
					}
					dcfg.DmaxLevels = capped
				}
				pts, err := experiments.DmaxSweep(ctx, ds.Graph, dcfg)
				if err != nil {
					return err
				}
				dmaxRows[ds.Name] = pts
			}
			experiments.WriteTable2(w, dmaxRows, order)
			return nil
		}},
		experiments.Stage{Name: "emax", Fn: func(w io.Writer) error {
			datasets, err := getDatasets()
			if err != nil {
				return err
			}
			step(w, "E9: §3.1 emax ablation — Macro F1 per subgraph edge budget")
			for _, ds := range datasets {
				pts, err := experiments.EmaxSweep(ctx, ds.Graph, lcfg)
				if err != nil {
					return err
				}
				fmt.Fprintf(w, "emax sensitivity (%s): Macro F1 per edge budget\n", ds.Name)
				for _, p := range pts {
					fmt.Fprintf(w, "  emax=%d: %.2f±%.2f\n", int(p.X), p.Mean, p.CI95)
				}
				fmt.Fprintln(w)
			}
			return nil
		}},
		experiments.Stage{Name: "runtime", Fn: func(w io.Writer) error {
			datasets, err := getDatasets()
			if err != nil {
				return err
			}
			step(w, "E5: runtime (Table 3)")
			var rows []*experiments.RuntimeRow
			for _, ds := range datasets {
				row, err := experiments.MeasureRuntime(ctx, ds.Name, ds.Graph, lcfg)
				if err != nil {
					return err
				}
				rows = append(rows, row)
			}
			experiments.WriteTable3(w, rows)
			return nil
		}},
		experiments.Stage{Name: "directed", Fn: func(w io.Writer) error {
			step(w, "E10: §5 conjecture — directed vs undirected features")
			dcfg := experiments.DefaultDirectedConfig()
			dcfg.Seed = o.seed
			if o.quick {
				dcfg.Citation.Papers = 400
				dcfg.PerRole = 40
				dcfg.Repeats = 5
			}
			res, err := experiments.RunDirected(dcfg)
			if err != nil {
				return err
			}
			fmt.Fprintln(w, "§5 extension — role prediction on a degree-matched directed citation network")
			fmt.Fprintf(w, "  directed (typed) subgraph features:  Macro F1 %.2f±%.2f\n", res.DirectedF1, res.DirectedCI)
			fmt.Fprintf(w, "  undirected subgraph features:        Macro F1 %.2f±%.2f\n", res.UndirectedF1, res.UndirectedCI)
			fmt.Fprintf(w, "  (%d roles, %d sampled papers, %d arcs)\n\n", res.Roles, res.SampleSize, res.NetworkEdges)
			return nil
		}},
		experiments.Stage{Name: "motif", Fn: func(w io.Writer) error {
			step(w, "E11: §2 motif contrast — global vs rooted census")
			samples := 10
			if o.quick {
				samples = 2
			}
			return writeMotif(w, o.seed, samples)
		}},
	)
	return stages
}

func findDataset(get func() ([]experiments.LabelDataset, error), name string) (experiments.LabelDataset, error) {
	datasets, err := get()
	if err != nil {
		return experiments.LabelDataset{}, err
	}
	for _, ds := range datasets {
		if ds.Name == name {
			return ds, nil
		}
	}
	return experiments.LabelDataset{}, fmt.Errorf("dataset %q not generated", name)
}

func step(w io.Writer, title string) {
	fmt.Fprintf(w, "================ %s ================\n\n", title)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "reproduce:", err)
	os.Exit(1)
}
