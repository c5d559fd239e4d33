// Command perfbench is the repository's benchmark: three workloads that
// each boot the system from generated inputs, drive it for a fixed time,
// check its answers, and print end-to-end metrics (untraced) or
// per-layer metrics (traced). README.md gives the reasons for each
// workload and which layer metric should move which end-to-end metric.
//
// Usage, from the root of a checkout:
//
//	bash perfbench/run.sh --workload serve-zipf --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the line before it is the
// run's metadata. The exit code is 0 only when every correctness gate
// passed.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"syscall"
	"time"

	"hsgf/internal/sysres"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workdir  string
	// setups > 0 makes this process the set-up child of a run: it sets
	// the workload up that many times, prints the times and stops.
	setups int
	// smoke shrinks every input to seconds-scale sizes and sets up once,
	// in-process; only the self-test sets it.
	smoke bool
}

// report is one run's outcome.
type report struct {
	correct   bool
	gateErr   error
	attempted int
	failed    int
	e2e       map[string]float64
	layer     map[string]float64
	meta      map[string]any
	setups    []bootTimes // set-up child only
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layer: map[string]float64{}, meta: map[string]any{}}
}

// fail marks the run incorrect, keeping the first cause.
func (r *report) fail(err error) {
	if r.gateErr == nil {
		r.gateErr = err
	}
	r.correct = false
}

// rc is what a workload gets from the harness.
type rc struct {
	opt  options
	dir  string  // scratch directory of this run, removed at the end
	tr   *tracer // nil in the untraced run
	rep  *report
	hook func(any) // self-test seam: sees the fleet or extract state after the timed phase
}

type workload struct {
	why string
	run func(ctx context.Context, c *rc) error
}

var workloads = map[string]workload{
	"serve-zipf":   {whyServeZipf, runServeZipf},
	"ingest-mixed": {whyIngestMixed, runIngestMixed},
	"extract":      {whyExtract, runExtract},
}

func main() {
	var opt options
	var trace int
	flag.StringVar(&opt.workload, "workload", "", "serve-zipf, ingest-mixed or extract")
	flag.Int64Var(&opt.seed, "seed", 1, "workload seed: every input is generated from it")
	flag.Float64Var(&opt.seconds, "seconds", 10, "length of the timed phase")
	flag.IntVar(&trace, "trace", 0, "1 records spans and reports per-layer metrics")
	flag.StringVar(&opt.workdir, "workdir", filepath.Join(".bench_build", "runs"), "directory for run scratch files and traces")
	flag.IntVar(&opt.setups, "setups", 0, "set up this many times, print the set-up times and stop (a run starts this child itself)")
	flag.Parse()
	opt.trace = trace == 1
	if _, ok := workloads[opt.workload]; !ok || (trace != 0 && trace != 1) || opt.seconds <= 0 || opt.setups < 0 {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload serve-zipf|ingest-mixed|extract, --trace 0|1 and --seconds > 0")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// A run that cannot finish in time fails rather than hangs.
	ctx, cancel := context.WithTimeout(ctx, 170*time.Second)
	defer cancel()

	rep, err := execute(ctx, opt, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if opt.setups > 0 {
		line, err := json.Marshal(map[string]any{"setups": rep.setups})
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		fmt.Printf("%s\n", line)
		return
	}
	if opt.trace {
		if err := addOverhead(ctx, opt, rep); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: untraced comparison run:", err)
			os.Exit(1)
		}
	}
	if err := emit(os.Stdout, opt, rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !rep.correct {
		fmt.Fprintln(os.Stderr, "perfbench: correctness gate failed:", rep.gateErr)
		os.Exit(1)
	}
}

// execute runs one workload in this process.
func execute(ctx context.Context, opt options, hook func(any)) (*report, error) {
	dir := filepath.Join(opt.workdir, fmt.Sprintf("%s-seed%d-pid%d", opt.workload, opt.seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	c := &rc{opt: opt, dir: dir, rep: newReport(), hook: hook}
	c.rep.correct = true
	if opt.trace {
		c.tr = newTracer()
	}
	err := workloads[opt.workload].run(ctx, c)
	if opt.setups > 0 && errors.Is(err, errSetupsDone) {
		return c.rep, nil
	}
	if err != nil {
		return nil, err
	}
	c.rep.e2e["max_rss_mb"] = float64(sysres.MaxRSSBytes()) / (1 << 20)
	if c.tr != nil {
		path := filepath.Join(opt.workdir, "traces", fmt.Sprintf("%s-seed%d.spans.jsonl", opt.workload, opt.seed))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return nil, err
		}
		if err := c.tr.write(path); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		c.rep.meta["spans_file"] = path
		c.rep.meta["spans"] = len(c.tr.snapshot())
	}
	return c.rep, nil
}

// addOverhead runs the same workload and seed untraced, in a child
// process so its peak RSS is its own, and reports traced minus untraced
// for every end-to-end metric.
func addOverhead(ctx context.Context, opt options, rep *report) error {
	out, err := runChild(ctx, opt, "--trace", "0")
	if err != nil {
		return err
	}
	return overheadFrom(out, rep)
}

// runChild runs this program on opt's workload, seed, length and work
// directory with the extra arguments, and returns its standard output.
func runChild(ctx context.Context, opt options, extra ...string) ([]byte, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := append([]string{
		"--workload", opt.workload, "--seed", strconv.FormatInt(opt.seed, 10),
		"--seconds", strconv.FormatFloat(opt.seconds, 'g', -1, 64), "--workdir", opt.workdir,
	}, extra...)
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Stderr = os.Stderr
	return cmd.Output()
}

// lastLine returns the last non-empty line of out.
func lastLine(out []byte) []byte {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	return last
}

// overheadFrom reads the untraced run's result, the last non-empty line
// of out, and stores traced minus untraced for every end-to-end metric.
func overheadFrom(out []byte, rep *report) error {
	var res struct {
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(lastLine(out), &res); err != nil {
		return fmt.Errorf("untraced result: %w", err)
	}
	for _, m := range endToEnd {
		u, ok := res.Metrics[m.name]
		if !ok {
			return fmt.Errorf("untraced result lacks %s", m.name)
		}
		rep.layer["trace.overhead."+m.name] = rep.e2e[m.name] - u.Value
	}
	return nil
}

// errSetupsDone ends a set-up child's run once its set-ups are timed.
var errSetupsDone = errors.New("set-ups done")

// setUp sets the workload up n times and returns the set-up this run
// keeps, with the per-step medians over all n. Store loads map
// snapshots for the life of the process, so this process sets up once
// and the other n-1 set-ups run in a child process (the same workload
// and seed, with --setups), which keeps max_rss_mb to one system. In
// that child, setUp does its set-ups, releases each and ends the run
// with errSetupsDone. one does set-up i, from fresh inputs where the
// workload needs them; release undoes a set-up.
func setUp[T any](ctx context.Context, c *rc, n int, one func(i int) (T, bootTimes, error), release func(T)) (T, bootTimes, error) {
	var zero T
	if c.opt.setups > 0 {
		for i := 0; i < c.opt.setups; i++ {
			x, bt, err := one(i)
			if err != nil {
				return zero, bootTimes{}, err
			}
			release(x)
			c.rep.setups = append(c.rep.setups, bt)
		}
		return zero, bootTimes{}, errSetupsDone
	}
	var times []bootTimes
	if n > 1 {
		out, err := runChild(ctx, c.opt, "--trace", "0", "--setups", strconv.Itoa(n-1))
		if err != nil {
			return zero, bootTimes{}, fmt.Errorf("set-up child: %w", err)
		}
		var res struct {
			Setups []bootTimes `json:"setups"`
		}
		if err := json.Unmarshal(lastLine(out), &res); err != nil || len(res.Setups) != n-1 {
			return zero, bootTimes{}, fmt.Errorf("set-up child: want %d set-up times, got %d (%v)", n-1, len(res.Setups), err)
		}
		times = res.Setups
	}
	x, bt, err := one(0)
	if err != nil {
		return zero, bootTimes{}, err
	}
	return x, medianTimes(append(times, bt)), nil
}

// emit prints the metadata line, then the result line.
func emit(w io.Writer, opt options, rep *report) error {
	meta := rep.meta
	meta["workload"] = opt.workload
	meta["why"] = workloads[opt.workload].why
	meta["seed"] = opt.seed
	meta["seconds"] = opt.seconds
	meta["trace"] = opt.trace
	meta["nproc"] = runtime.NumCPU()
	meta["gomaxprocs"] = runtime.GOMAXPROCS(0)
	meta["go_version"] = runtime.Version()
	meta["git_revision"] = gitRevision()
	if rep.gateErr != nil {
		meta["gate_error"] = rep.gateErr.Error()
	}
	line, err := json.Marshal(map[string]any{"meta": meta})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", line)

	defs, src := endToEnd, rep.e2e
	if opt.trace {
		defs, src = perLayer, rep.layer
	}
	metrics := make(map[string]any, len(defs))
	for _, d := range defs {
		v, ok := src[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	line, err = json.Marshal(map[string]any{
		"correct": rep.correct, "attempted": rep.attempted, "failed": rep.failed, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// gitRevision is the VCS revision Go stamped into the binary, when it
// was built inside a git work tree.
func gitRevision() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "+modified"
			}
			return rev
		}
	}
	return "unknown (not built in a git work tree)"
}

// errGate wraps every correctness-gate mismatch.
var errGate = errors.New("correctness gate")

func gatef(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errGate, fmt.Sprintf(format, args...))
}
