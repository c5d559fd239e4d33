package experiments

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"runtime/debug"
	"strings"
	"time"

	"hsgf/internal/retry"
	"hsgf/internal/store"
)

// StageStatus classifies how one reproduction stage ended.
type StageStatus int

const (
	// StageOK: the stage succeeded on its first attempt.
	StageOK StageStatus = iota
	// StageRecovered: the stage failed at least once but a retry
	// succeeded; the report section is complete.
	StageRecovered
	// StageSkipped: every attempt failed; the report carries a marked
	// gap instead of the stage's section.
	StageSkipped
	// StageResumed: the stage's section was spliced from a checkpoint
	// of an earlier run instead of being recomputed.
	StageResumed
)

func (s StageStatus) String() string {
	switch s {
	case StageOK:
		return "ok"
	case StageRecovered:
		return "recovered"
	case StageSkipped:
		return "SKIPPED"
	case StageResumed:
		return "resumed"
	default:
		return fmt.Sprintf("StageStatus(%d)", int(s))
	}
}

// StageResult records the outcome of one stage for the run summary.
type StageResult struct {
	Name     string
	Status   StageStatus
	Attempts int
	Err      string // last error message when Status == StageSkipped
	Elapsed  time.Duration
}

// StageRunner executes reproduction stages with panic recovery and
// retry-with-backoff, and accumulates per-stage outcomes so the final
// report can mark every gap explicitly. A failed stage never aborts the
// run: after MaxAttempts it is recorded as skipped and the pipeline
// moves on.
type StageRunner struct {
	// MaxAttempts per stage; <= 0 selects 2 (one retry).
	MaxAttempts int
	// Backoff before the first retry, doubling per further retry;
	// <= 0 selects one second.
	Backoff time.Duration
	// Sleep is the backoff clock, replaceable in tests; nil selects
	// time.Sleep.
	Sleep func(time.Duration)
	// Log receives progress and retry warnings; nil discards them.
	Log io.Writer

	Results []StageResult
}

func (r *StageRunner) attempts() int {
	if r.MaxAttempts <= 0 {
		return 2
	}
	return r.MaxAttempts
}

func (r *StageRunner) logf(format string, args ...any) {
	if r.Log != nil {
		fmt.Fprintf(r.Log, format, args...)
	}
}

// Run executes fn under panic isolation, retrying with exponential
// backoff through the shared retry policy (internal/retry). The
// schedule is deliberately jitter-free: a reproduction is one process
// retrying local work, so reproducible timing beats fleet
// decorrelation. Once ctx is cancelled no further attempt starts: an
// attempt that fails under a cancelled ctx is not retried. It returns
// the recorded result; callers decide from res.Status whether the
// stage's output is usable.
func (r *StageRunner) Run(ctx context.Context, name string, fn func() error) StageResult {
	backoff := r.Backoff
	if backoff <= 0 {
		backoff = time.Second
	}
	policy := retry.Policy{
		MaxAttempts: r.attempts(),
		BaseDelay:   backoff,
		// Stages are minutes-long experiments; never let the default
		// delay cap flatten the deterministic doubling schedule.
		MaxDelay: 24 * time.Hour,
		Jitter:   retry.JitterNone,
	}
	if r.Sleep != nil {
		sleep := r.Sleep
		policy.Sleep = func(_ context.Context, d time.Duration) error { sleep(d); return nil }
	}

	res := StageResult{Name: name}
	start := time.Now()
	var attemptErr error
	err := policy.Do(ctx, func(_ context.Context, attempt int) error {
		res.Attempts = attempt
		attemptErr = runIsolated(fn)
		if attemptErr != nil {
			r.logf("stage %q attempt %d/%d failed: %v\n", name, attempt, r.attempts(), attemptErr)
		}
		return attemptErr
	})
	if err == nil {
		if res.Attempts == 1 {
			res.Status = StageOK
		} else {
			res.Status = StageRecovered
		}
	} else {
		res.Status = StageSkipped
		res.Err = err.Error()
		if ctx.Err() != nil && attemptErr != nil {
			// Do joins the cancellation with the attempt's own error.
			res.Err = "interrupted: " + attemptErr.Error()
		}
	}
	res.Elapsed = time.Since(start)
	r.Results = append(r.Results, res)
	return res
}

// RecordResumed notes a stage whose section was restored from an
// earlier run's checkpoint.
func (r *StageRunner) RecordResumed(name string) {
	r.Results = append(r.Results, StageResult{Name: name, Status: StageResumed})
}

// Skipped reports whether any stage exhausted its attempts.
func (r *StageRunner) Skipped() bool {
	for _, res := range r.Results {
		if res.Status == StageSkipped {
			return true
		}
	}
	return false
}

// WriteSummary renders the per-stage outcome table appended to the
// report, marking skipped and degraded stages explicitly.
func (r *StageRunner) WriteSummary(w io.Writer) {
	fmt.Fprintln(w, "stage summary")
	for _, res := range r.Results {
		switch res.Status {
		case StageSkipped:
			if res.Attempts == 0 { // never started
				fmt.Fprintf(w, "  %-24s %s: %s\n", res.Name, res.Status, res.Err)
				break
			}
			fmt.Fprintf(w, "  %-24s %s after %d attempts: %s\n", res.Name, res.Status, res.Attempts, res.Err)
		case StageRecovered:
			fmt.Fprintf(w, "  %-24s %s (attempt %d, %v)\n", res.Name, res.Status, res.Attempts, res.Elapsed.Round(time.Millisecond))
		case StageResumed:
			fmt.Fprintf(w, "  %-24s %s from checkpoint\n", res.Name, res.Status)
		default:
			fmt.Fprintf(w, "  %-24s %s (%v)\n", res.Name, res.Status, res.Elapsed.Round(time.Millisecond))
		}
	}
}

// runIsolated invokes fn, converting a panic into an error so one
// faulting stage cannot kill the whole reproduction.
func runIsolated(fn func() error) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("stage panicked: %v\n%s", rec, debug.Stack())
		}
	}()
	return fn()
}

// sectionFile restricts stage names to a safe file stem.
var sectionFile = regexp.MustCompile(`[^a-zA-Z0-9._-]+`)

// SectionStore persists rendered report sections under a directory, one
// text file per stage, so a resumed reproduction splices completed
// stages instead of recomputing them. A nil store disables persistence.
type SectionStore struct {
	// Dir holds one "<stage>.section" file per completed stage; it is
	// created on first save.
	Dir string
	// Resume enables Load: without it an existing directory is only
	// overwritten, never read (a fresh -checkpoint run).
	Resume bool
	// Options are the run options that shape section content, as
	// "name=value" in a fixed order. Open records them in Dir and
	// refuses a resume whose options differ, so sections computed under
	// one set of options are never spliced into a report that claims
	// another.
	Options []string
}

// optionsFile names the record of a checkpoint directory's options.
const optionsFile = "options"

// Open prepares Dir before any stage runs. A fresh run deletes the
// sections earlier runs left behind and records Options. A resume
// requires recorded options equal to Options; it fails naming the first
// option that differs, or when Dir records none.
func (s *SectionStore) Open() error {
	path := filepath.Join(s.Dir, optionsFile)
	if !s.Resume {
		if err := os.MkdirAll(s.Dir, 0o755); err != nil {
			return err
		}
		stale, err := filepath.Glob(filepath.Join(s.Dir, "*.section"))
		if err != nil {
			return err
		}
		for _, f := range stale {
			if err := os.Remove(f); err != nil {
				return err
			}
		}
		return store.AtomicWriteBytes(path, []byte(strings.Join(s.Options, "\n")))
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("checkpoint %s records no run options, refusing to resume: %w", s.Dir, err)
	}
	recorded := strings.Split(string(b), "\n")
	for i, opt := range s.Options {
		if i >= len(recorded) || recorded[i] != opt {
			return fmt.Errorf("checkpoint %s was not written with %s (recorded: %s); refusing to resume",
				s.Dir, opt, strings.Join(recorded, " "))
		}
	}
	if len(recorded) != len(s.Options) {
		return fmt.Errorf("checkpoint %s records options %s, this run has %s; refusing to resume",
			s.Dir, strings.Join(recorded, " "), strings.Join(s.Options, " "))
	}
	return nil
}

func (s *SectionStore) path(name string) string {
	return filepath.Join(s.Dir, sectionFile.ReplaceAllString(name, "_")+".section")
}

// Load returns the saved section for a stage, if resuming and present.
func (s *SectionStore) Load(name string) (string, bool) {
	if s == nil || !s.Resume {
		return "", false
	}
	b, err := os.ReadFile(s.path(name))
	if err != nil {
		return "", false
	}
	return string(b), true
}

// Save atomically persists a stage's rendered section: temp file,
// fsync, rename, parent-directory fsync — a crash mid-save leaves
// either the old section or the new one, never a torn file.
func (s *SectionStore) Save(name, content string) error {
	if s == nil {
		return nil
	}
	if err := os.MkdirAll(s.Dir, 0o755); err != nil {
		return err
	}
	return store.AtomicWriteBytes(s.path(name), []byte(content))
}

// Stage is one named unit of the reproduction pipeline. Fn renders the
// stage's full report section to w; it must be self-contained so a
// resumed run can splice the saved text verbatim.
type Stage struct {
	Name string
	Fn   func(w io.Writer) error
}

// RunPipeline drives the stages in order through the runner and the
// optional section store: resumed stages are spliced from disk, fresh
// stages run with retry/backoff and panic isolation, exhausted stages
// leave an explicit gap marker in the report. Once ctx is cancelled no
// further stage starts; each is marked skipped as interrupted. The
// stage summary is appended at the end. Returns true when every stage
// produced output (none skipped).
func RunPipeline(ctx context.Context, w io.Writer, stages []Stage, runner *StageRunner, store *SectionStore) bool {
	for _, st := range stages {
		if text, ok := store.Load(st.Name); ok {
			runner.RecordResumed(st.Name)
			runner.logf("stage %q resumed from checkpoint\n", st.Name)
			io.WriteString(w, text)
			continue
		}
		if ctx.Err() != nil {
			runner.Results = append(runner.Results, StageResult{Name: st.Name, Status: StageSkipped, Err: "interrupted before start"})
			fmt.Fprintf(w, "!!! stage %q skipped: interrupted before start\n\n", st.Name)
			continue
		}
		var buf bytes.Buffer
		fn := st.Fn
		res := runner.Run(ctx, st.Name, func() error {
			buf.Reset() // a retried stage re-renders from scratch
			return fn(&buf)
		})
		if res.Status == StageSkipped {
			fmt.Fprintf(w, "!!! stage %q skipped after %d attempts: %s\n\n", st.Name, res.Attempts, res.Err)
			continue
		}
		io.WriteString(w, buf.String())
		if err := store.Save(st.Name, buf.String()); err != nil {
			runner.logf("stage %q: checkpoint save failed: %v\n", st.Name, err)
		}
	}
	runner.WriteSummary(w)
	return !runner.Skipped()
}
