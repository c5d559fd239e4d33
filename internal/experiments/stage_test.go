package experiments

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func noSleepRunner() *StageRunner {
	return &StageRunner{MaxAttempts: 3, Backoff: time.Nanosecond, Sleep: func(time.Duration) {}}
}

func TestStageRunnerRetriesThenRecovers(t *testing.T) {
	r := noSleepRunner()
	calls := 0
	res := r.Run(context.Background(), "flaky", func() error {
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if res.Status != StageRecovered || res.Attempts != 3 {
		t.Fatalf("res = %+v, want recovered on attempt 3", res)
	}
	if calls != 3 {
		t.Fatalf("fn called %d times, want 3", calls)
	}
}

func TestStageRunnerExponentialBackoff(t *testing.T) {
	var waits []time.Duration
	r := &StageRunner{
		MaxAttempts: 4,
		Backoff:     10 * time.Millisecond,
		Sleep:       func(d time.Duration) { waits = append(waits, d) },
	}
	r.Run(context.Background(), "failing", func() error { return errors.New("always") })
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond}
	if len(waits) != len(want) {
		t.Fatalf("slept %v, want %v", waits, want)
	}
	for i := range want {
		if waits[i] != want[i] {
			t.Fatalf("slept %v, want %v", waits, want)
		}
	}
}

func TestStageRunnerSkipsAfterExhaustion(t *testing.T) {
	r := noSleepRunner()
	res := r.Run(context.Background(), "doomed", func() error { return errors.New("permanent damage") })
	if res.Status != StageSkipped || res.Attempts != 3 {
		t.Fatalf("res = %+v, want skipped after 3 attempts", res)
	}
	if !strings.Contains(res.Err, "permanent damage") {
		t.Fatalf("res.Err = %q, want the last error", res.Err)
	}
	if !r.Skipped() {
		t.Fatal("runner must report a skipped stage")
	}
}

func TestStageRunnerIsolatesPanics(t *testing.T) {
	r := noSleepRunner()
	res := r.Run(context.Background(), "panicky", func() error { panic("boom at depth 3") })
	if res.Status != StageSkipped {
		t.Fatalf("res = %+v, want skipped", res)
	}
	if !strings.Contains(res.Err, "boom at depth 3") {
		t.Fatalf("res.Err = %q, want the panic value", res.Err)
	}
}

func TestRunPipelineMarksGapAndSummarises(t *testing.T) {
	var report bytes.Buffer
	stages := []Stage{
		{Name: "good", Fn: func(w io.Writer) error { fmt.Fprintln(w, "good section"); return nil }},
		{Name: "bad", Fn: func(w io.Writer) error {
			fmt.Fprintln(w, "partial output that must not leak")
			return errors.New("exploded")
		}},
		{Name: "after", Fn: func(w io.Writer) error { fmt.Fprintln(w, "after section"); return nil }},
	}
	ok := RunPipeline(context.Background(), &report, stages, noSleepRunner(), nil)
	out := report.String()
	if ok {
		t.Fatal("pipeline with a skipped stage must report failure")
	}
	if !strings.Contains(out, "good section") || !strings.Contains(out, "after section") {
		t.Fatalf("healthy sections missing from report:\n%s", out)
	}
	if strings.Contains(out, "must not leak") {
		t.Fatalf("failed stage's partial output leaked into the report:\n%s", out)
	}
	if !strings.Contains(out, `!!! stage "bad" skipped`) {
		t.Fatalf("report does not mark the gap:\n%s", out)
	}
	if !strings.Contains(out, "stage summary") || !strings.Contains(out, "SKIPPED") {
		t.Fatalf("report missing the stage summary:\n%s", out)
	}
}

func TestRunPipelineRetriedStageRendersOnce(t *testing.T) {
	var report bytes.Buffer
	attempt := 0
	stages := []Stage{{Name: "flaky", Fn: func(w io.Writer) error {
		attempt++
		fmt.Fprintf(w, "rendered on attempt %d\n", attempt)
		if attempt < 2 {
			return errors.New("first attempt dies after writing")
		}
		return nil
	}}}
	RunPipeline(context.Background(), &report, stages, noSleepRunner(), nil)
	if strings.Contains(report.String(), "attempt 1") {
		t.Fatalf("stale first-attempt output leaked:\n%s", report.String())
	}
	if !strings.Contains(report.String(), "rendered on attempt 2") {
		t.Fatalf("successful attempt's output missing:\n%s", report.String())
	}
}

// TestRunPipelineResume simulates the acceptance scenario: a run killed
// after its first stage completes, then re-run with -resume — the
// completed stage is spliced from disk and not recomputed, while the
// remaining stage runs.
func TestRunPipelineResume(t *testing.T) {
	dir := t.TempDir()

	// First run: stage "rank" completes, then the process "dies" before
	// stage "label" (modelled by a pipeline holding only the first
	// stage).
	rankRuns := 0
	first := []Stage{{Name: "rank", Fn: func(w io.Writer) error {
		rankRuns++
		fmt.Fprintln(w, "rank tables")
		return nil
	}}}
	var out1 bytes.Buffer
	if ok := RunPipeline(context.Background(), &out1, first, noSleepRunner(), &SectionStore{Dir: dir}); !ok {
		t.Fatal("first run failed")
	}

	// Second run resumes with the full pipeline.
	labelRuns := 0
	full := []Stage{
		{Name: "rank", Fn: func(w io.Writer) error {
			rankRuns++
			fmt.Fprintln(w, "rank tables")
			return nil
		}},
		{Name: "label", Fn: func(w io.Writer) error {
			labelRuns++
			fmt.Fprintln(w, "label curves")
			return nil
		}},
	}
	var out2 bytes.Buffer
	runner := noSleepRunner()
	if ok := RunPipeline(context.Background(), &out2, full, runner, &SectionStore{Dir: dir, Resume: true}); !ok {
		t.Fatal("resumed run failed")
	}
	if rankRuns != 1 {
		t.Fatalf("rank stage ran %d times, want 1 (resumed from checkpoint)", rankRuns)
	}
	if labelRuns != 1 {
		t.Fatalf("label stage ran %d times, want 1", labelRuns)
	}
	if !strings.Contains(out2.String(), "rank tables") || !strings.Contains(out2.String(), "label curves") {
		t.Fatalf("resumed report incomplete:\n%s", out2.String())
	}
	if !strings.Contains(out2.String(), "resumed from checkpoint") {
		t.Fatalf("summary does not mark the resumed stage:\n%s", out2.String())
	}
}

func TestSectionStoreWithoutResumeIgnoresExisting(t *testing.T) {
	dir := t.TempDir()
	s := &SectionStore{Dir: dir}
	if err := s.Save("stage", "old content"); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Load("stage"); ok {
		t.Fatal("store without Resume must not load sections")
	}
	rs := &SectionStore{Dir: dir, Resume: true}
	got, ok := rs.Load("stage")
	if !ok || got != "old content" {
		t.Fatalf("Load = %q, %v, want saved content", got, ok)
	}
}

func TestSectionStoreSanitisesNames(t *testing.T) {
	s := &SectionStore{Dir: t.TempDir()}
	if err := s.Save("label curves (LOAD)/x", "content"); err != nil {
		t.Fatal(err)
	}
	rs := &SectionStore{Dir: s.Dir, Resume: true}
	if _, ok := rs.Load("label curves (LOAD)/x"); !ok {
		t.Fatal("sanitised name did not round-trip")
	}
	// The file must live directly under Dir, not in a subdirectory.
	matches, _ := filepath.Glob(filepath.Join(s.Dir, "*.section"))
	if len(matches) != 1 {
		t.Fatalf("found %d section files in %s, want 1", len(matches), s.Dir)
	}
}

// TestRunPipelineStopsOnCancel: a run interrupted inside its first stage
// neither retries that stage nor starts any later one.
func TestRunPipelineStopsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	firstCalls, laterCalls := 0, 0
	stages := []Stage{
		{Name: "first", Fn: func(w io.Writer) error {
			firstCalls++
			cancel() // the signal arrives mid-stage
			return ctx.Err()
		}},
		{Name: "second", Fn: func(w io.Writer) error { laterCalls++; return nil }},
		{Name: "third", Fn: func(w io.Writer) error { laterCalls++; return nil }},
	}
	var report bytes.Buffer
	runner := noSleepRunner()
	if RunPipeline(ctx, &report, stages, runner, nil) {
		t.Fatal("interrupted pipeline must report failure")
	}
	if firstCalls != 1 || runner.Results[0].Attempts != 1 {
		t.Fatalf("first stage ran %d times (%d attempts), want 1: a cancelled attempt is not retried",
			firstCalls, runner.Results[0].Attempts)
	}
	if laterCalls != 0 {
		t.Fatalf("%d later stages started after cancellation", laterCalls)
	}
	for _, res := range runner.Results {
		if res.Status != StageSkipped {
			t.Fatalf("stage %q: %v, want skipped", res.Name, res.Status)
		}
	}
	if !strings.Contains(report.String(), `!!! stage "third" skipped: interrupted before start`) {
		t.Fatalf("report does not mark the interrupted stages:\n%s", report.String())
	}
}

// TestSectionStoreRecordsOptions: a resume splices sections only under
// the options that produced them.
func TestSectionStoreRecordsOptions(t *testing.T) {
	dir := t.TempDir()
	opts := func(seed string) []string { return []string{"seed=" + seed, "scale=0.05"} }
	fresh := &SectionStore{Dir: dir, Options: opts("1")}
	if err := fresh.Open(); err != nil {
		t.Fatal(err)
	}
	if err := fresh.Save("rank", "seed-1 rank tables"); err != nil {
		t.Fatal(err)
	}

	same := &SectionStore{Dir: dir, Resume: true, Options: opts("1")}
	if err := same.Open(); err != nil {
		t.Fatalf("resume with matching options: %v", err)
	}
	if got, ok := same.Load("rank"); !ok || got != "seed-1 rank tables" {
		t.Fatalf("Load = %q, %v, want the saved section", got, ok)
	}

	other := &SectionStore{Dir: dir, Resume: true, Options: opts("2")}
	err := other.Open()
	if err == nil || !strings.Contains(err.Error(), "seed=1") || !strings.Contains(err.Error(), "seed=2") {
		t.Fatalf("resume with another seed: err = %v, want a refusal naming seed", err)
	}

	// A fresh run under new options drops the old run's sections.
	if err := (&SectionStore{Dir: dir, Options: opts("2")}).Open(); err != nil {
		t.Fatal(err)
	}
	if _, ok := (&SectionStore{Dir: dir, Resume: true}).Load("rank"); ok {
		t.Fatal("a fresh run kept a section computed under other options")
	}

	if err := (&SectionStore{Dir: t.TempDir(), Resume: true, Options: opts("1")}).Open(); err == nil {
		t.Fatal("resume from a directory without recorded options must be refused")
	}
}
