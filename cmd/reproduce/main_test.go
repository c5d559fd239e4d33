package main

import (
	"context"
	"strings"
	"testing"

	"hsgf/internal/experiments"
)

func stageNames(stages []experiments.Stage) []string {
	names := make([]string, len(stages))
	for i, st := range stages {
		names[i] = st.Name
	}
	return names
}

func TestStageSelection(t *testing.T) {
	all := buildStages(context.Background(), options{scale: 0.05, seed: 1})
	seen := map[string]bool{}
	for _, name := range stageNames(all) {
		if seen[name] {
			t.Fatalf("stage name %q is not unique", name)
		}
		seen[name] = true
	}

	kept, err := selectStages(all, "")
	if err != nil || len(kept) != len(all) {
		t.Fatalf("no -only kept %d of %d stages, err %v", len(kept), len(all), err)
	}

	kept, err = selectStages(all, "motif, audit,emax")
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(stageNames(kept), ","); got != "audit,emax,motif" {
		t.Fatalf("-only motif,audit,emax selected %s, want pipeline order audit,emax,motif", got)
	}

	_, err = selectStages(all, "rank,figure3")
	if err == nil || !strings.Contains(err.Error(), `"figure3"`) || !strings.Contains(err.Error(), "label-LOAD") {
		t.Fatalf("unknown stage: err = %v, want an error naming it and listing the stages", err)
	}
}

func TestQuickAndFullExclusive(t *testing.T) {
	if err := (options{quick: true, full: true}).validate(); err == nil {
		t.Fatal("-quick with -full must be refused")
	}
	for _, o := range []options{{}, {quick: true}, {full: true}} {
		if err := o.validate(); err != nil {
			t.Fatalf("%+v: %v", o, err)
		}
	}
}
