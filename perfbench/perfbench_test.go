package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"regexp"
	"sort"
	"testing"
	"time"
)

// benchmarkFile is the part of ../BENCHMARK.json the self-test checks.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkFileMatchesMetricTables: BENCHMARK.json names exactly the
// workloads and metrics the program emits, with the same units, within
// the limits the file format allows.
func TestBenchmarkFileMatchesMetricTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	var names []string
	for _, w := range bf.Workloads {
		if _, ok := workloads[w.Name]; !ok || len(w.Why) > 200 || w.Why == "" {
			t.Errorf("workload %q: unknown, or its why is empty or too long", w.Name)
		}
		names = append(names, w.Name)
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program runs %d", len(names), len(workloads))
	}

	seen := map[string]bool{}
	check := func(kind, name, unit, better string, want []metricDef, i int) {
		if !nameRE.MatchString(name) || !unitRE.MatchString(unit) || seen[name] {
			t.Errorf("%s metric %q (unit %q): bad name or unit, or used twice", kind, name, unit)
		}
		seen[name] = true
		if better != "lower" && better != "higher" {
			t.Errorf("%s metric %s: better = %q", kind, name, better)
		}
		if i >= len(want) || want[i].name != name || want[i].unit != unit {
			t.Errorf("%s metric %d is %s [%s], the program emits %v", kind, i, name, unit, want[min(i, len(want)-1)])
		}
	}
	for i, m := range bf.EndToEnd {
		check("end-to-end", m.Name, m.Unit, m.Better, endToEnd, i)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for i, m := range bf.PerLayer {
		check("per-layer", m.Name, m.Unit, m.Better, perLayer, i)
	}
	if len(bf.EndToEnd) != len(endToEnd) || len(bf.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json has %d end-to-end and %d per-layer metrics, the program %d and %d",
			len(bf.EndToEnd), len(bf.PerLayer), len(endToEnd), len(perLayer))
	}
	var setupBound, maxBound float64
	for _, m := range bf.EndToEnd {
		maxBound = max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %v is not the largest (%v)", setupBound, maxBound)
	}
}

// smoke runs one workload at smoke size in this process.
func smoke(t *testing.T, workload string, seed int64, trace bool, hook func(any)) *report {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	rep, err := execute(ctx, options{workload: workload, seed: seed, seconds: 1, trace: trace, workdir: t.TempDir(), smoke: true}, hook)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return rep
}

// corruptHook raises one count after the timed phase: in the replica
// responses the router reads, or in one census of the extract workload.
func corruptHook(x any) {
	switch v := x.(type) {
	case *fleet:
		fn := corruptOneCount
		v.transport.corrupt.Store(&fn)
	case []*extractNet:
		for _, c := range v[0].censuses {
			for key := range c.Counts {
				c.Counts[key]++
				return
			}
		}
	}
}

// digestOf is the run's record of what it sent (serving workloads) or
// computed (extract), from its metadata.
func digestOf(r *report) any {
	if d, ok := r.meta["requests_digest"]; ok {
		return d
	}
	return r.meta["census_digest"]
}

// TestSmokeWorkloads runs every workload at smoke size three times with
// one seed: untraced, traced, and with one count corrupted after the
// timed phase. The untraced run emits every end-to-end metric, nonzero,
// with its unit; the traced run emits every per-layer metric; the
// corrupted run fails its correctness gate; and all three send the same
// requests and batches (or compute the same censuses).
func TestSmokeWorkloads(t *testing.T) {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			plain := smoke(t, name, 3, false, nil)
			if !plain.correct {
				t.Fatalf("gate failed on a clean run: %v", plain.gateErr)
			}
			if plain.attempted < 1 || plain.failed != 0 {
				t.Errorf("attempted %d, failed %d", plain.attempted, plain.failed)
			}
			var out bytes.Buffer
			if err := emit(&out, options{workload: name, seed: 3}, plain); err != nil {
				t.Fatal(err)
			}
			lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
			var res struct {
				Correct   bool `json:"correct"`
				Attempted int  `json:"attempted"`
				Failed    int  `json:"failed"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			dec := json.NewDecoder(bytes.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&res); err != nil {
				t.Fatalf("result line: %v", err)
			}
			if len(res.Metrics) != len(endToEnd) {
				t.Errorf("result has %d metrics, want %d", len(res.Metrics), len(endToEnd))
			}
			for _, m := range endToEnd {
				got, ok := res.Metrics[m.name]
				if !ok || got.Value == nil || *got.Value <= 0 || got.Unit != m.unit {
					t.Errorf("end-to-end %s: %+v, want a positive value in %s", m.name, got, m.unit)
				}
			}

			traced := smoke(t, name, 3, true, nil)
			if !traced.correct {
				t.Fatalf("gate failed on the traced run: %v", traced.gateErr)
			}
			if err := overheadFrom(lines[len(lines)-1], traced); err != nil {
				t.Fatal(err)
			}
			for _, m := range perLayer {
				if _, ok := traced.layer[m.name]; !ok {
					t.Errorf("per-layer %s missing", m.name)
				}
			}
			out.Reset()
			if err := emit(&out, options{workload: name, seed: 3, trace: true}, traced); err != nil {
				t.Errorf("traced emit: %v", err)
			}

			bad := smoke(t, name, 3, false, corruptHook)
			if bad.correct || !errors.Is(bad.gateErr, errGate) {
				t.Errorf("gate passed with a corrupted count (correct %v, err %v)", bad.correct, bad.gateErr)
			}

			if a, b, c := digestOf(plain), digestOf(traced), digestOf(bad); a == nil || a != b || a != c {
				t.Errorf("same seed, different sequences: %v %v %v", a, b, c)
			}
		})
	}
}

// TestSetupChild: the set-up child a run starts (--setups n) sets the
// workload up n times, each from the first load to ready, and stops
// before any load or gate.
func TestSetupChild(t *testing.T) {
	for name := range workloads {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		rep, err := execute(ctx, options{workload: name, seed: 3, seconds: 1, workdir: t.TempDir(), setups: 2, smoke: true}, nil)
		cancel()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(rep.setups) != 2 || rep.attempted != 0 {
			t.Errorf("%s: %d set-ups, %d operations; want 2 set-ups and no load", name, len(rep.setups), rep.attempted)
		}
		for _, bt := range rep.setups {
			if bt.Total <= 0 || bt.GraphLoad <= 0 || bt.GraphLoad > bt.Total {
				t.Errorf("%s: set-up times %+v", name, bt)
			}
		}
	}
}

// TestSeedChangesInputs: another seed draws another request stream.
func TestSeedChangesInputs(t *testing.T) {
	a := newReadStream(1, 1000, 1.1)
	b := newReadStream(2, 1000, 1.1)
	same := 0
	for i := 0; i < 50; i++ {
		if a.get(i)[0] == b.get(i)[0] {
			same++
		}
	}
	if same > 25 {
		t.Errorf("seeds 1 and 2 agree on %d of 50 first roots", same)
	}
}
