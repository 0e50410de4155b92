package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

type benchFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestDefinitionsMatchBenchmarkFile holds the metric lists of this program
// and of BENCHMARK.json equal, name for name and unit for unit.
func TestDefinitionsMatchBenchmarkFile(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("workload %d %q is not implemented", i, w.Name)
		}
	}
	check := func(kind string, defs []metricDef, got []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) {
		if len(defs) != len(got) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s metric %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", endToEnd, bf.EndToEnd)
	check("per_layer", perLayer(), bf.PerLayer)
}

// TestTinyWorkloads runs every workload at smoke size, untraced and traced,
// and checks that each reports every metric it promises, with a unit and a
// valid name, and passes its own output checks.
func TestTinyWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{seed: defaultSeed, seconds: 0.5, tiny: true}
			want := endToEnd
			if traced {
				cfg.rec = newRecorder()
				want = perLayer()
			}
			res := buildResult(w.run(cfg), traced)
			if !res.Correct {
				t.Errorf("%s traced=%v: output checks failed", w.name, traced)
			}
			if res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s traced=%v: attempted %d failed %d", w.name, traced, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(want))
			}
			for name, m := range res.Metrics {
				if !nameRE.MatchString(name) || !unitRE.MatchString(m.Unit) {
					t.Errorf("%s traced=%v: bad metric name or unit %q [%q]", w.name, traced, name, m.Unit)
				}
			}
			if traced && len(cfg.rec.export()) == 0 {
				t.Errorf("%s: the traced run recorded no spans", w.name)
			}
		}
	}
}
