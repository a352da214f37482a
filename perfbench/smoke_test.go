package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks the
// harness against.
type benchmarkSpec struct {
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

type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// TestSmoke runs every workload at tiny size, untraced and traced twice,
// through the built command, and checks the result line against
// BENCHMARK.json: every listed metric with its unit, end-to-end values
// positive, no failures, and count metrics identical across the two
// traced runs of one seed.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	checkDefs(t, "end_to_end", endToEnd, spec.EndToEnd)
	checkDefs(t, "per_layer", perLayer, spec.PerLayer)

	dir := t.TempDir()
	bench := filepath.Join(dir, "perfbench")
	server := filepath.Join(dir, "dcnflow")
	goBuild(t, bench, ".")
	goBuild(t, server, "dcnflow/cmd/dcnflow")

	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the harness runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			if _, ok := workloads[w.Name]; !ok {
				t.Fatalf("BENCHMARK.json workload %q has no runner", w.Name)
			}
			run := func(trace string) result {
				cmd := exec.Command(bench, "--workload", w.Name, "--seed", "3", "--seconds", "1",
					"--trace", trace, "--smoke", "--bin", server,
					"--spans", filepath.Join(dir, w.Name+".jsonl"))
				var stdout, stderr bytes.Buffer
				cmd.Stdout, cmd.Stderr = &stdout, &stderr
				if err := cmd.Run(); err != nil {
					t.Fatalf("trace=%s: %v\n%s", trace, err, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var r result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
					t.Fatalf("trace=%s: last line is not the result object: %v", trace, err)
				}
				if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
					t.Errorf("trace=%s: correct=%v attempted=%d failed=%d\n%s", trace, r.Correct, r.Attempted, r.Failed, stderr.String())
				}
				return r
			}

			e2e := run("0")
			checkMetrics(t, e2e, endToEnd)
			for _, d := range endToEnd {
				if v := e2e.Metrics[d.name].Value; !(v > 0) || math.IsInf(v, 0) {
					t.Errorf("end-to-end metric %s = %v, want a positive finite value", d.name, v)
				}
			}

			a, b := run("1"), run("1")
			checkMetrics(t, a, perLayer)
			for _, d := range perLayer {
				if d.unit == "count" && a.Metrics[d.name].Value != b.Metrics[d.name].Value {
					t.Errorf("count %s differs between two runs of one seed: %v vs %v",
						d.name, a.Metrics[d.name].Value, b.Metrics[d.name].Value)
				}
			}
			if _, err := os.Stat(filepath.Join(dir, w.Name+".jsonl")); err != nil {
				t.Errorf("traced run wrote no spans: %v", err)
			}
		})
	}
}

// TestNoResultOutsideCheckout checks that run.sh fails, printing no result,
// in a directory holding only BENCHMARK.json and the benchmark's files.
func TestNoResultOutsideCheckout(t *testing.T) {
	dir := t.TempDir()
	if err := os.CopyFS(filepath.Join(dir, "perfbench"), os.DirFS(".")); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "BENCHMARK.json"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("bash", "perfbench/run.sh", "--workload", "offline-ft32", "--seed", "1",
		"--seconds", "1", "--trace", "0", "--smoke")
	cmd.Dir = dir
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Run(); err == nil {
		t.Fatalf("run.sh succeeded without the program's sources; stdout:\n%s", stdout.String())
	}
	if strings.Contains(stdout.String(), `"correct"`) {
		t.Errorf("run.sh printed a result without the program's sources:\n%s", stdout.String())
	}
}

func checkDefs(t *testing.T, list string, defs []metricDef, spec []struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}) {
	t.Helper()
	if len(defs) != len(spec) {
		t.Errorf("%s: harness defines %d metrics, BENCHMARK.json %d", list, len(defs), len(spec))
		return
	}
	for i, d := range defs {
		if d.name != spec[i].Name || d.unit != spec[i].Unit {
			t.Errorf("%s[%d]: harness %s (%s), BENCHMARK.json %s (%s)", list, i, d.name, d.unit, spec[i].Name, spec[i].Unit)
		}
	}
}

func checkMetrics(t *testing.T, r result, defs []metricDef) {
	t.Helper()
	if len(r.Metrics) != len(defs) {
		t.Errorf("result has %d metrics, want %d", len(r.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := r.Metrics[d.name]
		if !ok || m.Unit != d.unit || math.IsNaN(m.Value) {
			t.Errorf("metric %s: got %+v (present %v), want unit %s", d.name, m, ok, d.unit)
		}
	}
}

func goBuild(t *testing.T, out, pkg string) {
	t.Helper()
	cmd := exec.Command("go", "build", "-o", out, pkg)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("go build %s: %v", pkg, err)
	}
}
