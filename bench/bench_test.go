package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// spec is the part of BENCHMARK.json the smoke test checks.
type spec struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestBenchmark runs every workload with a single timed request, plus a
// traced served-fleet run, and checks that each result line names exactly the
// metrics BENCHMARK.json lists, with its units, and that no request
// failed.
func TestBenchmark(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range sp.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloads, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, bench runs %v", names, workloads)
	}
	want := func(list []struct{ Name, Unit string }) map[string]string {
		m := map[string]string{}
		for _, d := range list {
			m[d.Name] = d.Unit
		}
		return m
	}
	wantE2E, wantLayer := want(sp.EndToEnd), want(sp.PerLayer)

	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/advm-regress", "./cmd/advm-served")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building the CLIs: %v\n%s", err, out)
	}

	type tc struct {
		workload, trace string
		want            map[string]string
	}
	var cases []tc
	for _, w := range workloads {
		cases = append(cases, tc{w, "0", wantE2E})
	}
	cases = append(cases, tc{"served-fleet", "1", wantLayer})
	for _, c := range cases {
		c := c
		t.Run(c.workload+"/trace="+c.trace, func(t *testing.T) {
			// Only correctness and metric names are checked, so the runs
			// may share the CPUs.
			t.Parallel()
			var stdout, stderr bytes.Buffer
			code := run([]string{"-workload", c.workload, "-seed", "1", "-requests", "1",
				"-trace", c.trace, "-bin", bin, "-work", t.TempDir()}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("exit %d:\n%s", code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("last line is not a result: %v", err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("correct %v, %d of %d requests failed:\n%s", res.Correct, res.Failed, res.Attempted, stderr.String())
			}
			for name, unit := range c.want {
				if got, ok := res.Metrics[name]; !ok || got.Unit != unit {
					t.Errorf("metric %s (%s) missing or with unit %q", name, unit, got.Unit)
				}
			}
			for name := range res.Metrics {
				if _, ok := c.want[name]; !ok {
					t.Errorf("metric %s is not in BENCHMARK.json", name)
				}
			}
		})
	}
}

// TestNoCLIs checks that the benchmark refuses to run, printing no
// result, when the binaries it measures are missing.
func TestNoCLIs(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-workload", "matrix-cold", "-bin", t.TempDir()}, &stdout, &stderr)
	if code == 0 || stdout.Len() != 0 {
		t.Fatalf("exit %d with output %q", code, stdout.String())
	}
}
