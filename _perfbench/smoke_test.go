package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestBenchmarkJSONMatchesCatalog checks that BENCHMARK.json declares
// exactly the metrics perfbench prints, with the same units and
// directions.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit, Better string }
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	for _, w := range bj.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %q perfbench does not run", w.Name)
		}
	}
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, perfbench runs %d", len(bj.Workloads), len(workloads))
	}
	compare := func(kind string, got []entry, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the catalog %d", kind, len(got), len(want))
			return
		}
		for i, w := range want {
			if g := got[i]; g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, catalog %s %s %s", kind, i, g, w.name, w.unit, w.better)
			}
		}
	}
	compare("end_to_end", bj.EndToEnd, endToEnd)
	compare("per_layer", bj.PerLayer, perLayer)
}

// smokeRun runs one workload at smoke-test size for one second.
func smokeRun(t *testing.T, name string, traced bool, h hooks) (result, error) {
	t.Helper()
	cfg := &config{workload: name, seed: 7, seconds: time.Second, traced: traced, tiny: true,
		spans: t.TempDir(), hooks: h}
	var out bytes.Buffer
	if err := execute(cfg, &out); err != nil {
		return result{}, err
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out.String())
	}
	return res, nil
}

// TestSmoke runs every workload untraced and traced at tiny scale and
// checks that every named metric is printed with its unit and a finite
// value.
func TestSmoke(t *testing.T) {
	for name := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := smokeRun(t, name, traced, hooks{})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			specs := endToEnd
			if traced {
				specs = perLayer
			}
			if !res.Correct || res.Attempted < 1 || len(res.Metrics) != len(specs) {
				t.Errorf("%s traced=%v: correct=%v attempted=%d metrics=%d, want %d",
					name, traced, res.Correct, res.Attempted, len(res.Metrics), len(specs))
			}
			for _, s := range specs {
				m, ok := res.Metrics[s.name]
				if !ok || m.Unit != s.unit || !finite(m.Value) {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s and a finite value", name, traced, s.name, m, s.unit)
				}
			}
			if !traced && res.Metrics["throughput_per_s"].Value <= 0 {
				t.Errorf("%s: throughput_per_s = %v", name, res.Metrics["throughput_per_s"].Value)
			}
		}
	}
}

// TestChecksFire shows that each output check rejects a run whose outputs
// are wrong: a mismatched traced snapshot, a corrupted ingest payload and
// a mismatched evolve replay.
func TestChecksFire(t *testing.T) {
	flip := func(b []byte) []byte {
		c := append([]byte(nil), b...)
		c[len(c)/2] ^= 0x01
		return c
	}
	cases := []struct {
		workload string
		traced   bool
		h        hooks
	}{
		{"run-xfstests", true, hooks{corruptSnapshot: flip}},
		// The first payload's reference bytes become the last one's: a
		// well-formed stream with other content.
		{"ingest-mix", false, hooks{corruptPayloads: func(d [][]byte) { d[0] = d[len(d)-1] }}},
		{"evolve-seeds", false, hooks{corruptSnapshot: flip}},
	}
	for _, c := range cases {
		_, err := smokeRun(t, c.workload, c.traced, c.h)
		if err == nil || !strings.Contains(err.Error(), "output check") {
			t.Errorf("%s: corrupted output gave err = %v, want an output check failure", c.workload, err)
		}
	}
}

func TestTail(t *testing.T) {
	var xs []float64
	for i := 1; i <= 100; i++ {
		xs = append(xs, float64(i))
	}
	if v, p := tail(xs); v != 90 || p != 90 {
		t.Errorf("tail(1..100) = %v at p%v, want 90 at p90 (ten samples beyond)", v, p)
	}
	if v, p := tail(xs[:5]); v != 3 || p != 50 {
		t.Errorf("tail(1..5) = %v at p%v, want the median: no higher percentile has ten samples beyond it", v, p)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

// TestBurstsAlternate checks the ingest schedule's shape: bursts of conns
// sessions of one class, due at once, the classes alternating so that
// they come in equal numbers.
func TestBurstsAlternate(t *testing.T) {
	payloads := []payload{{class: "small"}, {class: "large"}, {class: "small"}, {class: "large"}, {class: "small"}}
	jobs := schedule(rand.New(rand.NewSource(3)), payloads, phasesFor([]float64{50}, 2*time.Second, 0))
	var bursts [][]job
	for _, j := range jobs {
		if j.kind != kindSession {
			continue
		}
		if n := len(bursts); n > 0 && bursts[n-1][0].due == j.due {
			bursts[n-1] = append(bursts[n-1], j)
		} else {
			bursts = append(bursts, []job{j})
		}
	}
	if len(bursts) < 10 {
		t.Fatalf("%d bursts in 2s at 50/s", len(bursts))
	}
	for i, b := range bursts {
		class := payloads[b[0].idx].class
		if len(b) != conns {
			t.Errorf("burst %d has %d sessions, want %d", i, len(b), conns)
		}
		for lane, j := range b {
			if j.lane != lane || payloads[j.idx].class != class {
				t.Errorf("burst %d session %d: lane %d class %s, want lane %d class %s", i, lane, j.lane, payloads[j.idx].class, lane, class)
			}
		}
		if i > 0 && class == payloads[bursts[i-1][0].idx].class {
			t.Errorf("bursts %d and %d are both %s", i-1, i, class)
		}
	}
}
