// Command perfbench is iocov's end-to-end and per-layer benchmark. It runs
// one workload through the repository's own packages (harness, server,
// evolve, trace, coverage), checks the outputs, and prints one JSON result
// as the last line of standard output.
//
//	perfbench --workload run-xfstests|ingest-mix|evolve-seeds --seed N --seconds S --trace 0|1
//
// --trace 0 measures the end-to-end metrics with no instrumentation.
// --trace 1 records spans around every call the benchmark makes into a
// layer, prints the per-layer metrics and writes the spans to
// .bench_build/spans/. A failed output check exits 1 without a result.
// README.md describes the workloads and metrics.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// heldOutSeed is the seed reserved for confirming a performance claim: a
// change is developed and tuned on other seeds and confirmed on this one.
const heldOutSeed = 90001

// workers is the shard and evolve worker count, and conns the ingest
// connection count; the benchmark refuses to run on fewer CPUs.
const (
	workers = 2
	conns   = 2
)

// setupReps is how many times a run sets its workload up; setup_s is the
// median.
const setupReps = 9

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	tiny     bool // smoke-test sizes
	spans    string
	hooks    hooks
}

// hooks let the smoke test corrupt an input or an output, to show that
// each output check fires. Production runs leave them nil.
type hooks struct {
	corruptPayloads func([][]byte)
	corruptSnapshot func([]byte) []byte
}

// outcome is what a workload measured.
type outcome struct {
	attempted, failed int64
	metrics           map[string]float64
	details           []string
}

func newOutcome() *outcome { return &outcome{metrics: map[string]float64{}} }

func (o *outcome) detail(format string, args ...any) {
	o.details = append(o.details, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(*config) (*outcome, error){
	"run-xfstests": runXfstests,
	"ingest-mix":   runIngestMix,
	"evolve-seeds": runEvolveSeeds,
}

// result is the last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fl.String("workload", "", "run-xfstests, ingest-mix or evolve-seeds")
	seed := fl.Int64("seed", 1, "workload seed; every input is generated from it")
	seconds := fl.Int("seconds", 10, "measured seconds")
	traced := fl.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	spans := fl.String("spans", filepath.Join(".bench_build", "spans"), "directory the traced run writes its spans to")
	if err := fl.Parse(args); err != nil {
		return err
	}
	if _, ok := workloads[*name]; !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	cfg := &config{workload: *name, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		traced: *traced == 1, spans: *spans}
	return execute(cfg, stdout)
}

// execute runs one workload and prints its result.
func execute(cfg *config, stdout io.Writer) error {
	if n := runtime.NumCPU(); n < workers || n < conns {
		return fmt.Errorf("%d CPUs: the benchmark uses %d workers and %d connections and will not oversubscribe", n, workers, conns)
	}
	out, err := workloads[cfg.workload](cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", cfg.workload, err)
	}
	specs := endToEnd
	if cfg.traced {
		specs = perLayer
	} else {
		out.metrics["ok_frac"] = 1 - ratio(float64(out.failed), float64(out.attempted))
	}
	res := result{Correct: true, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricValue{}}
	for _, s := range specs {
		v, ok := out.metrics[s.name]
		if !ok || !finite(v) {
			return fmt.Errorf("metric %s missing or not finite (%v)", s.name, v)
		}
		res.Metrics[s.name] = metricValue{Value: v, Unit: s.unit}
	}
	if res.Attempted < 1 {
		return fmt.Errorf("no operation attempted")
	}
	w := bufio.NewWriter(stdout)
	fmt.Fprintf(w, "# perfbench workload=%s seed=%d seconds=%d trace=%v held-out-seed=%d\n",
		cfg.workload, cfg.seed, int(cfg.seconds/time.Second), cfg.traced, heldOutSeed)
	fmt.Fprintf(w, "# env %s\n", stamp())
	for _, d := range out.details {
		fmt.Fprintf(w, "# %s\n", d)
	}
	fmt.Fprintf(w, "# peak RSS (VmHWM, not gated) %.1f MB\n", peakRSSMB())
	for _, s := range specs {
		fmt.Fprintf(w, "# metric %-30s %14.6g %s\n", s.name, res.Metrics[s.name].Value, s.unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	w.Write(line)
	w.WriteString("\n")
	return w.Flush()
}

// stamp describes the machine and code a result was measured on.
func stamp() string {
	return fmt.Sprintf("gomaxprocs=%d nproc=%d go=%s cpu=%q commit=%s src_sha256=%s",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), cpuModel(), commit(), sourceDigest())
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit reads the checked-out commit from .git without running git; a
// checkout without .git reports "none" and is identified by sourceDigest.
func commit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(filepath.Join(".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if id, r, ok := strings.Cut(line, " "); ok && r == ref {
			return id
		}
	}
	return "unknown"
}

// sourceDigest hashes the repository's Go sources and go.mod outside the
// benchmark's own directory, so a result identifies the code it measured
// even in a checkout that is not a git repository.
func sourceDigest() string {
	var files []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || strings.HasPrefix(d.Name(), "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || path == "go.mod" {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s %d\n", f, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// timeSetup runs setup setupReps times, keeps the last result and returns
// it with the median set-up time in seconds. Every earlier result is
// passed to discard.
func timeSetup[T any](setup func() (T, error), discard func(T)) (T, float64, error) {
	var last T
	var secs []float64
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			discard(last)
		}
		t := time.Now()
		v, err := setup()
		if err != nil {
			return last, 0, err
		}
		secs = append(secs, time.Since(t).Seconds())
		last = v
	}
	return last, median(secs), nil
}

// zeroMetrics sets every per-layer metric the workload did not measure to
// 0: the workload does not reach that layer.
func zeroMetrics(m map[string]float64) {
	for _, s := range perLayer {
		if _, ok := m[s.name]; !ok {
			m[s.name] = 0
		}
	}
}

// attributedTolerance is how far the layer spans may fall short of the
// traced wall time before the run is rejected: the rest is the
// benchmark's own loop, goroutine start-up and join.
const attributedTolerance = 0.15

// finishTrace checks that the layer times add up to the traced wall time
// and writes the spans.
func finishTrace(cfg *config, rec *recorder, attributed float64) error {
	if attributed < 1-attributedTolerance || attributed > 1+attributedTolerance {
		return fmt.Errorf("layer spans cover %.3f of the traced wall time, outside 1±%.2f", attributed, attributedTolerance)
	}
	return rec.write(filepath.Join(cfg.spans, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed)))
}
