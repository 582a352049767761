package main

import (
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricSpec names one metric the benchmark prints, as BENCHMARK.json
// declares it.
type metricSpec struct{ name, unit, better string }

// endToEnd are the user-visible metrics every workload prints in an
// untraced run (--trace 0). See README.md for what each means per workload.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"ok_frac", "frac", "higher"},
	{"throughput_per_s", "1/s", "higher"},
	{"report_p50_ms", "ms", "lower"},
}

// perLayer are the layer metrics every workload prints in a traced run
// (--trace 1). A layer a workload does not reach reads 0 there. README.md
// records which end-to-end metric each should move, on which workload.
var perLayer = []metricSpec{
	{"kernel.self_ns_per_event", "ns", "lower"},
	{"kernel.events_emitted", "count", "lower"},
	{"harness.shard_skew", "ratio", "lower"},
	{"harness.merge_ms", "ms", "lower"},
	{"trace.filter_ns_per_event", "ns", "lower"},
	{"trace.filter_kept_ratio", "ratio", "higher"},
	{"trace.decode_ns_per_event", "ns", "lower"},
	{"trace.wire_bytes_per_event", "B", "lower"},
	{"coverage.add_ns_per_event", "ns", "lower"},
	{"coverage.skipped_ratio", "ratio", "lower"},
	{"coverage.merge_us_per_merge", "us", "lower"},
	{"coverage.merges", "count", "lower"},
	{"coverage.snapshot_ms", "ms", "lower"},
	{"coverage.snapshot_bytes", "B", "lower"},
	{"server.handler_ms", "ms", "lower"},
	{"server.transport_ms", "ms", "lower"},
	{"server.merge_ms_mean", "ms", "lower"},
	{"server.report_handler_ms", "ms", "lower"},
	{"server.sessions_failed", "count", "lower"},
	{"evolve.candidates", "count", "lower"},
	{"evolve.ns_per_candidate", "ns", "lower"},
	{"evolve.accept_ratio", "ratio", "higher"},
	{"evolve.generations", "count", "lower"},
	{"runtime.alloc_bytes_per_event", "B", "lower"},
	{"runtime.gc_cpu_frac", "frac", "lower"},
	{"loadgen.lag_ms_max", "ms", "lower"},
	{"loadgen.queue_wait_ms_p50", "ms", "lower"},
	{"loadgen.backlog_end", "count", "lower"},
	{"tracing.overhead_frac", "frac", "lower"},
	{"tracing.attributed_frac", "frac", "higher"},
	{"tracing.mirror_drift_frac", "frac", "lower"},
}

// median returns the middle of xs (the mean of the two middle values for
// an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile of xs that has at least ten samples
// beyond it, with that percentile. Up to twenty samples that percentile
// would fall under the median, and tail returns the median (p50).
func tail(xs []float64) (value, pct float64) {
	n := len(xs)
	if n <= 20 {
		return median(xs), 50
	}
	s := sortedCopy(xs)
	return s[n-11], 100 * float64(n-10) / float64(n)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// latencySummary formats a latency sample as its median and tail with the
// tail's percentile and the sample count.
func latencySummary(name string, xs []float64) string {
	t, p := tail(xs)
	return fmt.Sprintf("%s p50=%.3fms tail=%.3fms (p%.1f, n=%d)", name, median(xs), t, p, len(xs))
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

// ratio is a/b, or 0 when b is 0 (a layer the workload does not reach).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM). It is
// printed for information, not gated: a 258 MB zero arena the suites share
// sets the GC goal, so the peak follows GC timing more than the code.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// runtimeSample is a reading of the Go runtime's allocation and CPU-time
// counters; two readings give the allocation and GC share of a window.
type runtimeSample struct {
	allocBytes, gcCPU, totalCPU float64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	samples := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	val := func(s metrics.Sample) float64 {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			return float64(s.Value.Uint64())
		case metrics.KindFloat64:
			return s.Value.Float64()
		}
		return 0
	}
	return runtimeSample{val(samples[0]), val(samples[1]), val(samples[2])}
}

// diff returns the counters' growth between r0 and now.
func (r0 runtimeSample) diff() runtimeSample {
	r1 := readRuntime()
	return runtimeSample{r1.allocBytes - r0.allocBytes, r1.gcCPU - r0.gcCPU, r1.totalCPU - r0.totalCPU}
}

// add sums another window's growth into d.
func (d *runtimeSample) add(o runtimeSample) {
	d.allocBytes += o.allocBytes
	d.gcCPU += o.gcCPU
	d.totalCPU += o.totalCPU
}

// gcFrac is the GC's share of the CPU time in a window.
func (d runtimeSample) gcFrac() float64 { return ratio(d.gcCPU, d.totalCPU) }

// finite reports whether v is a printable metric value.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
