package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sync"
	"time"

	"iocov/internal/coverage"
	"iocov/internal/harness"
	"iocov/internal/kernel"
	"iocov/internal/suites/xfstests"
	"iocov/internal/trace"
	"iocov/internal/vfs"
)

// minIterations is the fewest untraced iterations a run makes. Each
// iteration runs its own suite seed: at scale 0.1 one suite seed's work
// costs up to 40% more than another's for the same event count, so a run
// averages over as many generated workloads as its time allows.
const minIterations = 4

// warmSeed is the suite seed of the set-up's warm-up run.
const warmSeed = 1

// xfsTracedRounds is the fewest rounds a traced run makes, each running
// one suite seed through RunParallel and through its traced copy.
const xfsTracedRounds = 2

// mirrorTolerance is how far the untraced copy of RunParallel may drift
// from RunParallel's own time before a traced run warns that its layer
// figures describe a copy that no longer matches the program.
const mirrorTolerance = 0.15

// reportReps is how many extra times an untraced iteration times its
// snapshot, which takes under a millisecond.
const reportReps = 20

// runXfstests is the run-xfstests workload: what
// `iocov run -suite xfstests -scale 0.1 -workers 2 -json` does, in-process
// and back to back in a closed loop, iteration i on suite seed
// seed*1000+i. One iteration is harness.RunParallel followed by
// Snapshot(0).WriteJSON.
func runXfstests(cfg *config) (*outcome, error) {
	scale, warmScale := 0.1, 0.02
	if cfg.tiny {
		scale, warmScale = 0.004, 0.002
	}
	opts := coverage.DefaultOptions()
	out := newOutcome()
	seedOf := func(i int) int64 { return cfg.seed*1000 + int64(i) }

	// Set-up: compile the mount filter and warm the analyzer arena and the
	// heap with a small run. The warm-up runs one fixed suite seed, so that
	// every run sets up the same work: at this scale the work differs by up
	// to a third from one suite seed to another.
	proto, setupS, err := timeSetup(func() (*trace.Filter, error) {
		f, err := trace.NewFilter(harness.MountPattern)
		if err != nil {
			return nil, err
		}
		an, err := harness.RunParallel(harness.SuiteXfstests, warmScale, warmSeed, workers, opts)
		if err != nil {
			return nil, err
		}
		return f, an.Snapshot(0).WriteJSON(io.Discard)
	}, func(*trace.Filter) {})
	if err != nil {
		return nil, err
	}
	out.metrics["setup_s"] = setupS

	// snaps holds each suite seed's snapshot: every later snapshot of the
	// seed, repeated or traced, must reproduce it byte for byte.
	snaps := map[int64][]byte{}
	check := func(seed int64, snap []byte, what string) error {
		if want, ok := snaps[seed]; !ok {
			snaps[seed] = append([]byte(nil), snap...)
		} else if !bytes.Equal(snap, want) {
			return fmt.Errorf("output check: %s snapshot of suite seed %d differs from its first", what, seed)
		}
		return nil
	}
	var walls, reports []float64
	var events int64
	var busy time.Duration
	// iterate runs iteration i: harness.RunParallel and the snapshot,
	// timed, then the snapshot alone reportReps more times.
	iterate := func(i int) error {
		// Each `iocov run` starts on a fresh heap: collect the previous
		// iteration's garbage outside the timed region.
		runtime.GC()
		t0 := time.Now()
		an, err := harness.RunParallel(harness.SuiteXfstests, scale, seedOf(i), workers, opts)
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		if err := an.Snapshot(0).WriteJSON(&buf); err != nil {
			return err
		}
		wall := time.Since(t0)
		walls = append(walls, ms(wall))
		busy += wall
		events += an.Analyzed()
		if err := check(seedOf(i), buf.Bytes(), "iteration"); err != nil {
			return err
		}
		runtime.GC() // no collection of the iteration's garbage overlaps the timing
		for r := 0; r < reportReps; r++ {
			buf.Reset()
			t := time.Now()
			if err := an.Snapshot(0).WriteJSON(&buf); err != nil {
				return err
			}
			reports = append(reports, ms(time.Since(t)))
			if err := check(seedOf(i), buf.Bytes(), "repeated"); err != nil {
				return err
			}
		}
		return nil
	}

	if !cfg.traced {
		r0 := readRuntime()
		start := time.Now()
		for i := 0; i < minIterations || time.Since(start) < cfg.seconds; i++ {
			if err := iterate(i); err != nil {
				return nil, err
			}
		}
		rt := r0.diff()
		out.attempted = int64(len(walls))
		rate := float64(events) / busy.Seconds()
		out.metrics["throughput_per_s"] = rate
		out.metrics["report_p50_ms"] = median(reports)
		out.detail("run.events_per_s=%.0f (all iterations' events over their summed time; %d suite seeds, scale %g, %d workers)",
			rate, len(walls), scale, workers)
		out.detail("%s", latencySummary("iteration", walls))
		out.detail("%s", latencySummary("snapshot", reports))
		out.detail("failed_frac=0 (%d iterations); alloc %.0f B/event, gc_cpu_frac %.4f",
			len(walls), rt.allocBytes/float64(events), rt.gcFrac())
		return out, nil
	}

	// Traced run. harness.RunParallel has no spans inside it, so the
	// traced iterations run the benchmark's copy of it (xfsMirror), whose
	// layers the spans can see. Each round runs one suite seed three ways,
	// back to back so that the machine's drift hits all three alike:
	// RunParallel untraced, the copy untraced, the copy traced. The first
	// pair shows whether the copy still costs what RunParallel costs, the
	// second what the tracing costs; the snapshot check shows the three
	// compute the same coverage.
	var rt runtimeSample
	rec := newRecorder()
	var drifts, overheads []float64
	start := time.Now()
	for i := 0; i < xfsTracedRounds || time.Since(start) < cfg.seconds; i++ {
		r0 := readRuntime()
		if err := iterate(i); err != nil {
			return nil, err
		}
		rt.add(r0.diff())
		runtime.GC()
		_, plain, err := xfsMirror(nil, proto, scale, seedOf(i), opts)
		if err != nil {
			return nil, err
		}
		runtime.GC()
		snap, traced, err := xfsMirror(rec, proto, scale, seedOf(i), opts)
		if err != nil {
			return nil, err
		}
		if cfg.hooks.corruptSnapshot != nil {
			snap = cfg.hooks.corruptSnapshot(snap)
		}
		if err := check(seedOf(i), snap, "traced"); err != nil {
			return nil, err
		}
		drifts = append(drifts, ms(plain)/walls[len(walls)-1])
		overheads = append(overheads, float64(traced)/float64(plain))
	}
	out.attempted = int64(len(walls) + 2*len(drifts))

	iters := float64(len(drifts))
	emitted, _ := rec.total("kernel.run")
	shardCount, shardNS := rec.total("harness.shard")
	filterN, filterNS := rec.total("trace.Filter.KeepRef")
	addN, addNS := rec.total("coverage.Analyzer.Add")
	merges, mergeNS := rec.total("harness.MergeTree")
	nsnaps, snapNS := rec.total("coverage.Snapshot")
	snapBytes, _ := rec.total("coverage.Snapshot.bytes")
	skipped, _ := rec.total("coverage.skipped")

	m := out.metrics
	m["kernel.self_ns_per_event"] = ratio(float64(shardNS-filterNS-addNS), float64(emitted))
	m["kernel.events_emitted"] = float64(emitted) / iters
	m["harness.shard_skew"] = shardSkew(rec)
	m["harness.merge_ms"] = float64(mergeNS) / 1e6 / iters
	m["trace.filter_ns_per_event"] = ratio(float64(filterNS), float64(filterN))
	m["trace.filter_kept_ratio"] = ratio(float64(addN), float64(filterN))
	m["coverage.add_ns_per_event"] = ratio(float64(addNS), float64(addN))
	m["coverage.skipped_ratio"] = ratio(float64(skipped), float64(addN))
	m["coverage.merge_us_per_merge"] = ratio(float64(mergeNS)/1e3, float64(merges))
	m["coverage.merges"] = float64(merges) / iters
	m["coverage.snapshot_ms"] = ratio(float64(snapNS)/1e6, float64(nsnaps))
	m["coverage.snapshot_bytes"] = ratio(float64(snapBytes), float64(nsnaps))
	m["runtime.alloc_bytes_per_event"] = rt.allocBytes / float64(events)
	m["runtime.gc_cpu_frac"] = rt.gcFrac()
	m["tracing.overhead_frac"] = median(overheads) - 1
	m["tracing.attributed_frac"] = xfsAttributed(rec)
	m["tracing.mirror_drift_frac"] = math.Abs(median(drifts) - 1)
	zeroMetrics(m)
	out.detail("shards=%d rounds=%d (RunParallel, its copy untraced, its copy traced)", shardCount, len(drifts))
	out.detail("copy untraced / RunParallel = %.3f (median over rounds)", median(drifts))
	if d := m["tracing.mirror_drift_frac"]; d > mirrorTolerance {
		warning := fmt.Sprintf("WARNING: the traced copy of harness.RunParallel takes %.0f%% more or less time than RunParallel itself "+
			"(tolerance %.0f%%): RunParallel has changed, and the run-xfstests layer figures no longer describe it; update xfsMirror", 100*d, 100*mirrorTolerance)
		out.detail("%s", warning)
		fmt.Fprintln(os.Stderr, "perfbench:", warning)
	}
	return out, finishTrace(cfg, rec, m["tracing.attributed_frac"])
}

// timedSink is the traced replacement for harness's FilteringSink →
// Analyzer chain: it times each Filter.KeepRef and Analyzer.Add call and
// folds them into counters.
type timedSink struct {
	f               *trace.Filter
	an              *coverage.Analyzer
	t0              time.Time
	seen, kept      int64
	filterNS, addNS int64
}

func (s *timedSink) Emit(ev trace.Event) {
	a := time.Since(s.t0)
	keep := s.f.KeepRef(&ev)
	b := time.Since(s.t0)
	s.seen++
	s.filterNS += int64(b - a)
	if keep {
		s.an.Add(ev)
		s.kept++
		s.addNS += int64(time.Since(s.t0) - b)
	}
}

// xfsMirror is one iteration of the benchmark's copy of
// harness.RunParallel, which has no spans of its own: per shard a fresh
// filesystem, kernel and filter over a pooled analyzer, as runShardInto
// builds them, then MergeTree, then the snapshot. With a nil recorder the
// shards use trace.FilteringSink, as RunParallel does; with a recorder a
// timedSink, which times each call the FilteringSink would make. It
// returns the snapshot bytes, which must equal RunParallel's, and the
// iteration's wall time.
func xfsMirror(rec *recorder, proto *trace.Filter, scale float64, seed int64, opts coverage.Options) ([]byte, time.Duration, error) {
	t0 := time.Now()
	root := rec.begin("bench.iteration", 0)
	states := make([]*coverage.Analyzer, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range states {
		states[w] = harness.AcquireAnalyzer(opts)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sp := rec.begin("harness.shard", root.id)
			ts := &timedSink{}
			var sink trace.Sink = &trace.FilteringSink{F: proto.Fresh(), Next: states[w]}
			if rec != nil {
				ts = &timedSink{f: proto.Fresh(), an: states[w], t0: time.Now()}
				sink = ts
			}
			k := kernel.New(vfs.New(vfs.DefaultConfig()), kernel.Options{Sink: sink})
			_, errs[w] = xfstests.Run(k, xfstests.Config{Scale: scale, Seed: seed, Noise: true, Shard: w, Shards: workers})
			rec.end(sp, 1)
			rec.fold(sp.id, "kernel.run", ts.seen, 0)
			rec.fold(sp.id, "trace.Filter.KeepRef", ts.seen, ts.filterNS)
			rec.fold(sp.id, "coverage.Analyzer.Add", ts.kept, ts.addNS)
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, 0, err
		}
	}
	for _, an := range states {
		rec.fold(root.id, "coverage.skipped", an.Skipped(), 0)
	}
	sp := rec.begin("harness.MergeTree", root.id)
	merged, err := harness.MergeTree(states)
	rec.end(sp, int64(len(states)-1))
	if err != nil {
		return nil, 0, err
	}
	for _, an := range states[1:] {
		harness.ReleaseAnalyzer(an)
	}
	sp = rec.begin("coverage.Snapshot", root.id)
	var buf bytes.Buffer
	err = merged.Snapshot(0).WriteJSON(&buf)
	rec.end(sp, 1)
	rec.fold(sp.id, "coverage.Snapshot.bytes", int64(buf.Len()), 0)
	if err != nil {
		return nil, 0, err
	}
	rec.end(root, merged.Analyzed())
	return buf.Bytes(), time.Since(t0), nil
}

// shardSkew is the mean over iterations of the slowest shard's time over
// the mean shard time.
func shardSkew(rec *recorder) float64 {
	var skews []float64
	for _, it := range rec.named("bench.iteration") {
		var slowest, sum float64
		var n int
		for _, c := range rec.children(it.ID) {
			if c.Name == "harness.shard" {
				slowest = max(slowest, float64(c.BusyNS))
				sum += float64(c.BusyNS)
				n++
			}
		}
		if n > 0 {
			skews = append(skews, slowest/(sum/float64(n)))
		}
	}
	return mean(skews)
}

// xfsAttributed is the share of the traced iterations' wall time that the
// layer spans on the critical path account for: the slowest shard (its
// kernel, filter and analyzer time), the merge and the snapshot.
func xfsAttributed(rec *recorder) float64 {
	var wall, attributed float64
	for _, it := range rec.named("bench.iteration") {
		wall += float64(it.BusyNS)
		var slowest float64
		for _, c := range rec.children(it.ID) {
			switch c.Name {
			case "harness.shard":
				slowest = max(slowest, float64(c.BusyNS))
			case "harness.MergeTree", "coverage.Snapshot":
				attributed += float64(c.BusyNS)
			}
		}
		attributed += slowest
	}
	return ratio(attributed, wall)
}
