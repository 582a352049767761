package main

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"iocov/internal/evolve"
	"iocov/internal/syz"
)

// evolveDir, evolveCorpus and evolveGenerations are the `iocov evolve`
// defaults.
const (
	evolveDir         = "/evolve"
	evolveCorpus      = 40
	evolveGenerations = 16
)

// evolveSeed is one entry of the workload's seed list with its generated
// seed corpus.
type evolveSeed struct {
	seed  int64
	progs []syz.Program
}

// evolveOne is one completed evolve run.
type evolveOne struct {
	wall, snap          time.Duration
	candidates, accepts int64 // evaluated and accepted after generation 0
	total, generations  int64
}

// runEvolveSeeds is the evolve-seeds workload: evolve.Run with the
// `iocov evolve` defaults (corpus 40, 16 generations, 2 workers) in a
// closed loop, run i on seed seed*1000+i. Every run must reach
// untested == 0. The untraced run takes a fresh seed for every run, so that
// it averages over as many seeds as its time allows: seeds differ in how
// many generations and candidates they need. The set-up generates the
// first n seeds; the traced run makes passes over them.
func runEvolveSeeds(cfg *config) (*outcome, error) {
	n := 48
	if cfg.tiny {
		n = 2
	}
	out := newOutcome()
	// Set-up: generate the seed corpora and warm up with one run.
	seeds, setupS, err := timeSetup(func() ([]evolveSeed, error) {
		seeds := make([]evolveSeed, n)
		for i := range seeds {
			seeds[i] = evolveSeedAt(cfg, i)
		}
		_, err := evolveRun(seeds[0])
		return seeds, err
	}, func([]evolveSeed) {})
	if err != nil {
		return nil, err
	}
	out.metrics["setup_s"] = setupS

	if !cfg.traced {
		r0 := readRuntime()
		var walls, snaps []float64
		var total time.Duration
		var cands int64
		start := time.Now()
		for i := 0; i == 0 || time.Since(start) < cfg.seconds; i++ {
			var s evolveSeed
			if i < len(seeds) {
				s = seeds[i]
			} else {
				s = evolveSeedAt(cfg, i) // outside the timed region
			}
			r, err := evolveRun(s)
			if err != nil {
				return nil, err
			}
			walls = append(walls, ms(r.wall+r.snap))
			snaps = append(snaps, ms(r.snap))
			total += r.wall + r.snap
			cands += r.total
		}
		rt := r0.diff()
		out.attempted = int64(len(walls))
		out.metrics["throughput_per_s"] = float64(len(walls)) / total.Seconds()
		out.metrics["report_p50_ms"] = median(snaps)
		out.detail("evolve.runs_per_s=%.3f over %d runs, one seed each", out.metrics["throughput_per_s"], len(walls))
		out.detail("%s", latencySummary("seed-run", walls))
		out.detail("%s", latencySummary("snapshot", snaps))
		out.detail("failed_frac=0; alloc %.0f B/candidate, gc_cpu_frac %.4f", rt.allocBytes/float64(cands), rt.gcFrac())
		return out, checkReplay(cfg, seeds[0])
	}

	// Traced run: one pass over the seed list untraced (the tracing-cost
	// reference), then passes with a span around each evolve.Run and each
	// snapshot for the rest of the time.
	r0 := readRuntime()
	var refWall time.Duration
	var refCands int64
	for _, s := range seeds {
		r, err := evolveRun(s)
		if err != nil {
			return nil, err
		}
		refWall += r.wall + r.snap
		refCands += r.total
	}
	rt := r0.diff()
	rec := newRecorder()
	var tracedWall time.Duration
	var passes, runs int
	start := time.Now()
	for passes == 0 || time.Since(start) < cfg.seconds-refWall {
		for _, s := range seeds {
			root := rec.begin("bench.evolve-seed", 0)
			r, err := evolveTraced(rec, root.id, s)
			if err != nil {
				return nil, err
			}
			rec.fold(root.id, "evolve.generations", r.generations, 0)
			rec.fold(root.id, "evolve.accepted", r.accepts, 0)
			rec.fold(root.id, "evolve.evaluated", r.candidates, 0)
			tracedWall += rec.end(root, 1)
			runs++
		}
		passes++
	}
	out.attempted = int64(len(seeds) + runs)
	total, runNS := rec.total("evolve.Run")
	snaps, snapNS := rec.total("coverage.Snapshot")
	snapBytes, _ := rec.total("coverage.Snapshot.bytes")
	gens, _ := rec.total("evolve.generations")
	acc, _ := rec.total("evolve.accepted")
	evald, _ := rec.total("evolve.evaluated")
	_, rootNS := rec.total("bench.evolve-seed")
	m := out.metrics
	m["evolve.candidates"] = float64(total) / float64(passes)
	m["evolve.ns_per_candidate"] = ratio(float64(runNS), float64(total))
	m["evolve.accept_ratio"] = ratio(float64(acc), float64(evald))
	m["evolve.generations"] = float64(gens) / float64(passes)
	m["coverage.merges"] = float64(acc) / float64(passes)
	m["coverage.snapshot_ms"] = ratio(float64(snapNS)/1e6, float64(snaps))
	m["coverage.snapshot_bytes"] = ratio(float64(snapBytes), float64(snaps))
	m["runtime.alloc_bytes_per_event"] = rt.allocBytes / float64(refCands)
	m["runtime.gc_cpu_frac"] = rt.gcFrac()
	m["tracing.overhead_frac"] = float64(tracedWall)/float64(passes)/float64(refWall) - 1
	m["tracing.attributed_frac"] = ratio(float64(runNS+snapNS), float64(rootNS))
	zeroMetrics(m)
	out.detail("passes traced=%d (seed list of %d) untraced=1", passes, len(seeds))
	if err := checkReplay(cfg, seeds[0]); err != nil {
		return nil, err
	}
	return out, finishTrace(cfg, rec, m["tracing.attributed_frac"])
}

// evolveSeedAt generates the workload's i-th seed and its corpus.
func evolveSeedAt(cfg *config, i int) evolveSeed {
	s := cfg.seed*1000 + int64(i)
	return evolveSeed{seed: s, progs: syz.Generate(syz.GenConfig{Programs: evolveCorpus, Seed: s, Dir: evolveDir})}
}

func evolveConfig(seed int64) evolve.Config {
	return evolve.Config{Seed: seed, Generations: evolveGenerations, Workers: workers, Dir: evolveDir}
}

// evolveRun runs one seed untraced and checks it reached untested == 0.
func evolveRun(s evolveSeed) (*evolveOne, error) {
	t0 := time.Now()
	res, err := evolve.Run(s.progs, evolveConfig(s.seed))
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	if err := res.Analyzer.Snapshot(0).WriteJSON(io.Discard); err != nil {
		return nil, err
	}
	r := &evolveOne{wall: t1.Sub(t0), snap: time.Since(t1)}
	return r, summarize(r, res, s.seed)
}

// evolveTraced is evolveRun with spans around evolve.Run and the snapshot.
func evolveTraced(rec *recorder, parent int64, s evolveSeed) (*evolveOne, error) {
	sp := rec.begin("evolve.Run", parent)
	res, err := evolve.Run(s.progs, evolveConfig(s.seed))
	if err != nil {
		return nil, err
	}
	r := &evolveOne{}
	if err := summarize(r, res, s.seed); err != nil {
		return nil, err
	}
	r.wall = rec.end(sp, r.total)
	sp = rec.begin("coverage.Snapshot", parent)
	var buf bytes.Buffer
	err = res.Analyzer.Snapshot(0).WriteJSON(&buf)
	r.snap = rec.end(sp, 1)
	rec.fold(sp.id, "coverage.Snapshot.bytes", int64(buf.Len()), 0)
	return r, err
}

// summarize fills r's counts from res and checks the run reached
// untested == 0.
func summarize(r *evolveOne, res *evolve.Result, seed int64) error {
	if u := res.Untested(); u != 0 {
		return fmt.Errorf("output check: evolve seed %d ended with %d untested partitions", seed, u)
	}
	for _, f := range res.History {
		r.total += int64(f.Evaluated)
		if f.Generation > 0 {
			r.candidates += int64(f.Evaluated)
			r.accepts += int64(f.Accepted)
		}
	}
	r.generations = int64(res.Generations)
	return nil
}

// checkReplay evolves one seed and checks that evolve.Replay of its corpus
// reproduces the evolved snapshot byte for byte.
func checkReplay(cfg *config, s evolveSeed) error {
	res, err := evolve.Run(s.progs, evolveConfig(s.seed))
	if err != nil {
		return err
	}
	var evolved, replayed bytes.Buffer
	if err := res.Analyzer.Snapshot(0).WriteJSON(&evolved); err != nil {
		return err
	}
	if err := evolve.Replay(res.Corpus, evolveDir).Snapshot(0).WriteJSON(&replayed); err != nil {
		return err
	}
	got := replayed.Bytes()
	if cfg.hooks.corruptSnapshot != nil {
		got = cfg.hooks.corruptSnapshot(got)
	}
	if !bytes.Equal(evolved.Bytes(), got) {
		return fmt.Errorf("output check: evolve.Replay of seed %d does not reproduce the evolved snapshot", s.seed)
	}
	return nil
}
