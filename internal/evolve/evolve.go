package evolve

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"

	"iocov/internal/coverage"
	"iocov/internal/harness"
	"iocov/internal/kernel"
	"iocov/internal/suites/workload"
	"iocov/internal/syz"
	"iocov/internal/vfs"
)

// Config parameterizes the evolutionary loop.
type Config struct {
	// Seed drives every random choice in the run (per-candidate RNGs are
	// derived from it; there is no other randomness source).
	Seed int64
	// Generations bounds the loop (default 16).
	Generations int
	// Explore is the number of random mutants per generation on top of the
	// targeted probes (default 8).
	Explore int
	// Stall stops the loop after this many consecutive generations with no
	// newly covered partition (default 4).
	Stall int
	// Workers bounds candidate-evaluation parallelism (default GOMAXPROCS).
	// The worker count never changes the result: candidates are evaluated
	// on isolated pipelines and folded serially in generation order.
	Workers int
	// Dir is the directory the programs operate in (default "/evolve").
	Dir string
	// Targets are the coverage spaces to optimize (default DefaultTargets).
	Targets []Space
}

func (c Config) withDefaults() Config {
	if c.Generations <= 0 {
		c.Generations = 16
	}
	if c.Explore <= 0 {
		c.Explore = 8
	}
	if c.Stall <= 0 {
		c.Stall = 4
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Dir == "" {
		c.Dir = "/evolve"
	}
	if len(c.Targets) == 0 {
		c.Targets = DefaultTargets()
	}
	return c
}

// Result is a finished run: the accepted corpus, the per-generation fitness
// history, and the cumulative analyzer (the byte-identical merge of every
// accepted candidate's analyzer, equal to replaying the corpus serially).
type Result struct {
	Corpus   []syz.Program
	History  []Fitness
	Analyzer *coverage.Analyzer
	// Generations is the number of evolution generations actually run
	// (excluding the seed's generation 0).
	Generations int

	lay  *layout
	hits [][]uint64
}

// Untested returns the final untested-input-partition count (zero when the
// loop reached its objective; the floor is already excluded).
func (r *Result) Untested() int {
	if len(r.History) == 0 {
		return 0
	}
	return r.History[len(r.History)-1].UntestedInputs
}

// Run evolves the seed corpus until every reachable input partition of the
// configured target spaces is covered, the generation budget is spent, or
// the search stalls. The run is a pure function of (seed corpus, cfg minus
// Workers): see the package comment for the determinism contract.
func Run(seed []syz.Program, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if len(seed) == 0 {
		return nil, fmt.Errorf("evolve: empty seed corpus")
	}
	lay, err := newLayout(cfg.Targets)
	if err != nil {
		return nil, err
	}
	l := &loop{cfg: cfg, lay: lay, eval: &parallelEval{lay: lay, dir: cfg.Dir, workers: cfg.Workers}}
	return l.run(seed)
}

// loop is the evolutionary search. Candidate evaluation hides behind the
// evaluator interface: the loop itself is annotation-proven deterministic,
// and the evaluator's only contract is to return each candidate's isolated
// analyzer and hit bitset in input order — parallelism inside it cannot
// reorder the fold.
type loop struct {
	cfg  Config
	lay  *layout
	eval evaluator
}

// run executes the search: generation 0 accepts the whole seed corpus, then
// each generation builds candidates (targeted probes for every wanted
// partition, suggester immigrants, random mutants), evaluates them, and
// greedily accepts — in candidate order — those covering at least one new
// partition bit. Accepted analyzers merge into the cumulative one; counts
// are additive, so the final analyzer is byte-identical to a serial replay
// of the accepted corpus.
//
//iocov:deterministic
func (l *loop) run(seed []syz.Program) (*Result, error) {
	res := &Result{Analyzer: coverage.NewAnalyzer(coverage.DefaultOptions()), lay: l.lay}
	covered := newBitset(l.lay.bits)
	accept := func(c *candidate) error {
		orInto(covered, c.hits)
		err := res.Analyzer.Merge(c.an)
		harness.ReleaseAnalyzer(c.an)
		c.an = nil
		if err != nil {
			return err
		}
		res.Corpus = append(res.Corpus, c.prog)
		res.hits = append(res.hits, c.hits)
		return nil
	}

	// Generation 0: the seed corpus is the baseline, accepted wholesale.
	newly := 0
	for _, c := range l.eval.eval(seed) {
		newly += countNew(covered, c.hits)
		if err := accept(c); err != nil {
			return nil, err
		}
	}
	res.History = append(res.History,
		l.lay.fitness(res.Analyzer, covered, 0, newly, len(seed), len(res.Corpus), len(res.Corpus)))

	stalled := 0
	for gen := 1; gen <= l.cfg.Generations; gen++ {
		if l.lay.untestedInputs(covered) == 0 {
			break
		}
		progs := l.nextGeneration(gen, res.Corpus, covered, res.Analyzer)
		newly, acc := 0, 0
		for _, c := range l.eval.eval(progs) {
			if !anyNew(covered, c.hits) {
				harness.ReleaseAnalyzer(c.an)
				continue
			}
			newly += countNew(covered, c.hits)
			if err := accept(c); err != nil {
				return nil, err
			}
			acc++
		}
		res.Generations = gen
		res.History = append(res.History,
			l.lay.fitness(res.Analyzer, covered, gen, newly, len(progs), acc, len(res.Corpus)))
		if newly == 0 {
			if stalled++; stalled >= l.cfg.Stall {
				break
			}
		} else {
			stalled = 0
		}
	}
	return res, nil
}

// nextGeneration assembles a generation's candidates:
//
//  1. one targeted probe per wanted partition (uncovered, reachable, in a
//     target input space), constructed from the partition's domain label;
//  2. immigrants from syz.Suggest against the cumulative coverage — probes
//     for untested partitions outside the target spaces, which keep the
//     corpus broad and feed the crossover operator;
//  3. cfg.Explore random mutants of corpus members, each under its own
//     splitmix64 RNG keyed by (generation, index).
//
//iocov:deterministic
func (l *loop) nextGeneration(gen int, corpus []syz.Program, covered []uint64, cum *coverage.Analyzer) []syz.Program {
	var progs []syz.Program
	for ti := range l.lay.targets {
		t := &l.lay.targets[ti]
		if t.space.Arg == "" {
			continue
		}
		for ord := range t.labels {
			if t.floor[ord] || hasBit(covered, t.offset+ord) {
				continue
			}
			if p, ok := t.probe(ord, l.cfg.Dir); ok {
				progs = append(progs, p)
			}
		}
	}
	sugg, _ := syz.Suggest(cum, l.cfg.Dir, 0)
	progs = append(progs, sugg...)
	for i := 0; i < l.cfg.Explore; i++ {
		rng := rand.New(rand.NewSource(workload.ItemSeed(l.cfg.Seed, uint64(gen)<<32|uint64(i))))
		progs = append(progs, mutate(rng, corpus, l.cfg.Dir))
	}
	return progs
}

// candidate is one evaluated program: its isolated analyzer (only this
// program's events) and the global hit bitset derived from it.
type candidate struct {
	prog syz.Program
	an   *coverage.Analyzer
	hits []uint64
}

// evaluator turns a batch of programs into candidates, one per program, in
// input order. It is the loop's concurrency boundary: implementations may
// evaluate in parallel, but the returned slice's order is the contract the
// deterministic fold relies on.
type evaluator interface {
	eval(progs []syz.Program) []*candidate
}

// parallelEval evaluates candidates across a bounded worker pool. Each
// candidate runs on a fully isolated pipeline (own filesystem, kernel, and
// pooled analyzer), so workers share no mutable state except the
// concurrency-safe sync.Pools that recycle vfs blocks and executor scratch,
// whose contents never reach a result. The per-candidate result is
// independent of scheduling.
type parallelEval struct {
	lay     *layout
	dir     string
	workers int
}

func (e *parallelEval) eval(progs []syz.Program) []*candidate {
	out := make([]*candidate, len(progs))
	w := e.workers
	if w > len(progs) {
		w = len(progs)
	}
	if w <= 1 {
		for i := range progs {
			out[i] = evalOne(e.lay, e.dir, progs[i])
		}
		return out
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				out[i] = evalOne(e.lay, e.dir, progs[i])
			}
		}()
	}
	for i := range progs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return out
}

// evalOne executes one program on a fresh pipeline. Directory setup runs
// untraced (no sink attached yet), so the candidate's analyzer contains
// exactly the program's own events — the invariant that makes the merged
// result equal to a serial replay.
func evalOne(lay *layout, dir string, prog syz.Program) *candidate {
	an := harness.AcquireAnalyzer(coverage.DefaultOptions())
	runFresh(an, dir, prog)
	return &candidate{prog: prog, an: an, hits: lay.hitsOf(an)}
}

// runFresh executes prog on a fresh filesystem and kernel with an as the
// sink, then releases the filesystem's data blocks back to the vfs pool:
// the pipeline is thrown away, and the analyzer holds counters, never
// block references, so the next candidate reuses the memory instead of
// allocating its working set again.
func runFresh(an *coverage.Analyzer, dir string, prog syz.Program) {
	fs := vfs.New(vfs.DefaultConfig())
	k := kernel.New(fs, kernel.Options{})
	p := k.NewProc(kernel.ProcOptions{Cred: vfs.Root})
	setupDirs(p, dir, prog)
	k.SetSink(an)
	syz.Execute(p, []syz.Program{prog})
	fs.Release()
}

// setupDirs creates the working directory and the parent directory of every
// absolute path the program references, so corpora generated against any
// directory layout (e.g. syz.Generate's /fuzz) execute without spurious
// ENOENT noise.
func setupDirs(p *kernel.Proc, dir string, prog syz.Program) {
	mkdirAll(p, dir)
	for _, c := range prog.Calls {
		for _, a := range c.Args {
			if a.Kind != syz.KindString || !strings.HasPrefix(a.Str, "/") {
				continue
			}
			if i := strings.LastIndexByte(a.Str, '/'); i > 0 {
				mkdirAll(p, a.Str[:i])
			}
		}
	}
}

func mkdirAll(p *kernel.Proc, path string) {
	for i := 1; i < len(path); i++ {
		if path[i] == '/' {
			_ = p.Mkdir(path[:i], 0o777)
		}
	}
	_ = p.Mkdir(path, 0o777)
}

// Replay executes programs serially — fresh pipeline per program, one
// shared analyzer — and returns that analyzer. For a Result's corpus this
// reproduces Result.Analyzer byte-identically (counts are additive and each
// accepted candidate ran on its own fresh pipeline), which is the evolve
// command's -verify check and the regression tests' determinism proof.
func Replay(progs []syz.Program, dir string) *coverage.Analyzer {
	if dir == "" {
		dir = "/evolve"
	}
	an := coverage.NewAnalyzer(coverage.DefaultOptions())
	for _, prog := range progs {
		runFresh(an, dir, prog)
	}
	return an
}
