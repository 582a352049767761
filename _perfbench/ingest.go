package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"iocov/internal/coverage"
	"iocov/internal/kernel"
	"iocov/internal/server"
	"iocov/internal/suites/crashmonkey"
	"iocov/internal/suites/xfstests"
	"iocov/internal/trace"
	"iocov/internal/vfs"
)

// The ingest-mix inputs and load. The sessions arrive the way
// harness.RunRemote sends them: one `iocov run -remote -workers 2` streams
// a suite's shards concurrently, one connection per worker, so sessions
// come in bursts of conns shards of one suite. A CI run covers both suites,
// so the bursts alternate between them and the two size classes arrive in
// equal numbers. The burst rates, the report rate and the spread of the
// gaps between bursts are assumptions, not measurements of a deployment
// (README.md).
const (
	largeShards  = 20 // xfstests shard count of the large payloads
	smallShards  = 16 // crashmonkey scale-1.0 shards; every one is a small payload
	reportRate   = 16 // GET /report per second
	latencyLimit = 250 * time.Millisecond
)

var (
	// largeFrom are the xfstests shard indices of a similar size (about
	// 105k events at scale 0.1); the large payloads are drawn from them.
	largeFrom = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	// rates are the fixed burst arrival rates, bursts/s; the first is the
	// nominal one.
	rates = []float64{4, 8, 16}
)

// ingestSize is what the smoke test shrinks: how many large payloads, at
// which xfstests scale.
type ingestSize struct {
	large      int
	largeScale float64
}

var (
	ingestFull = ingestSize{large: 6, largeScale: 0.1}
	ingestTiny = ingestSize{large: 1, largeScale: 0.01}
)

// maxLag is how late the load generator may dispatch a request before the
// run is invalid: beyond it the generator, not the daemon, set the load.
const maxLag = 250 * time.Millisecond

// payload is one pre-encoded v2 ingest stream: one suite shard.
type payload struct {
	class  string
	data   []byte
	events int64
}

// phase is one stretch of the open loop at a fixed session rate.
type phase struct {
	rate       float64
	start, end time.Duration
}

// phasesFor lays out the open loop: the first rate for first, each other
// rate for rest.
func phasesFor(rates []float64, first, rest time.Duration) []phase {
	var out []phase
	var t time.Duration
	for i, r := range rates {
		d := rest
		if i == 0 {
			d = first
		}
		out = append(out, phase{rate: r, start: t, end: t + d})
		t += d
	}
	return out
}

// request kinds.
const (
	kindSession = iota
	kindReport
)

// job is one scheduled request.
type job struct {
	id    int
	due   time.Duration // since the load's start
	kind  int
	lane  int // the sender: a session's worker within its burst, or conns for a report
	idx   int // payload index for a session
	phase int
}

// reply is what one request measured.
type reply struct {
	start, end time.Duration // since the load's start
	ok         bool
	failure    string
}

// daemon is a loopback iocovd: server.New behind net/http on 127.0.0.1.
type daemon struct {
	hs     *http.Server
	base   string
	done   chan error
	client *http.Client
	tr     *http.Transport

	mu sync.Mutex
	// handler holds, per job id, the time the daemon's handler took; only
	// a timed daemon fills it.
	handler map[int]time.Duration //iocov:guarded-by mu
}

// handlerTime returns how long the daemon's handler took for job id.
func (d *daemon) handlerTime(id int) time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.handler[id]
}

// ingestState is one set-up of the workload.
type ingestState struct {
	payloads []payload
	d        *daemon
	// merged counts how many times each payload was merged by the daemon.
	merged []int64
}

func runIngestMix(cfg *config) (*outcome, error) {
	size := ingestFull
	if cfg.tiny {
		size = ingestTiny
	}
	out := newOutcome()
	st, setupS, err := timeSetup(func() (*ingestState, error) { return ingestSetup(cfg, size) },
		func(st *ingestState) { _ = st.d.stop() })
	if err != nil {
		return nil, err
	}
	defer st.d.stop()
	out.metrics["setup_s"] = setupS
	rng := rand.New(rand.NewSource(cfg.seed))

	if !cfg.traced {
		// Five eighths of the time at the nominal (first) rate, for the
		// latencies; a sixteenth at each higher rate, for the capacity
		// ladder; a quarter saturated, for the throughput. The saturated
		// quarter is split around the open loop, so that the throughput
		// samples the machine at both ends of the run.
		var sat saturation
		st.closedLoop(rng, cfg.seconds/8, &sat)
		phases := phasesFor(rates, cfg.seconds*5/8, cfg.seconds/16)
		jobs := schedule(rng, st.payloads, phases)
		replies, lag, _, err := st.openLoop(jobs)
		if err != nil {
			return nil, err
		}
		st.closedLoop(rng, cfg.seconds/8, &sat)
		out.attempted = int64(len(jobs)) + sat.attempted
		out.failed = sat.failed
		var reports []float64
		for i, j := range jobs {
			r := replies[i]
			if !r.ok {
				out.failed++
			}
			if j.phase == 0 && j.kind == kindReport {
				lat := ms(r.end - j.due)
				if !r.ok {
					lat = max(lat, ms(latencyLimit)) // a failure misses the limit
				}
				reports = append(reports, lat)
			}
		}
		out.metrics["throughput_per_s"] = sat.rate()
		out.metrics["report_p50_ms"] = median(reports)
		ingestDetails(out, st.payloads, jobs, replies, lag, phases)
		out.detail("saturation (closed loop, bursts of %d back to back): %.0f events/s median over burst pairs, %.0f overall, over %d sessions; %s",
			conns, sat.rate(), float64(sat.events)/sat.wall.Seconds(), sat.attempted, latencySummary("small sessions", sat.small))
		return out, st.checkReport(cfg)
	}

	// Traced run: half the time the open loop at the nominal rate with the
	// daemon's handler timed, half the payloads replayed offline through
	// the calls the handler makes, alternating untraced and traced passes.
	phases := phasesFor(rates[:1], cfg.seconds/2, 0)
	jobs := schedule(rng, st.payloads, phases)
	rec := newRecorder()
	r0 := readRuntime()
	replies, lag, t0, err := st.openLoop(jobs)
	if err != nil {
		return nil, err
	}
	rt := r0.diff()
	base := t0.Sub(rec.t0)
	m := out.metrics
	var events int64
	var handler, reportHandler, transport, queue []float64
	for i, j := range jobs {
		r := replies[i]
		out.attempted++
		if !r.ok {
			out.failed++
		}
		h := st.d.handlerTime(j.id)
		name := "bench.session"
		if j.kind == kindReport {
			name = "bench.report"
			reportHandler = append(reportHandler, ms(h))
		} else {
			events += st.payloads[j.idx].events
			handler = append(handler, ms(h))
		}
		root := rec.add(0, name, base+j.due, base+r.end)
		rec.add(root, "loadgen.queue", base+j.due, base+r.start)
		req := rec.add(root, "http.Client.Do", base+r.start, base+r.end)
		rec.fold(req, "server.Handler", 1, int64(h))
		transport = append(transport, ms(r.end-r.start-h))
		queue = append(queue, ms(r.start-j.due))
	}
	prom, err := st.d.get("/metrics")
	if err != nil {
		return nil, err
	}
	mergeSum, mergeCount := promValue(prom, "iocovd_merge_latency_seconds_sum"), promValue(prom, "iocovd_merge_latency_seconds_count")
	m["server.handler_ms"] = median(handler)
	m["server.report_handler_ms"] = median(reportHandler)
	m["server.transport_ms"] = median(transport)
	m["server.merge_ms_mean"] = ratio(mergeSum*1e3, mergeCount)
	m["server.sessions_failed"] = promValue(prom, "iocovd_sessions_failed_total")
	m["loadgen.lag_ms_max"] = ms(lag)
	m["loadgen.queue_wait_ms_p50"] = median(queue)
	m["loadgen.backlog_end"] = float64(maxBacklog(jobs, replies, phases, latencyLimit))
	m["runtime.alloc_bytes_per_event"] = ratio(rt.allocBytes, float64(events))
	m["runtime.gc_cpu_frac"] = rt.gcFrac()

	proto, err := trace.NewFilter(server.DefaultMountPattern)
	if err != nil {
		return nil, err
	}
	var plainWall, tracedWall time.Duration
	var passes int
	start := time.Now()
	for passes == 0 || time.Since(start) < cfg.seconds/2 {
		t := time.Now()
		if _, err := replayAll(cfg, nil, proto, st.payloads); err != nil {
			return nil, err
		}
		plainWall += time.Since(t)
		t = time.Now()
		if _, err := replayAll(cfg, rec, proto, st.payloads); err != nil {
			return nil, err
		}
		tracedWall += time.Since(t)
		passes++
	}
	out.attempted += int64(2 * passes * len(st.payloads))
	evN, decNS := rec.total("trace.BatchDecoder.Next")
	wire, _ := rec.total("trace.wire_bytes")
	filterN, filterNS := rec.total("trace.Filter.KeepRef")
	addN, addNS := rec.total("coverage.Batch.Add")
	skipped, _ := rec.total("coverage.skipped")
	merges, mergeNS := rec.total("server.Store.MergeSession")
	_, hitsNS := rec.total("coverage.PartitionHits")
	snaps, snapNS := rec.total("server.Store.Report")
	snapBytes, _ := rec.total("coverage.Snapshot.bytes")
	_, setupNS := rec.total("session.setup")
	_, passNS := rec.total("bench.replay-pass")
	m["trace.decode_ns_per_event"] = ratio(float64(decNS), float64(evN))
	m["trace.wire_bytes_per_event"] = ratio(float64(wire), float64(evN))
	m["trace.filter_ns_per_event"] = ratio(float64(filterNS), float64(filterN))
	m["trace.filter_kept_ratio"] = ratio(float64(addN), float64(filterN))
	m["coverage.add_ns_per_event"] = ratio(float64(addNS), float64(addN))
	m["coverage.skipped_ratio"] = ratio(float64(skipped), float64(addN))
	m["coverage.merge_us_per_merge"] = ratio(float64(mergeNS)/1e3, float64(merges))
	m["coverage.merges"] = float64(merges) / float64(passes)
	m["coverage.snapshot_ms"] = ratio(float64(snapNS)/1e6, float64(snaps))
	m["coverage.snapshot_bytes"] = ratio(float64(snapBytes), float64(snaps))
	m["tracing.overhead_frac"] = float64(tracedWall)/float64(plainWall) - 1
	m["tracing.attributed_frac"] = ratio(float64(setupNS+decNS+filterNS+addNS+hitsNS+mergeNS+snapNS), float64(passNS))
	zeroMetrics(m)
	out.detail("traced open loop: %d requests; offline replay: %d passes over %d payloads", len(jobs), passes, len(st.payloads))
	if err := st.checkReport(cfg); err != nil {
		return nil, err
	}
	return out, finishTrace(cfg, rec, m["tracing.attributed_frac"])
}

// ingestSetup encodes the payloads, starts the daemon and warms it up.
func ingestSetup(cfg *config, size ingestSize) (*ingestState, error) {
	payloads, err := makePayloads(cfg.seed, size)
	if err != nil {
		return nil, err
	}
	d, err := startDaemon(cfg.traced)
	if err != nil {
		return nil, err
	}
	st := &ingestState{payloads: payloads, d: d, merged: make([]int64, len(payloads))}
	// Warm-up: every payload once and one report.
	for i := range payloads {
		if r := st.do(job{kind: kindSession, idx: i}, time.Now()); !r.ok {
			_ = d.stop()
			return nil, fmt.Errorf("warm-up session failed: %s", r.failure)
		}
	}
	if r := st.do(job{kind: kindReport}, time.Now()); !r.ok {
		_ = d.stop()
		return nil, fmt.Errorf("warm-up report failed: %s", r.failure)
	}
	return st, nil
}

// makePayloads encodes the workload's sessions from its seed: large ones
// are xfstests shards, small ones every crashmonkey scale-1.0 shard, each a v2
// binary stream of the shard's raw kernel emissions (what `iocov run
// -remote` sends).
func makePayloads(seed int64, size ingestSize) ([]payload, error) {
	rng := rand.New(rand.NewSource(seed))
	type spec struct {
		class         string
		shard, shards int
	}
	var specs []spec
	for _, i := range rng.Perm(len(largeFrom))[:size.large] {
		specs = append(specs, spec{"large", largeFrom[i], largeShards})
	}
	for s := 0; s < smallShards; s++ {
		specs = append(specs, spec{"small", s, smallShards})
	}
	payloads := make([]payload, len(specs))
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(specs); i += workers {
				sp := specs[i]
				var buf bytes.Buffer
				bw := trace.NewBinaryWriterV2(&buf)
				n := &trace.CountingSink{}
				k := kernel.New(vfs.New(vfs.DefaultConfig()), kernel.Options{Sink: trace.MultiSink{bw, n}})
				var err error
				if sp.class == "large" {
					_, err = xfstests.Run(k, xfstests.Config{Scale: size.largeScale, Seed: seed, Noise: true, Shard: sp.shard, Shards: sp.shards})
				} else {
					_, err = crashmonkey.Run(k, crashmonkey.Config{Scale: 1.0, Seed: seed, Noise: true, Shard: sp.shard, Shards: sp.shards})
				}
				if err == nil {
					err = bw.Flush()
				}
				if err != nil {
					errs[w] = err
					return
				}
				payloads[i] = payload{class: sp.class, data: buf.Bytes(), events: int64(n.N)}
			}
		}(w)
	}
	wg.Wait()
	return payloads, errors.Join(errs...)
}

// classes splits the payload indices by size class.
func classes(payloads []payload) (small, large []int) {
	for i, p := range payloads {
		if p.class == "large" {
			large = append(large, i)
		} else {
			small = append(small, i)
		}
	}
	return small, large
}

// picker deals the bursts' payloads: the classes alternate from a random
// first one, and each class's payloads take turns from a random start, so
// that every run sends the same mix.
type picker struct {
	class [2][]int // small, large
	next  [2]int
	n     int
}

func newPicker(rng *rand.Rand, payloads []payload) *picker {
	small, large := classes(payloads)
	return &picker{class: [2][]int{small, large}, next: [2]int{rng.Intn(len(small)), rng.Intn(len(large))}, n: rng.Intn(2)}
}

// burst returns the payload indices of the next burst: conns shards of one
// class.
func (p *picker) burst() []int {
	c := p.n % 2
	p.n++
	out := make([]int, conns)
	for i := range out {
		out[i] = p.class[c][p.next[c]%len(p.class[c])]
		p.next[c]++
	}
	return out
}

// schedule draws the open-loop requests: in each phase bursts at the
// phase's rate, each burst conns sessions due at once, one per lane, and
// reports at a fixed interval beside them.
func schedule(rng *rand.Rand, payloads []payload, phases []phase) []job {
	var jobs []job
	for ph, p := range phases {
		// Gaps vary by ±50% around 1/rate: arrivals are seeded and
		// irregular, but never so close that the tail measures how the
		// seed clustered them rather than the daemon.
		gap := func() time.Duration { return time.Duration((0.5 + rng.Float64()) / p.rate * float64(time.Second)) }
		pk := newPicker(rng, payloads)
		for t := p.start + gap(); t < p.end; t += gap() {
			for lane, idx := range pk.burst() {
				jobs = append(jobs, job{due: t, kind: kindSession, lane: lane, idx: idx, phase: ph})
			}
		}
		every := time.Second / reportRate
		for t := p.start + every/2; t < p.end; t += every {
			jobs = append(jobs, job{due: t, kind: kindReport, lane: conns, phase: ph})
		}
	}
	for i := range jobs {
		jobs[i].id = i
	}
	return jobs
}

// openLoop sends jobs on their schedule. Each lane of the bursts has its
// own sender, as each RunRemote worker does, and reports have one more;
// all of them share the client's conns connections, so a report due while
// both carry sessions waits for one. A sender sleeps until its next job is
// due; a job due while its sender is still busy waits, and its latency
// counts from when it was due. openLoop returns each job's reply, the
// generator's lag (how late an idle sender woke) and the load's start.
func (st *ingestState) openLoop(jobs []job) ([]reply, time.Duration, time.Time, error) {
	replies := make([]reply, len(jobs))
	lags := make([]time.Duration, conns+1)
	t0 := time.Now()
	var wg sync.WaitGroup
	for lane := range lags {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for i, j := range jobs {
				if j.lane != lane {
					continue
				}
				if d := j.due - time.Since(t0); d > 0 {
					waitUntil(t0.Add(j.due))
					lags[lane] = max(lags[lane], time.Since(t0)-j.due)
				}
				replies[i] = st.do(j, t0)
			}
		}(lane)
	}
	wg.Wait()
	var lag time.Duration
	for _, l := range lags {
		lag = max(lag, l)
	}
	if lag > maxLag {
		return nil, lag, t0, fmt.Errorf("load generator woke %v late (limit %v): run invalid", lag, maxLag)
	}
	return replies, lag, t0, nil
}

// spinBefore is how long before a request is due an idle sender stops
// sleeping and polls the clock: a sleeping goroutine wakes up to a
// millisecond late on two busy CPUs, which would add the generator's
// wake-up delay to every latency.
const spinBefore = 2 * time.Millisecond

func waitUntil(due time.Time) {
	if d := time.Until(due) - spinBefore; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(due) {
		runtime.Gosched()
	}
}

// saturation is what the closed loops measured.
type saturation struct {
	pairRates         []float64 // events/s of each pair of bursts
	events            int64     // of the sessions merged
	wall              time.Duration
	attempted, failed int64
	small             []float64 // small sessions' latencies, ms
}

// rate is the saturated throughput, events/s: the median over pairs of
// bursts, one of each class, of the pair's events over its time. A
// stretch the machine lost to its neighbours moves a few pairs, not the
// median.
func (s *saturation) rate() float64 { return median(s.pairRates) }

// closedLoop sends bursts back to back for d, each burst's sessions at
// once, and the next burst when all of them have answered, as RunRemote
// does, and adds what it measured to sat.
func (st *ingestState) closedLoop(rng *rand.Rand, d time.Duration, sat *saturation) {
	pk := newPicker(rng, st.payloads)
	var pairEvents int64
	t0 := time.Now()
	pairStart := t0
	for n := 0; n%2 == 1 || time.Since(t0) < d; n++ {
		b := pk.burst()
		replies := make([]reply, len(b))
		var wg sync.WaitGroup
		for lane, idx := range b {
			wg.Add(1)
			go func(lane, idx int) {
				defer wg.Done()
				replies[lane] = st.do(job{kind: kindSession, lane: lane, idx: idx}, t0)
			}(lane, idx)
		}
		wg.Wait()
		for lane, idx := range b {
			sat.attempted++
			r := replies[lane]
			if !r.ok {
				sat.failed++
				continue
			}
			sat.events += st.payloads[idx].events
			pairEvents += st.payloads[idx].events
			if st.payloads[idx].class == "small" {
				sat.small = append(sat.small, ms(r.end-r.start))
			}
		}
		if n%2 == 1 {
			now := time.Now()
			sat.pairRates = append(sat.pairRates, float64(pairEvents)/now.Sub(pairStart).Seconds())
			pairEvents, pairStart = 0, now
		}
	}
	sat.wall += time.Since(t0)
}

// do sends one request and records its times relative to t0. A session
// goes out as RunRemote sends it: chunked, with no Content-Length, and
// named by an X-Iocov-Session header. A session the daemon merged is
// counted toward the expected report.
func (st *ingestState) do(j job, t0 time.Time) reply {
	r := reply{start: time.Since(t0)}
	var req *http.Request
	var err error
	if j.kind == kindReport {
		req, err = http.NewRequest(http.MethodGet, st.d.base+"/report", nil)
	} else {
		// Hiding the reader's type hides its length from net/http.
		body := struct{ io.Reader }{bytes.NewReader(st.payloads[j.idx].data)}
		req, err = http.NewRequest(http.MethodPost, st.d.base+"/ingest", body)
		if err == nil {
			req.Header.Set("X-Iocov-Session", fmt.Sprintf("bench-%s%d-lane%d-job%d", st.payloads[j.idx].class, j.idx, j.lane, j.id))
			req.Header.Set("Content-Type", "application/octet-stream")
			req.Header.Set("X-Iocov-Format", "2")
		}
	}
	if err != nil {
		r.failure = err.Error()
		return r
	}
	req.Header.Set("X-Bench-Job", strconv.Itoa(j.id))
	resp, err := st.d.client.Do(req)
	if err != nil {
		r.end, r.failure = time.Since(t0), err.Error()
		return r
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.end = time.Since(t0)
	switch {
	case err != nil:
		r.failure = err.Error()
	case resp.StatusCode != http.StatusOK:
		r.failure = fmt.Sprintf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	case j.kind == kindReport:
		r.ok = json.Valid(body)
		if !r.ok {
			r.failure = "report is not JSON"
		}
	default:
		var res server.IngestResult
		if err := json.Unmarshal(body, &res); err != nil || res.Events != st.payloads[j.idx].events {
			r.failure = fmt.Sprintf("receipt %q does not count the session's %d events", body, st.payloads[j.idx].events)
			break
		}
		r.ok = true
		atomic.AddInt64(&st.merged[j.idx], 1)
	}
	return r
}

// checkReport is the iocovd byte-identity check: the daemon's final
// /report must equal, byte for byte, one analyzer merging every session
// the daemon accepted, each replayed offline from its payload.
func (st *ingestState) checkReport(cfg *config) error {
	got, err := st.d.get("/report")
	if err != nil {
		return err
	}
	proto, err := trace.NewFilter(server.DefaultMountPattern)
	if err != nil {
		return err
	}
	ref := st.payloads
	if cfg.hooks.corruptPayloads != nil {
		data := make([][]byte, len(ref))
		for i := range ref {
			data[i] = ref[i].data
		}
		cfg.hooks.corruptPayloads(data)
		ref = append([]payload(nil), st.payloads...)
		for i := range ref {
			ref[i].data = data[i]
		}
	}
	ans, err := replayAll(cfg, nil, proto, ref)
	if err != nil {
		return fmt.Errorf("output check: %w", err)
	}
	want := coverage.NewAnalyzer(coverage.DefaultOptions())
	for i, an := range ans {
		for k := atomic.LoadInt64(&st.merged[i]); k > 0; k-- {
			if err := want.Merge(an); err != nil {
				return err
			}
		}
	}
	var buf bytes.Buffer
	if err := want.Snapshot(0).WriteJSON(&buf); err != nil {
		return err
	}
	if !bytes.Equal(buf.Bytes(), got) {
		return fmt.Errorf("output check: daemon /report (%d bytes) differs from the offline merge of the same sessions (%d bytes)", len(got), buf.Len())
	}
	return nil
}

// replayAll replays each payload through the calls the ingest handler
// makes, in its order: BatchDecoder.Next, Filter.KeepRef, Batch.Add,
// PartitionHits, Store.MergeSession, then one Store.Report. With a
// recorder it times every call, folding the per-event ones into the
// session's span. It returns each payload's session analyzer.
func replayAll(cfg *config, rec *recorder, proto *trace.Filter, payloads []payload) ([]*coverage.Analyzer, error) {
	opts := coverage.DefaultOptions()
	store := server.NewStore(opts, 0)
	ans := make([]*coverage.Analyzer, len(payloads))
	var pass open
	if rec != nil {
		pass = rec.begin("bench.replay-pass", 0)
	}
	for i, p := range payloads {
		var sess, setup open
		if rec != nil {
			sess = rec.begin("bench.replay-session", pass.id)
			setup = rec.begin("session.setup", sess.id)
		}
		an := coverage.NewAnalyzer(opts)
		batch, filter := an.NewBatch(), proto.Fresh()
		dec := trace.NewBatchDecoder(bytes.NewReader(p.data))
		if err := dec.ReadHeader(); err != nil {
			return nil, fmt.Errorf("payload %d: %w", i, err)
		}
		var ev trace.Event
		if rec == nil {
			for {
				id, err := dec.Next(&ev)
				if err == io.EOF {
					break
				}
				if err != nil {
					return nil, fmt.Errorf("payload %d: %w", i, err)
				}
				if filter.KeepRef(&ev) {
					batch.Add(&ev, id)
				}
			}
			_ = an.PartitionHits() // the handler's per-session hit export
			if err := store.MergeSession(an); err != nil {
				return nil, err
			}
			ans[i] = an
			continue
		}
		rec.end(setup, 1)
		// One clock reading per call, each interval running from the
		// previous reading, so that the per-event loop is covered without
		// gaps.
		t0 := time.Now()
		var n, kept, decNS, filterNS, addNS int64
		last := time.Since(t0)
		lap := func(acc *int64) {
			now := time.Since(t0)
			*acc += int64(now - last)
			last = now
		}
		for {
			id, err := dec.Next(&ev)
			lap(&decNS)
			if err == io.EOF {
				break
			}
			if err != nil {
				return nil, fmt.Errorf("payload %d: %w", i, err)
			}
			n++
			keep := filter.KeepRef(&ev)
			lap(&filterNS)
			if keep {
				batch.Add(&ev, id)
				lap(&addNS)
				kept++
			}
		}
		rec.fold(sess.id, "trace.BatchDecoder.Next", n, decNS)
		rec.fold(sess.id, "trace.wire_bytes", int64(len(p.data)), 0)
		rec.fold(sess.id, "trace.Filter.KeepRef", n, filterNS)
		rec.fold(sess.id, "coverage.Batch.Add", kept, addNS)
		rec.fold(sess.id, "coverage.skipped", an.Skipped(), 0)
		sp := rec.begin("coverage.PartitionHits", sess.id)
		_ = an.PartitionHits()
		rec.end(sp, 1)
		sp = rec.begin("server.Store.MergeSession", sess.id)
		err := store.MergeSession(an)
		rec.end(sp, 1)
		if err != nil {
			return nil, err
		}
		rec.end(sess, n)
		ans[i] = an
	}
	var sp open
	if rec != nil {
		sp = rec.begin("server.Store.Report", pass.id)
	}
	var buf bytes.Buffer
	if err := store.Report().WriteJSON(&buf); err != nil {
		return nil, err
	}
	if rec != nil {
		rec.end(sp, 1)
		rec.fold(sp.id, "coverage.Snapshot.bytes", int64(buf.Len()), 0)
		rec.end(pass, int64(len(payloads)))
	}
	return ans, nil
}

// ingestDetails prints the per-class and per-rate latencies and the
// capacity: the highest fixed rate whose session tail meets the latency
// limit with no failure and no backlog left at the end of the phase.
func ingestDetails(out *outcome, payloads []payload, jobs []job, replies []reply, lag time.Duration, phases []phase) {
	byClass := map[string][]float64{}
	var eventsPerSession, sessions float64
	perRate := make([][]float64, len(phases))
	failedAt := make([]int, len(phases))
	for i, j := range jobs {
		r := replies[i]
		lat := ms(r.end - j.due)
		if !r.ok {
			lat = max(lat, ms(latencyLimit))
			failedAt[j.phase]++
		}
		if j.kind == kindReport {
			if j.phase == 0 {
				byClass["report"] = append(byClass["report"], lat)
			}
			continue
		}
		perRate[j.phase] = append(perRate[j.phase], lat)
		eventsPerSession += float64(payloads[j.idx].events)
		sessions++
		if j.phase == 0 {
			byClass[payloads[j.idx].class] = append(byClass[payloads[j.idx].class], lat)
		}
	}
	for _, c := range []string{"small", "large", "report"} {
		out.detail("%s (at %g bursts/s)", latencySummary("ingest."+c, byClass[c]), phases[0].rate)
	}
	backlog := backlogs(jobs, replies, phases, latencyLimit)
	var capacity float64
	for ph, p := range phases {
		t, _ := tail(perRate[ph])
		meets := t <= ms(latencyLimit) && failedAt[ph] == 0 && backlog[ph] == 0
		if meets {
			capacity = p.rate * conns * eventsPerSession / sessions
		}
		out.detail("rate %g bursts/s: %s, failed %d, backlog at end %d, meets %v limit: %v",
			p.rate, latencySummary("sessions", perRate[ph]), failedAt[ph], backlog[ph], latencyLimit, meets)
	}
	out.detail("ingest.capacity_events_per_s=%.0f (highest fixed rate meeting the limit); loadgen lag max %.3fms", capacity, ms(lag))
	out.detail("failed_frac=%.6f (%d of %d requests)", ratio(float64(out.failed), float64(out.attempted)), out.failed, out.attempted)
}

// backlogs counts, per phase, the requests that at the phase's end had
// waited longer than the latency limit without starting: the sign that
// the queue grows faster than the daemon drains it.
func backlogs(jobs []job, replies []reply, phases []phase, limit time.Duration) []int {
	out := make([]int, len(phases))
	for i, j := range jobs {
		end := phases[j.phase].end
		if j.due < end-limit && replies[i].start > end {
			out[j.phase]++
		}
	}
	return out
}

func maxBacklog(jobs []job, replies []reply, phases []phase, limit time.Duration) int {
	m := 0
	for _, b := range backlogs(jobs, replies, phases, limit) {
		m = max(m, b)
	}
	return m
}

// startDaemon serves a fresh server.New on a loopback port. With timed
// set, the handler is wrapped to record each request's handler time.
func startDaemon(timed bool) (*daemon, error) {
	srv, err := server.New(server.Config{})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{base: "http://" + ln.Addr().String(), done: make(chan error, 1), handler: map[int]time.Duration{}}
	h := srv.Handler()
	if timed {
		inner := h
		h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			t := time.Now()
			inner.ServeHTTP(w, r)
			took := time.Since(t)
			if id, err := strconv.Atoi(r.Header.Get("X-Bench-Job")); err == nil {
				d.mu.Lock()
				d.handler[id] = took
				d.mu.Unlock()
			}
		})
	}
	d.hs = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	d.tr = &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	d.client = &http.Client{Transport: d.tr, Timeout: 60 * time.Second}
	go func() { d.done <- d.hs.Serve(ln) }()
	return d, nil
}

// get fetches one daemon endpoint.
func (d *daemon) get(path string) ([]byte, error) {
	resp, err := d.client.Get(d.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return body, nil
}

// stop shuts the daemon down and waits for its serve loop to return.
func (d *daemon) stop() error {
	if d.hs == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	d.tr.CloseIdleConnections()
	err := d.hs.Shutdown(ctx)
	if serveErr := <-d.done; !errors.Is(serveErr, http.ErrServerClosed) && err == nil {
		err = serveErr
	}
	d.hs = nil
	return err
}

// promValue reads one sample from a Prometheus text exposition (0 when
// absent).
func promValue(text []byte, name string) float64 {
	sc := bufio.NewScanner(bytes.NewReader(text))
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
			if err == nil {
				return f
			}
		}
	}
	return 0
}
