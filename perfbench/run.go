package main

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"syscall"
	"time"

	"repro/abcast"
)

const (
	setupRepeats   = 15          // clusters set up per untraced run; setup_s is their mean
	rampTimeout    = time.Second // broadcast timeout during the ramp
	rampSubWindows = 4           // sub-windows of a ramp step's commit p99
	crashCycles    = 12          // crash cycles of p0 per untraced run
	tracedCycles   = 3           // crash cycles of p0 per traced run
	probeLen       = 500 * time.Millisecond
	probeCrash     = 50 * time.Millisecond  // crash probe: p0 crashes this far in
	probeDown      = 250 * time.Millisecond // and stays down this long
	probeJitter    = 20 * time.Millisecond  // seeded jitter on both, so cycles sample every FD and gossip phase
	tailSamples    = 1000                   // requests per sub-window of a windowed p99, at least
	rampWarmup     = 500 * time.Millisecond // load on a fresh ramp cluster before its step is measured
	settleWait     = 30 * time.Second
	catchupWait    = 30 * time.Second
	n1Window       = 4 * time.Second // N=1 reference window of a traced run
)

// runner executes one benchmark run.
type runner struct {
	w    *workload
	seed uint64
	dur  time.Duration
	out  string
	led  *ledger
	rng  *rand.Rand // arrivals
	jit  *rand.Rand // crash-cycle jitter
	pl   *payloads

	nextID     int32
	details    map[string]any
	violations []string
	attempted  int
	failed     int
}

func newRunner(w *workload, seed uint64, dur time.Duration, out string) *runner {
	return &runner{
		w: w, seed: seed, dur: dur, out: out,
		led:     newLedger(),
		rng:     rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)),
		jit:     rand.New(rand.NewPCG(seed, seed^0x632be59bd9b4e019)),
		pl:      newPayloads(seed, w.Keys, w.ValueBytes),
		details: make(map[string]any),
	}
}

// window is the record of one load phase: its requests are the ledger
// indices [from, to), issued between ledger times start and end.
type window struct {
	from, to   int64
	start, end int64
	lateMs     []float64
}

// cluster builds and starts a cluster of n processes and commits one
// request at every origin; the elapsed time is the set-up time.
func (r *runner) cluster(ctx context.Context, n int, tr *tracer) (*cluster, time.Duration, error) {
	t0 := time.Now()
	id := r.nextID
	r.nextID++
	dir := filepath.Join(r.out, "runs", fmt.Sprintf("%s-%d-%d", r.w.Name, os.Getpid(), id))
	os.RemoveAll(dir)
	c, err := newCluster(id, r.w, n, r.seed+uint64(id), dir, r.led, tr)
	if err != nil {
		return nil, 0, err
	}
	if err := c.start(ctx); err != nil {
		c.close()
		return nil, 0, err
	}
	for _, o := range r.origins(n, r.w.Origins) {
		idx, q := r.led.alloc()
		q.cluster, q.origin = c.id, int32(o)
		q.due = r.led.now()
		key, payload := r.pl.next(idx, abcast.EncodePut)
		bctx, cancel := context.WithTimeout(ctx, r.w.Timeout)
		err := c.broadcast(bctx, o, key, payload)
		cancel()
		if err != nil {
			c.close()
			return nil, 0, fmt.Errorf("set-up commit at p%d: %w", o, err)
		}
		q.commit.Store(r.led.now())
		q.status.Store(stOK)
	}
	return c, time.Since(t0), nil
}

// origins restricts a workload's origins to a cluster of n processes.
func (r *runner) origins(n int, want []int) []int {
	var out []int
	for _, o := range want {
		if o < n {
			out = append(out, o)
		}
	}
	if len(out) == 0 {
		out = []int{0}
	}
	return out
}

// drive offers seeded Poisson load at rate for dur, round-robin over
// origins, then waits until every request has returned. during, when set,
// runs alongside the load and is waited for too.
func (r *runner) drive(ctx context.Context, c *cluster, rate float64, dur time.Duration, origins []int, timeout time.Duration, during func()) window {
	var wg sync.WaitGroup
	win := window{from: r.led.n.Load(), start: r.led.now()}
	var dwg sync.WaitGroup
	if during != nil {
		dwg.Add(1)
		go func() {
			defer dwg.Done()
			during()
		}()
	}
	i := 0
	pace(ctx, r.rng, rate, dur, func(due time.Time) {
		idx, q := r.led.alloc()
		o := origins[i%len(origins)]
		i++
		q.cluster, q.origin = c.id, int32(o)
		q.due = r.led.stamp(due)
		key, payload := r.pl.next(idx, abcast.EncodePut)
		q.sent = r.led.now()
		win.lateMs = append(win.lateMs, ms(q.sent-q.due))
		wg.Add(1)
		go func() {
			defer wg.Done()
			bctx, cancel := context.WithTimeout(ctx, timeout)
			err := c.broadcast(bctx, o, key, payload)
			cancel()
			now := r.led.now()
			if err != nil {
				q.status.Store(stFailed)
			} else {
				q.commit.Store(now)
				q.status.Store(stOK)
			}
			c.tr.span("abcast.broadcast", "", o, idx, q.due, now)
		}()
	})
	win.end = r.led.now()
	win.to = r.led.n.Load()
	dwg.Wait()
	wg.Wait()
	return win
}

// crashOut records one crash cycle of p0.
type crashOut struct {
	crashAt, startAt, caughtAt int64
	startMs                    float64 // duration of p0's Start
	err                        error
}

// crashCycle returns a function that, run alongside load, crashes p0
// after `after` and restarts it `down` later.
func (r *runner) crashCycle(ctx context.Context, c *cluster, after, down time.Duration, out *crashOut) func() {
	return func() {
		time.Sleep(after)
		out.crashAt = r.led.now()
		c.crash(0)
		time.Sleep(down)
		out.startAt, out.err = c.restart(ctx, 0)
		out.startMs = ms(r.led.now() - out.startAt)
	}
}

// awaitCatchup waits for p0 to reach the survivors' positions at restart.
func (r *runner) awaitCatchup(c *cluster, out *crashOut) error {
	if out.err != nil {
		return out.err
	}
	deadline := time.Now().Add(catchupWait)
	for {
		if at := c.caughtUp(0); at != 0 {
			out.caughtAt = at
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("p0 did not catch up within %v:%s", catchupWait, c.describe())
		}
		time.Sleep(time.Millisecond)
	}
}

// failoverMs is the time from the crash to the first commit of a request
// due after it.
func (r *runner) failoverMs(win window, crashAt int64) float64 {
	firstCommit := int64(math.MaxInt64)
	for i := win.from; i < win.to; i++ {
		q := r.led.at(i)
		if q.status.Load() == stOK && q.due > crashAt {
			firstCommit = min(firstCommit, q.commit.Load())
		}
	}
	if firstCommit == math.MaxInt64 {
		return 0
	}
	return ms(firstCommit - crashAt)
}

// timings collects a window's per-request latencies, all counted from
// the request's due time. skip, when set, excludes requests from the
// apply-at-every-replica timing.
type timings struct {
	commit, applyAll, tentative []float64
	commitAt, applyAt           []int64 // due time of each commit / applyAll sample
	ok, failed                  int
}

func (r *runner) timings(win window, n int, skipApply func(q *req) bool) timings {
	var t timings
	for i := win.from; i < win.to; i++ {
		q := r.led.at(i)
		if q.status.Load() != stOK {
			t.failed++
			continue
		}
		t.ok++
		t.commit = append(t.commit, ms(q.commit.Load()-q.due))
		t.commitAt = append(t.commitAt, q.due)
		if tv := q.tent.Load(); tv != 0 {
			t.tentative = append(t.tentative, ms(tv-q.due))
		}
		if skipApply != nil && skipApply(q) {
			continue
		}
		last := int64(0)
		for p := 0; p < n; p++ {
			a := q.applied[p].Load()
			if a == 0 {
				last = 0
				break
			}
			last = max(last, a)
		}
		if last != 0 {
			t.applyAll = append(t.applyAll, ms(last-q.due))
			t.applyAt = append(t.applyAt, q.due)
		}
	}
	return t
}

// windowedP99 splits samples by due time into consecutive sub-windows of
// span nanoseconds and returns the median of the sub-windows' p99s, so a
// lone stall moves one sub-window, not the reported tail. A ragged last
// sub-window with under half the average sample count is left out.
func windowedP99(at []int64, v []float64, span int64) float64 {
	if len(v) == 0 {
		return 0
	}
	lo := slices.Min(at)
	buckets := make(map[int64][]float64)
	for i, t := range at {
		buckets[(t-lo)/span] = append(buckets[(t-lo)/span], v[i])
	}
	var p99s []float64
	for _, b := range buckets {
		if 2*len(b)*len(buckets) >= len(v) {
			p99s = append(p99s, percentileOf(b, 99))
		}
	}
	return median(p99s)
}

// tailSpan is the sub-window of the window's p99s: long enough for
// tailSamples requests at the workload's rate, and at least a second.
func (r *runner) tailSpan() int64 {
	return int64(max(1, tailSamples/r.w.RatePerS) * 1e9)
}

// ramp measures capacity with stepped load, each step on a fresh cluster
// so that a failing step's backlog cannot fail the next. It multiplies the
// rate by RampFactor after every passing step and stops at the first
// failing one; while the first steps fail it divides the rate instead,
// until one passes. A step fails only when it fails twice in a row. Each
// step measures after rampWarmup of load, and its commit p99 is the median
// of its sub-windows' p99s.
func (r *runner) ramp(ctx context.Context) ([]stepResult, error) {
	var steps []stepResult
	step := func(rate float64) (bool, error) {
		c, _, err := r.cluster(ctx, r.w.N, nil)
		if err != nil {
			return false, err
		}
		win := r.drive(ctx, c, rate, rampWarmup+r.w.RampStep, r.w.Origins, rampTimeout, nil)
		for warm := win.start + int64(rampWarmup); win.from < win.to && r.led.at(win.from).due < warm; {
			win.from++
		}
		t := r.timings(win, c.n, func(*req) bool { return true })
		s := stepResult{
			OfferedPerS: rate,
			Attempted:   int(win.to - win.from),
			Committed:   t.ok,
			Failed:      t.failed,
			CommitP99Ms: windowedP99(t.commitAt, t.commit, int64(r.w.RampStep/rampSubWindows)),
			GoodputPerS: float64(t.ok) / r.w.RampStep.Seconds(),
		}
		s.Pass = r.w.slo().passes(s)
		steps = append(steps, s)
		if s.Pass {
			r.finish(c)
		} else {
			c.close() // an overloaded cluster's backlog would outlast the gate's wait
		}
		return s.Pass, nil
	}
	passed, failed := false, false
	for rate, i := r.w.RampStart, 0; i < r.w.RampSteps && !(passed && failed); i++ {
		ok, err := step(rate)
		if err == nil && !ok {
			ok, err = step(rate) // one host hiccup does not end the ramp
		}
		if err != nil {
			return steps, err
		}
		if ok {
			passed = true
			rate *= r.w.RampFactor
		} else {
			failed = true
			rate /= r.w.RampFactor
		}
	}
	return steps, nil
}

// heapPeak samples the Go heap until stop is closed and reports the peak
// in MiB.
func heapPeak(stop <-chan struct{}) <-chan float64 {
	out := make(chan float64, 1)
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		peak := 0.0
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			peak = max(peak, float64(s[0].Value.Uint64())/(1<<20))
			select {
			case <-stop:
				out <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return out
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// measured is everything one window of the main cluster produced.
type measured struct {
	win     window
	t       timings
	crash   crashOut
	heapMB  float64
	cpuS    float64
	gcPause float64 // ms
	allocMB float64
	before  []abcast.Stats
	after   []abcast.Stats
}

// measure runs the workload's fixed-rate window on c, with p0's crash
// cycle inside it for CrashInWindow workloads.
func (r *runner) measure(ctx context.Context, c *cluster, origins []int, dur time.Duration, tr *tracer) (measured, error) {
	var m measured
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	m.before = r.stats(c)
	var during func()
	if r.w.CrashInWindow {
		during = r.crashCycle(ctx, c, dur/3, dur/3, &m.crash)
	}
	stop := make(chan struct{})
	peak := heapPeak(stop)
	cpu0 := cpuSeconds()
	if tr != nil {
		tr.recording.Store(true)
	}
	m.win = r.drive(ctx, c, r.w.RatePerS, dur, origins, r.w.Timeout, during)
	if tr != nil {
		tr.recording.Store(false)
	}
	m.cpuS = cpuSeconds() - cpu0
	close(stop)
	m.heapMB = <-peak
	runtime.ReadMemStats(&ms1)
	m.after = r.stats(c)
	m.gcPause = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	m.allocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
	var skip func(q *req) bool
	if r.w.CrashInWindow {
		if err := r.awaitCatchup(c, &m.crash); err != nil {
			return m, err
		}
		// Requests due while p0 was down or catching up wait for the
		// restart, not for the protocol; keep them out of apply_all.
		skip = func(q *req) bool { return q.due >= m.crash.crashAt && q.due <= m.crash.caughtAt }
	}
	m.t = r.timings(m.win, c.n, skip)
	r.attempted += int(m.win.to - m.win.from)
	r.failed += m.t.failed
	return m, nil
}

// probe runs the crash probe of workloads without a crash in their
// window: load from the other origins while p0 crashes and recovers.
func (r *runner) probe(ctx context.Context, c *cluster) (crashOut, window, error) {
	var out crashOut
	jitter := func() time.Duration { return time.Duration(r.jit.Int64N(int64(probeJitter))) }
	cycle := r.crashCycle(ctx, c, probeCrash+jitter(), probeDown+jitter(), &out)
	win := r.drive(ctx, c, r.w.RatePerS, probeLen, r.w.probeOrigins(), r.w.Timeout, cycle)
	r.attempted += int(win.to - win.from)
	r.failed += r.timings(win, 0, func(*req) bool { return true }).failed
	return out, win, r.awaitCatchup(c, &out)
}

// finish settles c, runs the correctness gate and closes c.
func (r *runner) finish(c *cluster) {
	defer c.close()
	if err := c.settle(settleWait); err != nil {
		c.violation("%v", err)
	}
	r.violations = append(r.violations, c.verify()...)
}

func (r *runner) stats(c *cluster) []abcast.Stats {
	out := make([]abcast.Stats, c.n)
	for pid := range out {
		out[pid] = c.stats(pid)
	}
	return out
}

// untraced runs the end-to-end measurement.
func (r *runner) untraced() (result, error) {
	ctx := context.Background()
	var setups []float64
	var c *cluster
	for i := 0; i < setupRepeats; i++ {
		cl, d, err := r.cluster(ctx, r.w.N, nil)
		if err != nil {
			return result{}, err
		}
		setups = append(setups, d.Seconds())
		if i < setupRepeats-1 {
			cl.close()
		} else {
			c = cl
		}
	}
	m, err := r.measure(ctx, c, r.w.Origins, r.dur, nil)
	if err != nil {
		c.close()
		return result{}, err
	}
	var failover, catchup []float64
	if r.w.CrashInWindow {
		failover = append(failover, r.failoverMs(m.win, m.crash.crashAt))
		catchup = append(catchup, ms(m.crash.caughtAt-m.crash.startAt))
	}
	for len(failover) < crashCycles {
		out, win, err := r.probe(ctx, c)
		if err != nil {
			c.close()
			return result{}, err
		}
		failover = append(failover, r.failoverMs(win, out.crashAt))
		catchup = append(catchup, ms(out.caughtAt-out.startAt))
	}
	r.finish(c)
	steps, err := r.ramp(ctx)
	if err != nil {
		return result{}, err
	}

	commit := summarize(m.t.commit)
	apply := summarize(m.t.applyAll)
	tent := summarize(m.t.tentative)
	r.details["setup_s"] = setups
	r.details["failover_ms"] = failover
	r.details["catchup_ms"] = catchup
	r.details["commit_ms"] = commit
	r.details["apply_all_ms"] = apply
	r.details["tentative_ms"] = tent
	r.details["ramp"] = steps
	r.details["gen_late_ms"] = summarize(m.win.lateMs)
	mt := map[string]metric{
		"setup_s":          {mean(setups), "s"},
		"commit_p50_ms":    {commit.P50, "ms"},
		"commit_p99_ms":    {windowedP99(m.t.commitAt, m.t.commit, r.tailSpan()), "ms"},
		"apply_all_p50_ms": {apply.P50, "ms"},
		"apply_all_p99_ms": {windowedP99(m.t.applyAt, m.t.applyAll, r.tailSpan()), "ms"},
		"tentative_p50_ms": {tent.P50, "ms"},
		"goodput_msgs_s":   {float64(m.t.ok) / r.dur.Seconds(), "msgs/s"},
		"capacity_msgs_s":  {capacityOf(steps), "msgs/s"},
		"failover_ms":      {median(failover), "ms"},
		"heap_peak_mb":     {m.heapMB, "MiB"},
	}
	return r.result(mt), nil
}

func (r *runner) result(mt map[string]metric) result {
	return result{Correct: len(r.violations) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: mt}
}

// traced runs the per-layer measurement: an untraced reference window
// (for the trace overhead and the consensus share of commit latency), an
// N=1 reference window, and the traced window with the layer wrappers.
func (r *runner) traced() (result, error) {
	ctx := context.Background()

	ref, _, err := r.cluster(ctx, r.w.N, nil)
	if err != nil {
		return result{}, err
	}
	mref, err := r.measure(ctx, ref, r.w.Origins, r.dur, nil)
	r.finish(ref)
	if err != nil {
		return result{}, err
	}

	solo, _, err := r.cluster(ctx, 1, nil)
	if err != nil {
		return result{}, err
	}
	msolo := r.measureSolo(ctx, solo, min(n1Window, r.dur))
	r.finish(solo)

	tr := newTracer(r.led)
	c, _, err := r.cluster(ctx, r.w.N, tr)
	if err != nil {
		return result{}, err
	}
	var lay layerCounters
	lay.read(c, 0)
	m, err := r.measure(ctx, c, r.w.Origins, r.dur, tr)
	if err != nil {
		c.close()
		return result{}, err
	}
	lay.read(c, 1)
	var cycles []crashOut
	if r.w.CrashInWindow {
		cycles = append(cycles, m.crash)
	}
	for len(cycles) < tracedCycles {
		out, _, err := r.probe(ctx, c)
		if err != nil {
			c.close()
			return result{}, err
		}
		cycles = append(cycles, out)
	}
	var startMs, catchupMs []float64
	for _, cy := range cycles {
		startMs = append(startMs, cy.startMs)
		catchupMs = append(catchupMs, ms(cy.caughtAt-cy.startAt))
	}
	p0 := c.stats(0)
	r.finish(c)
	path := filepath.Join(r.out, "traces", fmt.Sprintf("%s-seed%d.jsonl", r.w.Name, r.seed))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return result{}, err
	}
	if err := tr.write(path); err != nil {
		return result{}, err
	}
	r.details["trace_file"] = path
	r.details["trace_spans"] = len(tr.spans)
	r.details["trace_spans_dropped"] = tr.dropped

	mt := r.layerMetrics(m, &lay, tr)
	mt["abcast.start_ms"] = metric{median(startMs), "ms"}
	mt["abcast.catchup_ms"] = metric{median(catchupMs), "ms"}
	refCPU := mref.cpuS / float64(max(mref.t.ok, 1))
	cpu := m.cpuS / float64(max(m.t.ok, 1))
	mt["bench.trace_overhead_pct"] = metric{100 * (cpu - refCPU) / refCPU, "%"}
	mt["consensus.quorum_add_p50_ms"] = metric{median(mref.t.commit) - median(msolo.t.commit), "ms"}
	mt["abcast.state_adopted"] = metric{float64(p0.StateAdopted), "count"}
	mt["abcast.replayed_rounds"] = metric{float64(p0.ReplayedRounds), "count"}
	r.details["reference_commit_ms"] = summarize(mref.t.commit)
	r.details["n1_commit_ms"] = summarize(msolo.t.commit)
	return r.result(mt), nil
}

// measureSolo runs a window on an N=1 cluster: no crash cycle, origin p0.
func (r *runner) measureSolo(ctx context.Context, c *cluster, dur time.Duration) measured {
	var m measured
	m.win = r.drive(ctx, c, r.w.RatePerS, dur, []int{0}, r.w.Timeout, nil)
	m.t = r.timings(m.win, 1, nil)
	r.attempted += int(m.win.to - m.win.from)
	r.failed += m.t.failed
	return m
}

// layerCounters holds the public counters read before and after the
// traced window.
type layerCounters struct {
	groups, records [2]int64 // WAL group commits (one fsync each unless NoSync) and records
	mux             [2]muxCounters
	memDropped      [2]int64
}

type muxCounters struct{ tagged, coalesced, overrun int64 }

func (l *layerCounters) read(c *cluster, i int) {
	for _, w := range c.wals {
		l.groups[i] += w.GroupCount()
		l.records[i] += w.RecordCount()
	}
	if c.mux != nil {
		s := c.mux.Stats()
		l.mux[i] = muxCounters{s.Tagged, s.CoalescedFrames, s.DroppedOverrun}
	}
	if c.mem != nil {
		l.memDropped[i] = c.mem.Stats().Dropped
	}
}

// delta is b-a for a counter that resets when its process restarts.
func delta(a, b uint64) float64 {
	if b < a {
		return float64(b)
	}
	return float64(b - a)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics derives the per-layer metrics of a traced window.
func (r *runner) layerMetrics(m measured, lay *layerCounters, tr *tracer) map[string]metric {
	msgs := float64(max(m.t.ok, 1))
	secs := float64(m.win.end-m.win.start) / 1e9
	var sum struct {
		proposals, proposed, pipelined, full, timer, gossip, pulls, served, stalls float64
		rounds, maxRounds, maxEmpty                                                float64
	}
	for pid := range m.before {
		a, b := m.before[pid], m.after[pid]
		sum.proposals += delta(a.ProposalsSubmitted, b.ProposalsSubmitted)
		sum.proposed += delta(a.ProposedMessages, b.ProposedMessages)
		sum.pipelined += delta(a.PipelinedProposals, b.PipelinedProposals)
		sum.full += delta(a.BatchFullSeals, b.BatchFullSeals)
		sum.timer += delta(a.BatchTimerSeals, b.BatchTimerSeals)
		sum.gossip += delta(a.GossipSent, b.GossipSent)
		sum.pulls += delta(a.PullsSent, b.PullsSent)
		sum.served += delta(a.PullsServed, b.PullsServed)
		sum.stalls += delta(a.PayloadStalls, b.PayloadStalls)
		rounds := delta(a.Rounds, b.Rounds)
		sum.rounds += rounds
		if rounds > sum.maxRounds {
			sum.maxRounds, sum.maxEmpty = rounds, delta(a.EmptyRounds, b.EmptyRounds)
		}
	}
	tr.smu.Lock()
	defer tr.smu.Unlock()
	durable := summarize(tr.durableUs)
	ckpt := summarize(tr.ckptMs)
	wait := summarize(tr.mergeWait)
	late := summarize(m.win.lateMs)
	groups := float64(lay.groups[1] - lay.groups[0])
	records := float64(lay.records[1] - lay.records[0])
	r.details["storage_durable_us"] = durable
	r.details["checkpoint_ms"] = ckpt
	r.details["merge_wait_ms"] = wait
	return map[string]metric{
		"storage.ops_per_msg":           {float64(tr.storageOps.Load()) / msgs, "ops/msg"},
		"storage.bytes_per_msg":         {float64(tr.storageBytes.Load()) / msgs, "B/msg"},
		"storage.durable_p50_us":        {durable.P50, "us"},
		"storage.durable_p99_us":        {percentileOf(tr.durableUs, 99), "us"},
		"storage.group_commits_per_msg": {groups / msgs, "commits/msg"},
		"storage.records_per_group":     {ratio(records, groups), "records/commit"},
		"core.msgs_per_proposal":        {ratio(sum.proposed, sum.proposals), "msgs/proposal"},
		"core.full_seal_frac":           {ratio(sum.full, sum.full+sum.timer), "fraction"},
		"core.pipelined_frac":           {ratio(sum.pipelined, sum.proposals), "fraction"},
		"core.gossip_per_msg":           {sum.gossip / msgs, "frames/msg"},
		"core.pulls_per_msg":            {sum.pulls / msgs, "pulls/msg"},
		"consensus.rounds_per_s":        {sum.maxRounds / secs, "rounds/s"},
		"consensus.empty_round_frac":    {ratio(sum.maxEmpty, sum.maxRounds), "fraction"},
		"transport.frames_per_msg":      {float64(tr.sendFrames.Load()) / msgs, "frames/msg"},
		"transport.bytes_per_msg":       {float64(tr.sendBytes.Load()) / msgs, "B/msg"},
		"transport.send_us_per_msg":     {float64(tr.sendN.Load()) / 1e3 / msgs, "us/msg"},
		"transport.drops":               {float64(lay.memDropped[1] - lay.memDropped[0]), "count"},
		"dissem.payload_stalls_per_msg": {sum.stalls / msgs, "stalls/msg"},
		"dissem.pulls_per_msg":          {sum.served / msgs, "pulls/msg"},
		"group.merge_wait_p50_ms":       {wait.P50, "ms"},
		"group.merge_wait_p99_ms":       {percentileOf(tr.mergeWait, 99), "ms"},
		"group.coalesced_frame_frac":    {ratio(float64(lay.mux[1].coalesced-lay.mux[0].coalesced), float64(lay.mux[1].tagged-lay.mux[0].tagged)), "fraction"},
		"group.mux_overrun_drops":       {float64(lay.mux[1].overrun - lay.mux[0].overrun), "count"},
		"group.group_commits_per_round": {ratio(groups, sum.rounds), "commits/round"},
		"rsm.checkpoint_p50_ms":         {ckpt.P50, "ms"},
		"rsm.checkpoint_max_ms":         {ckpt.Max, "ms"},
		"rsm.checkpoint_bytes":          {median(tr.ckptBytes), "B"},
		"rsm.restore_ms":                {median(tr.restoreMs), "ms"},
		"rsm.apply_us_per_msg":          {float64(tr.applyNs.Load()) / 1e3 / float64(max(tr.applyN.Load(), 1)), "us/msg"},
		"bench.gen_late_p99_ms":         {percentileOf(m.win.lateMs, 99), "ms"},
		"bench.gen_late_max_ms":         {late.Max, "ms"},
		"bench.failed_frac":             {float64(m.t.failed) / float64(max(m.win.to-m.win.from, 1)), "fraction"},
		"runtime.cpu_util":              {m.cpuS / secs / float64(runtime.GOMAXPROCS(0)), "fraction"},
		"runtime.gc_pause_ms":           {m.gcPause, "ms"},
		"runtime.alloc_mb_per_kmsg":     {m.allocMB / msgs * 1000, "MiB/kmsg"},
	}
}
