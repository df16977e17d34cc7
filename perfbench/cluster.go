package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/abcast"
	"repro/internal/storage"
	"repro/internal/transport"
)

// Request event names, per process.
var (
	deliverEvent = [maxN]string{"deliver@0", "deliver@1", "deliver@2"}
	mergedEvent  = [maxN]string{"merged@0", "merged@1", "merged@2"}
)

// unseen marks a position of a replica's log it never delivered.
const unseen = -2

// replica is the benchmark's view of one process: its KV application and
// the log of what it delivered, kept for the correctness gate. The KV is one
// KVStore per ordering group: the hash router partitions the keys, so
// together they are the process's key-value state, and each one is exactly
// its group's checkpointed state.
type replica struct {
	mu     sync.Mutex
	kvs    []*abcast.KVStore // per group
	next   []uint64          // per group: the position the next delivery must carry
	log    [][]int64         // per group: payload index delivered at each position
	merged []int64           // merge-stream order (sharded)

	catch    []uint64 // per-group positions a restarted replica must reach
	caughtAt int64    // ledger time it reached them
}

// record notes idx delivered at pos of group g and reports a conflicting
// earlier delivery at the same position. r.mu held.
func (r *replica) record(g int, pos uint64, idx int64) (prev int64, conflict bool) {
	l := r.log[g]
	for uint64(len(l)) <= pos {
		l = append(l, unseen)
	}
	r.log[g] = l
	prev = l[pos]
	l[pos] = idx
	return prev, prev != unseen && prev != idx
}

// checkCatch stamps the catch-up time once every group reached its
// target. r.mu held.
func (r *replica) checkCatch(now int64) {
	if r.catch == nil {
		return
	}
	for g, t := range r.catch {
		if r.next[g] < t {
			return
		}
	}
	r.catch = nil
	r.caughtAt = now
}

// cluster is one in-process deployment of a workload: N processes, each
// with its own WAL directory, over one network.
type cluster struct {
	id  int32
	w   *workload
	n   int
	led *ledger
	tr  *tracer // nil in an untraced run
	dir string

	mem    *transport.Mem
	mux    *abcast.ShardedNetwork
	wals   []*storage.WAL
	procs  []*abcast.Process
	shs    []*abcast.Sharded
	reps   []*replica
	pushes []*abcast.MergePush
	pushWG sync.WaitGroup

	violMu sync.Mutex
	viol   []string
}

func (c *cluster) violation(format string, args ...any) {
	c.violMu.Lock()
	defer c.violMu.Unlock()
	if len(c.viol) < 20 {
		c.viol = append(c.viol, fmt.Sprintf(format, args...))
	}
}

// groups is the number of ordering groups (1 for a single Process).
func (c *cluster) groups() int { return max(c.w.Groups, 1) }

// reservePorts picks n free loopback ports for one cluster, so that
// back-to-back runs never reuse a port still in TIME_WAIT.
func reservePorts(n int) ([]string, error) {
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	defer func() {
		for _, ln := range lns {
			if ln != nil {
				ln.Close()
			}
		}
	}()
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	return addrs, nil
}

// newCluster builds (but does not start) a cluster of n processes.
func newCluster(id int32, w *workload, n int, seed uint64, dir string, led *ledger, tr *tracer) (*cluster, error) {
	c := &cluster{id: id, w: w, n: n, led: led, tr: tr, dir: dir}
	var base abcast.Network
	if w.Transport == "tcp" {
		addrs, err := reservePorts(n)
		if err != nil {
			return nil, err
		}
		base = abcast.NewTCPNetwork(addrs)
	} else {
		c.mem = abcast.NewMemNetwork(n, abcast.MemNetOptions{MinDelay: w.MemDelayMin, MaxDelay: w.MemDelayMax, Seed: seed})
		base = c.mem
	}
	nw := base
	if tr != nil {
		nw = &tracedNet{inner: base, tr: tr}
	}
	if w.Groups > 0 {
		c.mux = abcast.NewShardedNetworkOpts(nw, w.Groups, abcast.ShardedNetOptions{FlushDelay: w.FlushDelay})
	}
	for pid := 0; pid < n; pid++ {
		if err := c.addProcess(pid, nw); err != nil {
			c.close()
			return nil, err
		}
	}
	return c, nil
}

func (c *cluster) addProcess(pid int, nw abcast.Network) error {
	wal, err := abcast.NewWALStorage(filepath.Join(c.dir, fmt.Sprintf("p%d", pid)), abcast.WALOptions{NoSync: c.w.WALNoSync})
	if err != nil {
		return err
	}
	c.wals = append(c.wals, wal)
	var st abcast.Storage = wal
	var ck abcast.Checkpointer = abcast.NewKVStore()
	if c.tr != nil {
		st = &tracedStore{wal: wal, pid: pid, tr: c.tr}
		ck = &tracedCkpt{inner: ck, pid: pid, tr: c.tr}
	}
	g := c.groups()
	r := &replica{kvs: newKVs(g), next: make([]uint64, g), log: make([][]int64, g)}
	c.reps = append(c.reps, r)
	proto := c.w.protocol(ck)
	onDeliver := func(d abcast.Delivery) { c.onDeliver(pid, d) }
	onTentative := func(d abcast.Delivery) { c.onTentative(pid, d) }
	if c.w.Groups == 0 {
		p, err := abcast.NewProcess(abcast.Config{
			PID: abcast.ProcessID(pid), N: c.n, Protocol: proto, Policy: abcast.PolicyLeader,
			OnDeliver:   onDeliver,
			OnRestore:   func(s abcast.Snapshot) { c.onRestore(pid, 0, s) },
			OnTentative: onTentative,
		}, st, nw)
		if err != nil {
			return err
		}
		c.procs = append(c.procs, p)
		return nil
	}
	s, err := abcast.NewSharded(abcast.ShardedConfig{
		PID: abcast.ProcessID(pid), N: c.n, Protocol: proto, Policy: abcast.PolicyLeader,
		MergedDelivery: true,
		OnDeliver:      onDeliver,
		OnRestore:      func(g abcast.GroupID, s abcast.Snapshot) { c.onRestore(pid, int(g), s) },
		OnTentative:    onTentative,
	}, st, c.mux)
	if err != nil {
		return err
	}
	c.shs = append(c.shs, s)
	c.pushes = append(c.pushes, nil)
	return nil
}

// request returns the ledger record of a delivered payload, reporting a
// payload the benchmark never issued.
func (c *cluster) request(pid int, payload []byte) (int64, *req) {
	idx := payloadIndex(payload)
	q := c.led.at(idx)
	if q == nil {
		c.violation("p%d delivered a payload the benchmark never issued", pid)
	}
	return idx, q
}

func (c *cluster) onDeliver(pid int, d abcast.Delivery) {
	now := c.led.now()
	idx, q := c.request(pid, d.Msg.Payload)
	r := c.reps[pid]
	g := int(d.Group)
	r.mu.Lock()
	if d.Pos != r.next[g] {
		c.violation("p%d g%d delivered position %d, expected %d", pid, g, d.Pos, r.next[g])
	}
	r.next[g] = d.Pos + 1
	if prev, bad := r.record(g, d.Pos, idx); bad {
		c.violation("p%d g%d position %d: request %d, earlier %d", pid, g, d.Pos, idx, prev)
	}
	r.checkCatch(now)
	kv := r.kvs[g]
	r.mu.Unlock()
	if q == nil {
		return
	}
	first(&q.deliv[pid], now)
	c.tr.event(deliverEvent[pid], pid, idx, now)
	if c.tr != nil {
		t0 := time.Now()
		kv.Apply(d)
		c.tr.apply(int64(time.Since(t0)))
	} else {
		kv.Apply(d)
	}
	first(&q.applied[pid], c.led.now())
}

func (c *cluster) onTentative(pid int, d abcast.Delivery) {
	now := c.led.now()
	idx, q := c.request(pid, d.Msg.Payload)
	if q == nil {
		return
	}
	first(&q.tent, now)
	c.tr.event("tentative", pid, idx, now)
}

func (c *cluster) onRestore(pid, g int, s abcast.Snapshot) {
	r := c.reps[pid]
	r.mu.Lock()
	r.next[g] = s.Pos
	r.checkCatch(c.led.now())
	kv := r.kvs[g]
	r.mu.Unlock()
	start := c.led.now()
	kv.Restore(s.App)
	if c.tr != nil && len(s.App) > 0 {
		c.tr.restore(pid, start, c.led.now())
	}
}

// consumeMerged records p's merge stream for the gate and, traced, the
// wait between a message's delivery and its merge-stream emission.
func (c *cluster) consumeMerged(pid int, push *abcast.MergePush) {
	defer c.pushWG.Done()
	r := c.reps[pid]
	for d := range push.C() {
		now := c.led.now()
		idx, q := c.request(pid, d.Msg.Payload)
		r.mu.Lock()
		r.merged = append(r.merged, idx)
		r.mu.Unlock()
		if q != nil && c.tr != nil {
			c.tr.event(mergedEvent[pid], pid, idx, now)
			if dv := q.deliv[pid].Load(); dv != 0 && c.tr.recording.Load() {
				c.tr.sample(&c.tr.mergeWait, ms(now-dv))
			}
		}
	}
	if err := push.Err(); err != nil {
		c.violation("p%d merge stream ended: %v", pid, err)
	}
}

// start boots every process.
func (c *cluster) start(ctx context.Context) error {
	for pid := 0; pid < c.n; pid++ {
		if err := c.startOne(ctx, pid); err != nil {
			return err
		}
	}
	return nil
}

func (c *cluster) startOne(ctx context.Context, pid int) error {
	start := c.led.now()
	var err error
	if c.procs != nil {
		err = c.procs[pid].Start(ctx)
	} else {
		err = c.shs[pid].Start(ctx)
	}
	if c.tr != nil {
		c.tr.start(pid, start, c.led.now())
	}
	if err != nil {
		return fmt.Errorf("start p%d: %w", pid, err)
	}
	if c.shs != nil && c.pushes[pid] == nil {
		// The merge stream outlives incarnations: subscribe once, after
		// the first Start (a subscription needs every group up).
		// The buffer covers about a second of the workload's merged
		// deliveries, so the recording consumer never backpressures the
		// merge.
		push, err := c.shs[pid].MergeChan(4096)
		if err != nil {
			return err
		}
		c.pushes[pid] = push
		c.pushWG.Add(1)
		go c.consumeMerged(pid, push)
	}
	return nil
}

// crash kills process pid; its replica loses its volatile state.
func (c *cluster) crash(pid int) {
	if c.procs != nil {
		c.procs[pid].Crash()
	} else {
		c.shs[pid].Crash()
	}
	r := c.reps[pid]
	r.mu.Lock()
	defer r.mu.Unlock()
	for g := range r.next {
		r.next[g] = 0
	}
	r.kvs = newKVs(len(r.kvs))
}

func newKVs(groups int) []*abcast.KVStore {
	kvs := make([]*abcast.KVStore, groups)
	for g := range kvs {
		kvs[g] = abcast.NewKVStore()
	}
	return kvs
}

// positions returns, per group, the highest next position over the
// processes other than skip.
func (c *cluster) positions(skip int) []uint64 {
	out := make([]uint64, c.groups())
	for pid, r := range c.reps {
		if pid == skip {
			continue
		}
		r.mu.Lock()
		for g, p := range r.next {
			out[g] = max(out[g], p)
		}
		r.mu.Unlock()
	}
	return out
}

// restart recovers pid and arms its catch-up target: the survivors'
// positions now. It returns the ledger time Start was called.
func (c *cluster) restart(ctx context.Context, pid int) (int64, error) {
	target := c.positions(pid)
	r := c.reps[pid]
	r.mu.Lock()
	r.catch = target
	r.caughtAt = 0
	r.mu.Unlock()
	at := c.led.now()
	if err := c.startOne(ctx, pid); err != nil {
		return at, err
	}
	r.mu.Lock()
	r.checkCatch(c.led.now())
	r.mu.Unlock()
	return at, nil
}

// caughtUp returns the ledger time pid reached its catch-up target, or 0.
func (c *cluster) caughtUp(pid int) int64 {
	r := c.reps[pid]
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.caughtAt
}

func (c *cluster) broadcast(ctx context.Context, pid int, key string, payload []byte) error {
	if c.procs != nil {
		_, err := c.procs[pid].Broadcast(ctx, payload)
		return err
	}
	_, _, err := c.shs[pid].Broadcast(ctx, []byte(key), payload)
	return err
}

// stats returns pid's protocol counters summed over its groups.
func (c *cluster) stats(pid int) abcast.Stats {
	if c.procs != nil {
		return c.procs[pid].Stats()
	}
	return c.shs[pid].Stats().Total
}

// close stops every process and goroutine of the cluster and removes its
// WAL directories.
func (c *cluster) close() {
	for pid := range c.procs {
		c.procs[pid].Crash()
	}
	for pid := range c.shs {
		c.shs[pid].Crash()
	}
	for _, p := range c.pushes {
		if p != nil {
			p.Close()
		}
	}
	c.pushWG.Wait()
	if c.mem != nil {
		c.mem.Close()
	}
	for _, w := range c.wals {
		w.Close()
	}
	os.RemoveAll(c.dir)
}

// settle waits until the cluster is quiet and converged: every replica at
// the same position of every group, the same merge-stream length, and the
// same KV fingerprint. The merge stream may stop short of the groups'
// positions: it only extends to the round every group has committed.
func (c *cluster) settle(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		pos := c.positions(-1)
		same := true
		merged := -1
		for _, r := range c.reps {
			r.mu.Lock()
			for g, p := range r.next {
				same = same && p == pos[g]
			}
			if merged >= 0 && len(r.merged) != merged {
				same = false
			}
			merged = len(r.merged)
			r.mu.Unlock()
		}
		if same {
			fp0 := c.reps[0].fingerprint()
			same = true
			for _, r := range c.reps[1:] {
				same = same && r.fingerprint() == fp0
			}
			if same {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replicas did not converge within %v (positions %v)", timeout, c.describe())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func (r *replica) fingerprint() string {
	r.mu.Lock()
	kvs := r.kvs
	r.mu.Unlock()
	fp := ""
	for _, kv := range kvs {
		fp += kv.Fingerprint()
	}
	return fp
}

func (c *cluster) describe() string {
	s := ""
	for pid, r := range c.reps {
		r.mu.Lock()
		s += fmt.Sprintf(" p%d=%v/%d", pid, r.next, len(r.merged))
		r.mu.Unlock()
	}
	return s
}

// verify is the correctness gate, run after settle: it returns every
// violation seen during the run plus those found in the replicas' logs.
//   - Replicas agree on the request at every position of every group, and
//     (sharded) on the merge stream.
//   - No request is delivered at two positions.
//   - Every acknowledged broadcast is at a position every replica reached.
func (c *cluster) verify() []string {
	type at struct {
		g   int
		pos uint64
	}
	logs := make([][][]int64, c.n)
	merged := make([][]int64, c.n)
	next := make([][]uint64, c.n)
	for pid, r := range c.reps {
		r.mu.Lock()
		for _, l := range r.log {
			logs[pid] = append(logs[pid], append([]int64(nil), l...))
		}
		merged[pid] = append([]int64(nil), r.merged...)
		next[pid] = append([]uint64(nil), r.next...)
		r.mu.Unlock()
	}
	where := make(map[int64]at)
	for g := 0; g < c.groups(); g++ {
		var length int
		for pid := range logs {
			length = max(length, len(logs[pid][g]))
		}
		for pos := 0; pos < length; pos++ {
			agreed := int64(unseen)
			for pid := range logs {
				l := logs[pid][g]
				if pos >= len(l) || l[pos] == unseen {
					continue
				}
				v := l[pos]
				if agreed == unseen {
					agreed = v
				} else if v != agreed {
					c.violation("g%d position %d: p%d has request %d, others %d", g, pos, pid, v, agreed)
				}
			}
			if agreed == unseen {
				continue
			}
			if prev, dup := where[agreed]; dup {
				c.violation("request %d delivered at g%d/%d and g%d/%d", agreed, prev.g, prev.pos, g, pos)
			}
			where[agreed] = at{g, uint64(pos)}
		}
	}
	if c.w.Groups > 0 {
		for pid := 1; pid < c.n; pid++ {
			for i := 0; i < min(len(merged[0]), len(merged[pid])); i++ {
				if merged[0][i] != merged[pid][i] {
					c.violation("merge streams of p0 and p%d differ at %d", pid, i)
					break
				}
			}
		}
	}
	missing := 0
	for i := int64(0); i < c.led.n.Load(); i++ {
		q := c.led.at(i)
		if q.cluster != c.id || q.status.Load() != stOK {
			continue
		}
		a, ok := where[i]
		if !ok {
			missing++
			continue
		}
		for pid := range next {
			if next[pid][a.g] <= a.pos {
				c.violation("acknowledged request %d (g%d/%d) not delivered at p%d", i, a.g, a.pos, pid)
			}
		}
	}
	if missing > 0 {
		c.violation("%d acknowledged requests delivered nowhere", missing)
	}
	c.violMu.Lock()
	defer c.violMu.Unlock()
	out := append([]string(nil), c.viol...)
	sort.Strings(out)
	return out
}
