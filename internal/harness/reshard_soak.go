package harness

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"repro/abcast"
	"repro/internal/check"
	"repro/internal/ids"
	"repro/internal/obs"
)

// ReshardSoakOptions configures one randomized live-resharding soak: a
// seeded schedule interleaves scale-outs (AddGroup), retirements
// (RetireGroup), whole-process crashes and recoveries, checkpoint folds
// and keyed broadcast bursts over an abcast.Sharded cluster, then drains
// and verifies that the moving group set never bent the Atomic Broadcast
// guarantees — per group, and across groups through the merged order.
type ReshardSoakOptions struct {
	// Seed drives the whole schedule (0 picks the default).
	Seed uint64
	// N is the process count (default 3). Process 0 never crashes: it
	// holds the run-long merge cursor whose output is diffed against the
	// batch merge at the end.
	N int
	// Groups is the starting group count (default 2).
	Groups int
	// Steps is the schedule length (default 30).
	Steps int
	// MaxGroups caps how many groups a run may ever mint (default 6).
	MaxGroups int
	// Stale is the merge-floor staleness cap (default 60s — longer than
	// any run, so a lagging recoverer must never be served a GC-forced
	// state transfer).
	Stale time.Duration
	// DrainTimeout bounds the final catch-up-and-verify phase (default 60s).
	DrainTimeout time.Duration
}

func (o *ReshardSoakOptions) fill() {
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.N <= 0 {
		o.N = 3
	}
	if o.Groups <= 0 {
		o.Groups = 2
	}
	if o.Steps <= 0 {
		o.Steps = 30
	}
	if o.MaxGroups <= o.Groups {
		o.MaxGroups = o.Groups + 4
	}
	if o.Stale <= 0 {
		o.Stale = 60 * time.Second
	}
	if o.DrainTimeout <= 0 {
		o.DrainTimeout = 60 * time.Second
	}
}

// ReshardSoakResult summarizes what one resharding soak exercised.
type ReshardSoakResult struct {
	Joins       int // groups minted live
	Retirements int // groups sealed and drained
	Crashes     int
	Recoveries  int
	Broadcasts  int // broadcast attempts that were admitted
	Delivered   int // distinct payloads the always-up process delivered
	Reaped      int // retired groups reclaimed by the floor-gated reap
	CursorLen   int // deliveries the run-long cursor streamed at p0
	GCForced    uint64
}

func (r ReshardSoakResult) String() string {
	return fmt.Sprintf("joins=%d retirements=%d crashes=%d recoveries=%d broadcasts=%d delivered=%d reaped=%d cursor=%d gc-forced=%d",
		r.Joins, r.Retirements, r.Crashes, r.Recoveries, r.Broadcasts, r.Delivered, r.Reaped, r.CursorLen, r.GCForced)
}

// reshardRecorders owns the per-group specification recorders of a
// resharding soak. Group sets are dynamic, so recorders are minted on
// first sight; marker payloads and identity-remapped orphans originate
// inside the protocol, so the first delivery sighting of an unknown id
// registers it as its own broadcast (position accounting — contiguity and
// the global bijection — is what carries Total Order and Integrity; the
// recorder's payload check still pins every process to identical bytes).
type reshardRecorders struct {
	mu     sync.Mutex
	n      int
	recs   map[ids.GroupID]*check.Recorder
	known  map[ids.GroupID]map[ids.MsgID]bool
	events map[ids.GroupID]map[ids.ProcessID]int // deliver+restore events recorded
	seen   []map[string]bool                     // per pid: payloads ever delivered to it
}

func newReshardRecorders(n int) *reshardRecorders {
	rr := &reshardRecorders{
		n:      n,
		recs:   make(map[ids.GroupID]*check.Recorder),
		known:  make(map[ids.GroupID]map[ids.MsgID]bool),
		events: make(map[ids.GroupID]map[ids.ProcessID]int),
		seen:   make([]map[string]bool, n),
	}
	for p := range rr.seen {
		rr.seen[p] = make(map[string]bool)
	}
	return rr
}

// rec returns group g's recorder, minting it on first sight. rr.mu held.
func (rr *reshardRecorders) rec(g ids.GroupID) *check.Recorder {
	r, ok := rr.recs[g]
	if !ok {
		r = check.NewRecorder(rr.n)
		rr.recs[g] = r
		rr.known[g] = make(map[ids.MsgID]bool)
		rr.events[g] = make(map[ids.ProcessID]int)
	}
	return r
}

func (rr *reshardRecorders) onDeliver(pid ids.ProcessID) func(abcast.Delivery) {
	return func(d abcast.Delivery) {
		rr.mu.Lock()
		r := rr.rec(d.Group)
		if !rr.known[d.Group][d.Msg.ID] {
			rr.known[d.Group][d.Msg.ID] = true
			r.RecordBroadcast(d.Msg.ID, d.Msg.Payload)
		}
		rr.events[d.Group][pid]++
		rr.seen[pid][string(d.Msg.Payload)] = true
		rr.mu.Unlock()
		r.OnDeliver(pid)(d)
	}
}

func (rr *reshardRecorders) onRestore(pid ids.ProcessID) func(abcast.GroupID, abcast.Snapshot) {
	return func(g abcast.GroupID, snap abcast.Snapshot) {
		rr.mu.Lock()
		r := rr.rec(g)
		rr.events[g][pid]++
		rr.mu.Unlock()
		r.OnRestore(pid)(snap)
	}
}

// startSessions opens one incarnation history per hosted group. With the
// empty-session reuse in check.Recorder this is restart-count-free: idle
// groups do not accumulate history objects (the leak assertion below).
func (rr *reshardRecorders) startSessions(pid ids.ProcessID, groups int) {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	for g := 0; g < groups; g++ {
		rr.rec(ids.GroupID(g)).StartSession(pid)
	}
}

// verify runs every group's specification check plus the recorder-leak
// growth bound: sessions partition recorded events, so a recorder may
// retain at most one session more than the events it recorded for a pid.
func (rr *reshardRecorders) verify() error {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	for g, r := range rr.recs {
		if err := r.Verify(); err != nil {
			return fmt.Errorf("group %v: %w", g, err)
		}
		for p := 0; p < rr.n; p++ {
			pid := ids.ProcessID(p)
			if s, e := r.Sessions(pid), rr.events[g][pid]; s > e+1 {
				return fmt.Errorf("group %v: recorder leak: p%d retains %d sessions for %d events", g, p, s, e)
			}
		}
	}
	return nil
}

// delivered reports whether pid has ever delivered payload (in any group,
// under any identity — orphan re-injection remaps ids but not bytes).
func (rr *reshardRecorders) delivered(pid ids.ProcessID, payload string) bool {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	return rr.seen[pid][payload]
}

func (rr *reshardRecorders) deliveredCount(pid ids.ProcessID) int {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	return len(rr.seen[pid])
}

// foldCount is the trivial application checkpointer of the soak: state is
// a message count, so folds are cheap and restores are content-free.
type foldCount struct{}

func (foldCount) Checkpoint(prev []byte, delivered []abcast.Message) []byte {
	var n uint64
	if len(prev) == 8 {
		n = binary.BigEndian.Uint64(prev)
	}
	n += uint64(len(delivered))
	out := make([]byte, 8)
	binary.BigEndian.PutUint64(out, n)
	return out
}

func (foldCount) Restore([]byte) {}

// RunReshardSoak executes one randomized live-resharding soak and returns
// the verification error, if any. The run is a pure function of Seed
// (plus goroutine interleavings).
//
// Verified at the end, after every process recovers and the cluster
// drains:
//
//   - every group's history satisfies the Atomic Broadcast specification
//     (position contiguity + the global position/message bijection =
//     Integrity and Total Order; byte-identical payloads everywhere);
//   - every admitted broadcast is delivered by every process, across
//     however many retirements re-injected it (Termination);
//   - the merged orders of all processes agree across every epoch splice,
//     and the run-long streaming cursor at the never-crashed process is
//     byte-identical to what batch Merged reconstructs;
//   - no process ever served a GC-forced state transfer: the gossiped
//     cluster floor kept checkpoint folds behind the slowest recoverer
//     (the staleness cap exceeds the run length, so laggards always
//     gate);
//   - the observability conservation laws, including the reshard-event
//     edge-detection laws, hold on every process's plane.
func RunReshardSoak(opts ReshardSoakOptions) (ReshardSoakResult, error) {
	opts.fill()
	var res ReshardSoakResult
	rng := rand.New(rand.NewSource(int64(opts.Seed)))

	net := abcast.NewMemNetwork(opts.N, abcast.MemNetOptions{Seed: opts.Seed})
	defer net.Close()
	snet := abcast.NewShardedNetwork(net, opts.Groups)
	stores := make([]abcast.Storage, opts.N)
	planes := make([]*obs.Plane, opts.N)
	for p := 0; p < opts.N; p++ {
		stores[p] = abcast.NewMemStorage()
		planes[p] = obs.New(obs.Options{PID: ids.ProcessID(p)})
	}
	rr := newReshardRecorders(opts.N)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	procs := make([]*abcast.Sharded, opts.N)
	build := func(p int) error {
		pid := ids.ProcessID(p)
		s, err := abcast.NewSharded(abcast.ShardedConfig{
			PID: pid, N: opts.N,
			Protocol: abcast.ProtocolOptions{
				PipelineDepth:   2,
				IdleHeartbeat:   2 * time.Millisecond,
				CheckpointEvery: 8,
				Checkpointer:    foldCount{},
				// Δ-triggered state transfer is the ordinary catch-up
				// lane for recoverers; the cluster floor only has to
				// eliminate the GC-FORCED kind.
				Delta: 8,
			},
			MergedDelivery:      true,
			MergeFloorStaleness: opts.Stale,
			Obs:                 planes[p],
			OnDeliver:           rr.onDeliver(pid),
			OnRestore:           rr.onRestore(pid),
		}, stores[p], snet)
		if err != nil {
			return err
		}
		procs[p] = s
		// Sessions open BEFORE Start: replay calls OnRestore/OnDeliver, and
		// those must land in this incarnation's history, not the crashed
		// one's.
		rr.startSessions(pid, s.Groups())
		if err := s.Start(ctx); err != nil {
			return err
		}
		return nil
	}
	for p := 0; p < opts.N; p++ {
		if err := build(p); err != nil {
			return res, fmt.Errorf("reshard soak seed=%d: start p%d: %w", opts.Seed, p, err)
		}
	}
	defer func() {
		for _, s := range procs {
			if s != nil {
				s.Crash()
			}
		}
	}()

	// The run-long streaming consumer: subscribed before any fault or
	// reshard, diffed against the batch merge at the end. It lives on p0,
	// which the schedule never crashes.
	cursor, err := procs[0].MergeCursor()
	if err != nil {
		return res, fmt.Errorf("reshard soak seed=%d: cursor: %w", opts.Seed, err)
	}
	defer cursor.Close()

	// Shadow bookkeeping the schedule steers by.
	down := -1                            // crashed pid (at most one; never 0)
	retired := make(map[ids.GroupID]bool) // groups sealed by this run
	admitted := make(map[string]bool)     // payloads owed delivery everywhere
	minted := opts.Groups

	upProcs := func() []int {
		var up []int
		for p := 0; p < opts.N; p++ {
			if p != down {
				up = append(up, p)
			}
		}
		return up
	}
	activeGroups := func() []ids.GroupID {
		var a []ids.GroupID
		for _, g := range procs[0].ActiveGroups() {
			if !retired[g] {
				a = append(a, g)
			}
		}
		return a
	}
	broadcast := func(step int) {
		for j := 0; j < 4; j++ {
			up := upProcs()
			p := up[rng.Intn(len(up))]
			key := fmt.Sprintf("k-%d-%d-%d", opts.Seed, step, j)
			payload := []byte(fmt.Sprintf("m-%d-%d-%d", opts.Seed, step, j))
			bctx, bcancel := context.WithTimeout(ctx, 10*time.Second)
			_, _, err := procs[p].Broadcast(bctx, []byte(key), payload)
			bcancel()
			if err == nil {
				admitted[string(payload)] = true
				res.Broadcasts++
			}
		}
	}
	checkpointAll := func() {
		for _, p := range upProcs() {
			_ = procs[p].CheckpointNow() // a group may be mid-boot after a splice; best-effort
		}
	}
	recoverProc := func() error {
		if down < 0 {
			return nil
		}
		p := down
		down = -1
		if err := build(p); err != nil {
			return fmt.Errorf("recover p%d: %w", p, err)
		}
		res.Recoveries++
		// Re-run the idempotent retirement tail on the recovered process:
		// its incarnation may hold orphans of a group the cluster drained
		// while it was down, and only a local RetireGroup re-injects them.
		// A group the floor-gated reap already reclaimed has no orphans by
		// construction (every consumer passed its final round).
		for g := range retired {
			rctx, rcancel := context.WithTimeout(ctx, 30*time.Second)
			// The recovered process may still be resynchronizing its
			// topology from the floor gossip; retiring before it knows
			// the group would bounce off "not in the topology".
			if err := awaitKnown(rctx, procs[p], g); err != nil {
				rcancel()
				return fmt.Errorf("recovered p%d never learned %v: %w", p, g, err)
			}
			err := procs[p].RetireGroup(rctx, g)
			rcancel()
			if err != nil && !strings.Contains(err.Error(), "reaped") {
				detail := ""
				for q := 0; q < opts.N; q++ {
					if procs[q] != nil {
						detail += fmt.Sprintf(" p%d{k=%d active=%v epoch=%d}", q, procs[q].Round(g), procs[q].ActiveGroups(), procs[q].Epoch())
					}
				}
				return fmt.Errorf("re-retire %v at recovered p%d: %w:%s", g, p, err, detail)
			}
		}
		return nil
	}

	// The deterministic lagging-recoverer phase sits mid-schedule: crash a
	// process, fold checkpoints on the survivors for several steps, then
	// recover it. With the staleness cap far beyond the run length, the
	// gossiped floor must have held every fold behind the laggard — the
	// GCForced == 0 assertion at the end is this phase's teeth.
	lagStart := opts.Steps / 3

	for step := 0; step < opts.Steps; step++ {
		if step == lagStart {
			if err := recoverProc(); err != nil {
				return res, fmt.Errorf("reshard soak seed=%d: %w", opts.Seed, err)
			}
			down = 1 + rng.Intn(opts.N-1)
			procs[down].Crash()
			res.Crashes++
			broadcast(step)
			checkpointAll()
			continue
		}
		if step == lagStart+3 {
			if err := recoverProc(); err != nil {
				return res, fmt.Errorf("reshard soak seed=%d: %w", opts.Seed, err)
			}
		}

		switch pick := rng.Intn(10); {
		case pick < 4:
			broadcast(step)
		case pick < 5: // crash (never p0, at most one down, not during the lag phase)
			if down < 0 && (step < lagStart || step > lagStart+3) {
				down = 1 + rng.Intn(opts.N-1)
				procs[down].Crash()
				res.Crashes++
			} else {
				broadcast(step)
			}
		case pick < 6:
			if err := recoverProc(); err != nil {
				return res, fmt.Errorf("reshard soak seed=%d: %w", opts.Seed, err)
			}
		case pick < 8: // scale-out
			if minted >= opts.MaxGroups {
				broadcast(step)
				break
			}
			caller := upProcs()[rng.Intn(len(upProcs()))]
			actx, acancel := context.WithTimeout(ctx, 30*time.Second)
			gid, err := procs[caller].AddGroup(actx)
			acancel()
			if err != nil {
				return res, fmt.Errorf("reshard soak seed=%d step=%d: AddGroup at p%d: %w", opts.Seed, step, caller, err)
			}
			minted++
			res.Joins++
			// Wait for every up process to splice the group in before the
			// schedule moves on (the next op may retire it).
			wctx, wcancel := context.WithTimeout(ctx, 30*time.Second)
			err = awaitSpliced(wctx, procs, upProcs(), gid)
			wcancel()
			if err != nil {
				return res, fmt.Errorf("reshard soak seed=%d step=%d: splice of %v: %w", opts.Seed, step, gid, err)
			}
		case pick < 9: // retire
			active := activeGroups()
			if len(active) < 2 {
				broadcast(step)
				break
			}
			g := active[rng.Intn(len(active))]
			// Feed the group a last burst on the async path so the drain
			// has orphan candidates to re-inject.
			for j := 0; j < 3; j++ {
				payload := []byte(fmt.Sprintf("o-%d-%d-%d", opts.Seed, step, j))
				if _, err := procs[upProcs()[j%len(upProcs())]].BroadcastToAsync(g, payload); err == nil {
					admitted[string(payload)] = true
					res.Broadcasts++
				}
			}
			for _, p := range upProcs() {
				rctx, rcancel := context.WithTimeout(ctx, 30*time.Second)
				// A process that recovered after the join learns the group
				// from the floor gossip's topology descriptor — wait for
				// that splice (and its node boot) before asking it to
				// retire.
				if err := awaitKnown(rctx, procs[p], g); err != nil {
					rcancel()
					return res, fmt.Errorf("reshard soak seed=%d step=%d: p%d never learned %v: %w", opts.Seed, step, p, g, err)
				}
				err := procs[p].RetireGroup(rctx, g)
				rcancel()
				if err != nil && !strings.Contains(err.Error(), "reaped") {
					detail := ""
					for q := 0; q < opts.N; q++ {
						if procs[q] != nil {
							detail += fmt.Sprintf(" p%d{groups=%d active=%v epoch=%d k=%d}", q, procs[q].Groups(), procs[q].ActiveGroups(), procs[q].Epoch(), procs[q].Round(g))
						}
					}
					return res, fmt.Errorf("reshard soak seed=%d step=%d: RetireGroup(%v) at p%d: %w:%s", opts.Seed, step, g, p, err, detail)
				}
			}
			retired[g] = true
			res.Retirements++
		default:
			checkpointAll()
		}
	}

	// Drain: everyone up, every admitted payload delivered everywhere.
	if err := recoverProc(); err != nil {
		return res, fmt.Errorf("reshard soak seed=%d: %w", opts.Seed, err)
	}
	drainCtx, drainCancel := context.WithTimeout(ctx, opts.DrainTimeout)
	defer drainCancel()
	for {
		missing := ""
		for p := 0; p < opts.N; p++ {
			for payload := range admitted {
				if !rr.delivered(ids.ProcessID(p), payload) {
					missing = fmt.Sprintf("p%d missing %q", p, payload)
					break
				}
			}
		}
		if missing == "" {
			break
		}
		select {
		case <-drainCtx.Done():
			return res, fmt.Errorf("reshard soak seed=%d: termination: %s", opts.Seed, missing)
		case <-time.After(2 * time.Millisecond):
		}
	}
	res.Delivered = rr.deliveredCount(0)

	// Per-group specification + recorder-leak growth bound.
	if err := rr.verify(); err != nil {
		return res, fmt.Errorf("reshard soak seed=%d: %w", opts.Seed, err)
	}

	// Cross-group: merged orders agree across every epoch splice, and the
	// run-long cursor streamed exactly the batch interleave. Frontiers
	// converge asynchronously, so poll under the drain deadline.
	var streamed []abcast.Delivery
	for {
		err := func() error {
			if err := verifyMergedAgreement(procs); err != nil {
				return err
			}
			streamed, err = cursor.Next(streamed)
			if err != nil {
				return fmt.Errorf("cursor: %w", err)
			}
			return verifyCursorMatchesBatch(procs[0], streamed)
		}()
		if err == nil {
			break
		}
		select {
		case <-drainCtx.Done():
			return res, fmt.Errorf("reshard soak seed=%d: merge verification: %w", opts.Seed, err)
		case <-time.After(2 * time.Millisecond):
		}
	}
	res.CursorLen = len(streamed)

	// The cluster-wide GC floor held every fold behind the lagging
	// recoverer: nobody was ever forced into a state transfer by GC.
	for p := 0; p < opts.N; p++ {
		res.GCForced += procs[p].Stats().Total.StateSentGCForced
	}
	if res.GCForced != 0 {
		detail := ""
		for p := 0; p < opts.N; p++ {
			for _, e := range planes[p].Flight().Dump() {
				if e.Kind == obs.EvStateSent && e.Note == "peer below gc floor" {
					detail += fmt.Sprintf(" [p%d g%v k=%d to=p%d kq=%d]", p, e.Group, e.Round, e.A, e.B)
				}
			}
		}
		return res, fmt.Errorf("reshard soak seed=%d: %d GC-forced state transfers despite the staleness cap:%s", opts.Seed, res.GCForced, detail)
	}

	// Give the floor-gated reap one chance to fire (not asserted: remote
	// floors may legitimately still lag the final rounds).
	for p := 0; p < opts.N; p++ {
		res.Reaped += procs[p].ReapRetired()
	}

	if err := verifyObsInvariants(planes); err != nil {
		return res, fmt.Errorf("reshard soak seed=%d: %w", opts.Seed, err)
	}
	return res, nil
}

// awaitSpliced waits until every up process's topology includes g AND its
// auto-spliced member node is up (a retire that races the splice would
// seal a group whose member is still calling Start).
func awaitSpliced(ctx context.Context, procs []*abcast.Sharded, up []int, g ids.GroupID) error {
	for {
		all := true
		for _, p := range up {
			found := false
			for _, a := range procs[p].ActiveGroups() {
				if a == g {
					found = true
				}
			}
			if !found || procs[p].Groups() <= int(g) || !procs[p].Up() {
				all = false
			}
		}
		if all {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}

// awaitKnown waits until one process's TOPOLOGY knows g (node-set size is
// not enough: the shared network grows it early), its node set covers g,
// and every node it hosts is up (the floor gossip's descriptor splices
// late groups in).
func awaitKnown(ctx context.Context, p *abcast.Sharded, g ids.GroupID) error {
	for {
		if p.InTopology(g) && p.Groups() > int(g) && p.Up() {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}

// verifyMergedAgreement checks that all processes' merged orders agree on
// the global rounds they share (folds differ per process, so each pair is
// compared above both fold horizons).
func verifyMergedAgreement(procs []*abcast.Sharded) error {
	type view struct {
		seq  []abcast.Delivery
		from uint64
	}
	views := make([]view, len(procs))
	for p, s := range procs {
		m, from, _, ok := s.Merged()
		if !ok {
			return fmt.Errorf("merge unavailable at p%d", p)
		}
		views[p] = view{m, from}
	}
	for i := 0; i < len(views); i++ {
		for j := i + 1; j < len(views); j++ {
			f := views[i].from
			if views[j].from > f {
				f = views[j].from
			}
			a := trimBelow(views[i].seq, f)
			b := trimBelow(views[j].seq, f)
			n := len(a)
			if len(b) < n {
				n = len(b)
			}
			for k := 0; k < n; k++ {
				if a[k].Group != b[k].Group || a[k].Msg.ID != b[k].Msg.ID || a[k].Round != b[k].Round {
					return fmt.Errorf("merged orders disagree at shared round %d: p%d=%v/%v p%d=%v/%v",
						a[k].Round, i, a[k].Group, a[k].Msg.ID, j, b[k].Group, b[k].Msg.ID)
				}
			}
		}
	}
	return nil
}

func trimBelow(seq []abcast.Delivery, round uint64) []abcast.Delivery {
	for i, d := range seq {
		if d.Round >= round {
			return seq[i:]
		}
	}
	return nil
}

// verifyCursorMatchesBatch diffs the run-long cursor's stream against the
// batch merge at its process: above the fold horizon they must be
// byte-identical, and the cursor must additionally hold the pre-fold
// prefix the batch can no longer reconstruct.
func verifyCursorMatchesBatch(s *abcast.Sharded, streamed []abcast.Delivery) error {
	batch, from, _, ok := s.Merged()
	if !ok {
		return fmt.Errorf("batch merge unavailable")
	}
	aligned := trimBelow(streamed, from)
	if len(aligned) != len(batch) {
		return fmt.Errorf("cursor covers %d deliveries above round %d, batch %d", len(aligned), from, len(batch))
	}
	for i := range batch {
		if aligned[i].Group != batch[i].Group || aligned[i].Msg.ID != batch[i].Msg.ID ||
			aligned[i].Pos != batch[i].Pos || aligned[i].Round != batch[i].Round {
			return fmt.Errorf("cursor and batch merge disagree at %d: %+v vs %+v", i, aligned[i], batch[i])
		}
	}
	return nil
}
