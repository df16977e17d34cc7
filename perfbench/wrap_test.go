package main

import (
	"context"
	"testing"
	"time"

	"repro/abcast"
	"repro/internal/node"
	"repro/internal/storage"
)

func newTracedWAL(t *testing.T) (*tracedStore, *storage.WAL) {
	t.Helper()
	wal, err := abcast.NewWALStorage(t.TempDir(), abcast.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer(newLedger())
	tr.recording.Store(true)
	return &tracedStore{wal: wal, tr: tr}, wal
}

// TestTracedStoreKeepsWALPaths pins that wrapping the WAL leaves every
// path the program picks by inspecting its store unchanged: without this,
// pipelined persists would silently become synchronous in a traced run.
func TestTracedStoreKeepsWALPaths(t *testing.T) {
	ts, wal := newTracedWAL(t)
	defer ts.Close()

	if got := storage.Async(ts); got != storage.AsyncStable(ts) {
		t.Fatalf("storage.Async wrapped the traced store in %T", got)
	}
	if node.FindWAL(ts) != wal {
		t.Fatal("node.FindWAL does not reach the WAL through the traced store")
	}
	if _, ok := node.TuneSync(ts); !ok {
		t.Fatal("the tune controller finds no group-commit engine behind the traced store")
	}
	ts.SetGroupCommit(7, 3*time.Millisecond)
	if every, delay := wal.GroupCommit(); every != 7 || delay != 3*time.Millisecond {
		t.Fatalf("SetGroupCommit reached the WAL as (%d, %v)", every, delay)
	}

	// A persist issued through the wrapper stays pending until its group
	// commit, exactly as on the bare WAL.
	ts.SetGroupCommit(64, 50*time.Millisecond)
	c := ts.AppendAsync("log", []byte("record"))
	if _, done := c.Poll(); done {
		t.Fatal("an asynchronous append through the wrapper resolved before its group commit")
	}
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	if ts.SyncCount() == 0 || ts.SyncCount() != wal.SyncCount() || ts.RecordCount() != wal.RecordCount() {
		t.Fatalf("counters: wrapper %d/%d, WAL %d/%d", ts.SyncCount(), ts.RecordCount(), wal.SyncCount(), wal.RecordCount())
	}
	// The completion callback runs on the WAL's dispatcher goroutine.
	var durable []float64
	for deadline := time.Now().Add(time.Second); len(durable) == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		ts.tr.smu.Lock()
		durable = append([]float64(nil), ts.tr.durableUs...)
		ts.tr.smu.Unlock()
	}
	if ts.tr.storageOps.Load() != 1 || len(durable) != 1 || durable[0] < 1000 {
		t.Fatalf("wrapper recorded %d ops, durable times %v us", ts.tr.storageOps.Load(), durable)
	}
}

// TestTracedStoreUnderProcesses pins that NewProcess and NewSharded see
// the WAL's group-commit and sync counter through the wrapper.
func TestTracedStoreUnderProcesses(t *testing.T) {
	ctx := context.Background()
	ts, wal := newTracedWAL(t)
	net := abcast.NewMemNetwork(1, abcast.MemNetOptions{})
	defer net.Close()
	p, err := abcast.NewProcess(abcast.Config{N: 1, Protocol: abcast.ProtocolOptions{SyncEvery: 5, MaxSyncDelay: 2 * time.Millisecond}}, ts, net)
	if err != nil {
		t.Fatal(err)
	}
	if every, delay := wal.GroupCommit(); every != 5 || delay != 2*time.Millisecond {
		t.Fatalf("NewProcess set the WAL's group commit to (%d, %v) through the wrapper", every, delay)
	}
	if err := p.Start(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Broadcast(ctx, []byte("x")); err != nil {
		t.Fatal(err)
	}
	p.Crash()
	ts.Close()

	ts2, wal2 := newTracedWAL(t)
	defer ts2.Close()
	mux := abcast.NewShardedNetwork(abcast.NewMemNetwork(1, abcast.MemNetOptions{}), 2)
	s, err := abcast.NewSharded(abcast.ShardedConfig{N: 1}, ts2, mux)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer s.Crash()
	if _, _, err := s.Broadcast(ctx, []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().WALSyncs; got == 0 || got > wal2.SyncCount() {
		t.Fatalf("Sharded reports %d WAL syncs through the wrapper, WAL has %d", got, wal2.SyncCount())
	}
}

func TestTracedNetForwardsAndCounts(t *testing.T) {
	tr := newTracer(newLedger())
	tr.recording.Store(true)
	mem := abcast.NewMemNetwork(3, abcast.MemNetOptions{})
	defer mem.Close()
	nw := &tracedNet{inner: mem, tr: tr}
	eps := make([]interface {
		Multisend([]byte)
		Close() error
	}, 3)
	var recv []func() string
	for pid := range eps {
		ep, err := nw.Attach(abcast.ProcessID(pid))
		if err != nil {
			t.Fatal(err)
		}
		eps[pid] = ep
		recv = append(recv, func() string {
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			defer cancel()
			pkt, err := ep.Recv(ctx)
			if err != nil {
				t.Fatal(err)
			}
			return string(pkt.Data)
		})
		defer ep.Close()
	}
	eps[0].Multisend([]byte("hello"))
	for pid := range eps {
		if got := recv[pid](); got != "hello" {
			t.Fatalf("p%d received %q", pid, got)
		}
	}
	if tr.sendFrames.Load() != 2 || tr.sendBytes.Load() != 10 {
		t.Fatalf("counted %d frames, %d bytes; want 2 remote frames of 5 bytes", tr.sendFrames.Load(), tr.sendBytes.Load())
	}
}
