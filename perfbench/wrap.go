package main

import (
	"time"

	"repro/abcast"
	"repro/internal/ids"
	"repro/internal/storage"
	"repro/internal/transport"
)

// The wrappers below measure one layer each from outside the program:
// they time the calls the protocol makes into the public Storage, Network
// and Checkpointer interfaces and forward every call unchanged. They only
// exist in a traced run.

// tracedStore wraps a process's WAL. It implements storage.AsyncStable and
// Inner, and forwards the WAL's group-commit and counter methods, so every
// type check the program makes on its store (storage.Async, node.FindWAL,
// the obs and tune wiring, Sharded's sync rollup, NewProcess's
// group-commit policy) reaches the WAL exactly as without the wrapper.
type tracedStore struct {
	wal *storage.WAL
	pid int
	tr  *tracer
}

var (
	_ storage.AsyncStable = (*tracedStore)(nil)
	_ storage.Closer      = (*tracedStore)(nil)
)

// Inner returns the wrapped WAL.
func (s *tracedStore) Inner() storage.Stable { return s.wal }

// SetGroupCommit forwards the group-commit policy to the WAL.
func (s *tracedStore) SetGroupCommit(syncEvery int, maxSyncDelay time.Duration) {
	s.wal.SetGroupCommit(syncEvery, maxSyncDelay)
}

// SyncCount forwards the WAL's fsync count.
func (s *tracedStore) SyncCount() int64 { return s.wal.SyncCount() }

// RecordCount forwards the WAL's record count.
func (s *tracedStore) RecordCount() int64 { return s.wal.RecordCount() }

// Close closes the WAL.
func (s *tracedStore) Close() error { return s.wal.Close() }

// write times one synchronous durable write.
func (s *tracedStore) write(name string, bytes int, op func() error) error {
	start := s.tr.led.now()
	err := op()
	s.tr.storageOp(name, s.pid, bytes, start, s.tr.led.now())
	return err
}

// async times one asynchronous write until its Completion resolves.
func (s *tracedStore) async(name string, bytes int, c *storage.Completion, start int64) *storage.Completion {
	if _, done := c.Poll(); done {
		s.tr.storageOp(name, s.pid, bytes, start, s.tr.led.now())
		return c
	}
	c.OnDone(func(error) { s.tr.storageOp(name, s.pid, bytes, start, s.tr.led.now()) })
	return c
}

func (s *tracedStore) Put(key string, val []byte) error {
	return s.write("storage.put", len(val), func() error { return s.wal.Put(key, val) })
}

func (s *tracedStore) Append(key string, rec []byte) error {
	return s.write("storage.append", len(rec), func() error { return s.wal.Append(key, rec) })
}

func (s *tracedStore) Delete(key string) error {
	return s.write("storage.delete", 0, func() error { return s.wal.Delete(key) })
}

func (s *tracedStore) PutAsync(key string, val []byte) *storage.Completion {
	start := s.tr.led.now()
	return s.async("storage.put", len(val), s.wal.PutAsync(key, val), start)
}

func (s *tracedStore) AppendAsync(key string, rec []byte) *storage.Completion {
	start := s.tr.led.now()
	return s.async("storage.append", len(rec), s.wal.AppendAsync(key, rec), start)
}

func (s *tracedStore) DeleteAsync(key string) *storage.Completion {
	start := s.tr.led.now()
	return s.async("storage.delete", 0, s.wal.DeleteAsync(key), start)
}

func (s *tracedStore) Sync() error                          { return s.wal.Sync() }
func (s *tracedStore) Get(key string) ([]byte, bool, error) { return s.wal.Get(key) }
func (s *tracedStore) Records(key string) ([][]byte, error) { return s.wal.Records(key) }
func (s *tracedStore) List(prefix string) ([]string, error) { return s.wal.List(prefix) }

// tracedNet wraps the cluster's Network; its endpoints time every send.
type tracedNet struct {
	inner abcast.Network
	tr    *tracer
}

func (n *tracedNet) N() int { return n.inner.N() }

func (n *tracedNet) Attach(pid ids.ProcessID) (transport.Endpoint, error) {
	ep, err := n.inner.Attach(pid)
	if err != nil {
		return nil, err
	}
	return &tracedEndpoint{Endpoint: ep, peers: n.inner.N() - 1, tr: n.tr}, nil
}

type tracedEndpoint struct {
	transport.Endpoint
	peers int
	tr    *tracer
}

func (e *tracedEndpoint) Send(to ids.ProcessID, data []byte) {
	start := e.tr.led.now()
	e.Endpoint.Send(to, data)
	frames := 1
	if to == e.Local() {
		frames = 0
	}
	e.tr.send(int(e.Local()), frames, len(data), start, e.tr.led.now())
}

func (e *tracedEndpoint) Multisend(data []byte) {
	start := e.tr.led.now()
	e.Endpoint.Multisend(data)
	e.tr.send(int(e.Local()), e.peers, e.peers*len(data), start, e.tr.led.now())
}

// tracedCkpt wraps the application Checkpointer and times its encode.
type tracedCkpt struct {
	inner abcast.Checkpointer
	pid   int
	tr    *tracer
}

func (c *tracedCkpt) Checkpoint(prev []byte, delivered []abcast.Message) []byte {
	start := c.tr.led.now()
	out := c.inner.Checkpoint(prev, delivered)
	c.tr.checkpoint(c.pid, len(out), start, c.tr.led.now())
	return out
}

func (c *tracedCkpt) Restore(app []byte) { c.inner.Restore(app) }
