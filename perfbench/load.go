package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"strconv"
	"sync/atomic"
	"time"
)

// maxN is the largest cluster the ledger has per-replica slots for.
const maxN = 3

// Request status values.
const (
	stPending int32 = iota
	stOK
	stFailed
)

// req is one broadcast request's record. Times are nanoseconds since the
// ledger's origin plus one, so zero means "not yet".
type req struct {
	cluster int32
	origin  int32
	due     int64
	sent    int64
	status  atomic.Int32
	commit  atomic.Int64
	tent    atomic.Int64
	deliv   [maxN]atomic.Int64 // OnDeliver at each replica
	applied [maxN]atomic.Int64 // applied to each replica's KV
}

const chunkBits = 14

type chunk [1 << chunkBits]req

// ledger holds every request of a run, indexed by payload index. One
// goroutine allocates (the pacer); any goroutine may stamp.
type ledger struct {
	t0     time.Time
	n      atomic.Int64
	chunks [1 << 12]atomic.Pointer[chunk]
}

func newLedger() *ledger { return &ledger{t0: time.Now()} }

// now is the ledger clock: nanoseconds since its origin, plus one.
func (l *ledger) now() int64 { return int64(time.Since(l.t0)) + 1 }

// stamp converts a wall time into the ledger clock.
func (l *ledger) stamp(t time.Time) int64 { return int64(t.Sub(l.t0)) + 1 }

// alloc reserves the next request slot.
func (l *ledger) alloc() (int64, *req) {
	i := l.n.Load()
	c := l.chunks[i>>chunkBits].Load()
	if c == nil {
		c = new(chunk)
		l.chunks[i>>chunkBits].Store(c)
	}
	l.n.Store(i + 1)
	return i, &c[i&(1<<chunkBits-1)]
}

// at returns request i, or nil when i was never allocated.
func (l *ledger) at(i int64) *req {
	if i < 0 || i >= l.n.Load() {
		return nil
	}
	return &l.chunks[i>>chunkBits].Load()[i&(1<<chunkBits-1)]
}

// first stores v into a only if a is still zero.
func first(a *atomic.Int64, v int64) { a.CompareAndSwap(0, v) }

// ms converts a ledger-clock interval to milliseconds.
func ms(ns int64) float64 { return float64(ns) / 1e6 }

// payloads builds seeded KV put payloads whose value ends with the
// request's 16-digit hex index, so any replica can map a delivered
// payload back to its request.
type payloads struct {
	rng    *rand.Rand
	keys   int
	filler string
	vbytes int
}

const idxDigits = 16

func newPayloads(seed uint64, keys, valueBytes int) *payloads {
	rng := rand.New(rand.NewPCG(seed, seed^0x5bd1e995))
	fill := make([]byte, 2*valueBytes+1)
	for i := range fill {
		fill[i] = 'a' + byte(rng.IntN(26))
	}
	return &payloads{rng: rng, keys: keys, filler: string(fill), vbytes: valueBytes}
}

// next returns the key and the put payload of request idx.
func (p *payloads) next(idx int64, put func(key, value string) []byte) (string, []byte) {
	key := "k" + strconv.Itoa(p.rng.IntN(p.keys))
	n := max(p.vbytes-idxDigits, 0)
	off := p.rng.IntN(len(p.filler) - n)
	value := p.filler[off:off+n] + fmt.Sprintf("%016x", idx)
	return key, put(key, value)
}

// payloadIndex recovers the request index from a payload built by
// payloads.next, or -1 when the payload is not one.
func payloadIndex(payload []byte) int64 {
	if len(payload) < idxDigits {
		return -1
	}
	v, err := strconv.ParseUint(string(payload[len(payload)-idxDigits:]), 16, 63)
	if err != nil {
		return -1
	}
	return int64(v)
}

// pace generates seeded Poisson arrivals at rate per second for dur and
// calls issue once per arrival with its due time, in order. It never
// shifts the schedule: when it falls behind, the overdue arrivals are
// issued at once with their original due times, so latency counted from
// due includes the pacer's own lateness. It returns the arrival count.
func pace(ctx context.Context, rng *rand.Rand, rate float64, dur time.Duration, issue func(due time.Time)) int {
	start := time.Now()
	off := 0.0
	n := 0
	for {
		off += rng.ExpFloat64() / rate
		if off >= dur.Seconds() {
			return n
		}
		due := start.Add(time.Duration(off * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			select {
			case <-ctx.Done():
				return n
			case <-time.After(d):
			}
		}
		issue(due)
		n++
	}
}
