package main

import (
	"context"
	"math/rand/v2"
	"testing"
	"time"

	"repro/abcast"
)

func TestPayloadIndexRoundTrip(t *testing.T) {
	for _, vb := range []int{0, 16, 128, 64 << 10} {
		p := newPayloads(7, 10, vb)
		for _, idx := range []int64{0, 1, 12345, 1 << 40} {
			_, payload := p.next(idx, abcast.EncodePut)
			if got := payloadIndex(payload); got != idx {
				t.Fatalf("value %dB: payloadIndex = %d, want %d", vb, got, idx)
			}
		}
	}
	if payloadIndex([]byte("short")) != -1 || payloadIndex([]byte("zzzzzzzzzzzzzzzzzzzz")) != -1 {
		t.Error("foreign payloads must map to -1")
	}
}

func TestPayloadsAreSeeded(t *testing.T) {
	a, b := newPayloads(3, 4096, 128), newPayloads(3, 4096, 128)
	for i := int64(0); i < 100; i++ {
		ka, pa := a.next(i, abcast.EncodePut)
		kb, pb := b.next(i, abcast.EncodePut)
		if ka != kb || string(pa) != string(pb) {
			t.Fatalf("request %d differs under the same seed", i)
		}
	}
}

// TestPaceNeverShiftsSchedule pins that a stalled issuer does not move
// later due times: the arrival schedule depends on the seed alone, so
// latency counted from due includes time lost before the send.
func TestPaceNeverShiftsSchedule(t *testing.T) {
	offsets := func(stall bool) []time.Duration {
		var dues []time.Duration
		var first time.Time
		pace(context.Background(), rand.New(rand.NewPCG(1, 2)), 2000, 100*time.Millisecond, func(due time.Time) {
			if first.IsZero() {
				first = due
				if stall {
					time.Sleep(30 * time.Millisecond)
				}
			}
			dues = append(dues, due.Sub(first))
		})
		return dues
	}
	smooth, stalled := offsets(false), offsets(true)
	if len(smooth) != len(stalled) || len(smooth) < 100 {
		t.Fatalf("arrivals: %d smooth vs %d stalled", len(smooth), len(stalled))
	}
	for i := range smooth {
		if smooth[i] != stalled[i] {
			t.Fatalf("arrival %d due at +%v after a stall, +%v without", i, stalled[i], smooth[i])
		}
	}
}

func TestLatencyCountsFromDue(t *testing.T) {
	r := newRunner(&workload{Keys: 1, ValueBytes: 32}, 1, time.Second, t.TempDir())
	from := r.led.n.Load()
	_, q := r.led.alloc()
	q.due = 1_000_000
	q.sent = q.due + 5_000_000 // the pacer ran 5ms late
	q.commit.Store(q.due + 7_000_000)
	q.tent.Store(q.due + 6_000_000)
	q.applied[0].Store(q.due + 8_000_000)
	q.status.Store(stOK)
	tm := r.timings(window{from: from, to: r.led.n.Load()}, 1, nil)
	if tm.ok != 1 || tm.commit[0] != 7 || tm.tentative[0] != 6 || tm.applyAll[0] != 8 {
		t.Fatalf("timings = %+v, want commit 7ms, tentative 6ms, apply 8ms from due", tm)
	}
}
