package vclock

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/ids"
	"repro/internal/wire"
)

func id(s int32, inc uint32, seq uint64) ids.MsgID {
	return ids.MsgID{Sender: ids.ProcessID(s), Incarnation: inc, Seq: seq}
}

func TestObserveAndCovers(t *testing.T) {
	v := New()
	if v.Covers(id(0, 1, 1)) {
		t.Fatal("empty clock covers something")
	}
	for s := uint64(1); s <= 5; s++ {
		v.Observe(id(0, 1, s))
	}
	if !v.Covers(id(0, 1, 5)) || !v.Covers(id(0, 1, 3)) {
		t.Fatal("clock should cover seq <= 5 (all observed)")
	}
	if v.Covers(id(0, 1, 6)) {
		t.Fatal("clock covers future seq")
	}
	if v.Covers(id(0, 2, 1)) {
		t.Fatal("clock covers other incarnation")
	}
	if v.Covers(id(1, 1, 1)) {
		t.Fatal("clock covers other sender")
	}
}

// TestCoversIsExact: observing a sequence number out of order must NOT
// claim coverage of the skipped-over ones — a checkpoint folding a
// sender's m4 before its m3 was ever delivered does not contain m3, and
// claiming otherwise diverges processes that folded at different rounds
// (see the package doc).
func TestCoversIsExact(t *testing.T) {
	v := New()
	v.Observe(id(0, 1, 4)) // m4 ordered before m3 (gossip loss)
	if !v.Covers(id(0, 1, 4)) {
		t.Fatal("observed message not covered")
	}
	if v.Covers(id(0, 1, 3)) || v.Covers(id(0, 1, 1)) {
		t.Fatal("clock covers never-observed holes")
	}
	v.Observe(id(0, 1, 3)) // m3 delivered later: the hole fills
	if !v.Covers(id(0, 1, 3)) {
		t.Fatal("filled hole not covered")
	}
	if v.Covers(id(0, 1, 2)) {
		t.Fatal("remaining hole covered")
	}
	// Round-trip keeps the holes.
	w := wire.NewWriter(0)
	v.Encode(w)
	got := Decode(wire.NewReader(w.Bytes()))
	if got.Covers(id(0, 1, 2)) || !got.Covers(id(0, 1, 3)) || !got.Covers(id(0, 1, 4)) {
		t.Fatal("holes lost in encode/decode round trip")
	}
	// Merge unions coverage: a clock that covers m2 fills the hole.
	o := New()
	o.Observe(id(0, 1, 1))
	o.Observe(id(0, 1, 2))
	v.Merge(o)
	for s := uint64(1); s <= 4; s++ {
		if !v.Covers(id(0, 1, s)) {
			t.Fatalf("merged clock misses seq %d", s)
		}
	}
}

func TestObserveIsMonotone(t *testing.T) {
	v := New()
	v.Observe(id(0, 1, 10))
	v.Observe(id(0, 1, 3)) // fills one hole, never regresses
	if !v.Covers(id(0, 1, 10)) || !v.Covers(id(0, 1, 3)) {
		t.Fatal("observe regressed")
	}
}

func randVC(rng *rand.Rand) VC {
	v := New()
	for i := 0; i < rng.IntN(8); i++ {
		s, inc := ids.ProcessID(rng.IntN(4)), uint32(rng.IntN(3))
		// A few out-of-order observations per stream, so random clocks
		// carry holes and the lattice laws are checked over them.
		for j := 0; j < 1+rng.IntN(4); j++ {
			v.Observe(ids.MsgID{Sender: s, Incarnation: inc, Seq: rng.Uint64N(20) + 1})
		}
	}
	return v
}

// TestMergeLattice property-checks that Merge is a join: commutative,
// associative, idempotent, and dominating.
func TestMergeLattice(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 1))
		a, b, c := randVC(rng), randVC(rng), randVC(rng)

		ab := a.Clone()
		ab.Merge(b)
		ba := b.Clone()
		ba.Merge(a)
		if !ab.Equal(ba) {
			return false // commutativity
		}
		abc1 := ab.Clone()
		abc1.Merge(c)
		bc := b.Clone()
		bc.Merge(c)
		abc2 := a.Clone()
		abc2.Merge(bc)
		if !abc1.Equal(abc2) {
			return false // associativity
		}
		aa := a.Clone()
		aa.Merge(a)
		if !aa.Equal(a) {
			return false // idempotence
		}
		return ab.Dominates(a) && ab.Dominates(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 2))
		v := randVC(rng)
		w := wire.NewWriter(0)
		v.Encode(w)
		r := wire.NewReader(w.Bytes())
		got := Decode(r)
		return r.Done() == nil && got.Equal(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestTaggedSeqOwnLane: a sequence number tagged in its top 16 bits (a
// retired group's orphan, re-injected by the sharded layer) is its own
// stream: observing it neither records the 2^48-wide gap below it as holes
// nor disturbs the native lane, and it survives an encode round trip.
func TestTaggedSeqOwnLane(t *testing.T) {
	tagged := func(lane, seq uint64) ids.MsgID { return id(2, 1, lane<<48|seq) }
	v := New()
	for s := uint64(1); s <= 3; s++ {
		v.Observe(id(2, 1, s))
	}
	v.Observe(tagged(6, 2))
	v.Observe(id(2, 1, 4))
	if !v.Covers(tagged(6, 2)) || !v.Covers(id(2, 1, 4)) {
		t.Fatal("observed ids not covered")
	}
	if v.Covers(tagged(6, 1)) || v.Covers(tagged(6, 3)) || v.Covers(tagged(7, 2)) || v.Covers(id(2, 1, 5)) {
		t.Fatal("clock covers ids never observed")
	}
	if got := len(v.holes[Key{2, 1, 6}]); got != 1 {
		t.Fatalf("tagged lane holds %d holes; want 1", got)
	}
	w := wire.NewWriter(0)
	v.Encode(w)
	r := wire.NewReader(w.Bytes())
	if got := Decode(r); r.Done() != nil || !got.Equal(v) {
		t.Fatal("tagged lane lost in the round trip")
	}
}

func TestEncodeIsDeterministic(t *testing.T) {
	v := New()
	v.Observe(id(2, 1, 9))
	v.Observe(id(0, 3, 4))
	v.Observe(id(0, 1, 7))
	w1 := wire.NewWriter(0)
	v.Encode(w1)
	w2 := wire.NewWriter(0)
	v.Clone().Encode(w2)
	if string(w1.Bytes()) != string(w2.Bytes()) {
		t.Fatal("encoding not deterministic")
	}
}

func TestDominates(t *testing.T) {
	a := New()
	for s := uint64(1); s <= 5; s++ {
		a.Observe(id(0, 1, s))
	}
	b := New()
	for s := uint64(1); s <= 3; s++ {
		b.Observe(id(0, 1, s))
	}
	if !a.Dominates(b) || b.Dominates(a) {
		t.Fatal("dominates wrong")
	}
	b.Observe(id(1, 1, 1))
	if a.Dominates(b) {
		t.Fatal("incomparable clocks reported dominated")
	}
	if !a.Dominates(New()) {
		t.Fatal("everything dominates empty")
	}
	// Exactness: {5} with holes below does not dominate {3}.
	h := New()
	h.Observe(id(0, 1, 5))
	only3 := New()
	only3.Observe(id(0, 1, 3))
	only3.Observe(id(0, 1, 1))
	only3.Observe(id(0, 1, 2))
	if h.Dominates(only3) {
		t.Fatal("clock with holes dominates contiguous coverage")
	}
}
