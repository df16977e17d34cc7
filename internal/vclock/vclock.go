// Package vclock implements the checkpoint coverage clock of §5.2: "The
// vector clock stores the sequence number of the last message delivered from
// each process 'contained' in the checkpoint." A message belongs to a
// delivery sequence if it appears explicitly in the suffix or is logically
// included in the application checkpoint that initiates the sequence.
//
// Because message identities are qualified by the sender's incarnation (see
// internal/ids), the clock is keyed by (sender, incarnation) pairs.
//
// # Exact coverage
//
// The paper's clock is a per-stream maximum, which implicitly assumes a
// sender's messages enter the total order in sequence-number order. Under
// message loss that assumption fails: with batched broadcast, a sender's
// m4 can be ordered rounds before its m3 (whose gossip was lost), so a
// checkpoint folding m4 must NOT claim to contain m3 — processes that
// folded at different rounds would otherwise disagree on whether a later
// batch's m3 is fresh, and their delivery sequences would diverge. This
// clock therefore tracks coverage exactly: the per-stream maximum plus the
// explicit "holes" below it (sequence numbers not contained). Holes are
// empty in the common in-order case and bounded by the sender's in-flight
// message skew, so the clock stays O(streams) in practice while Covers is
// exact: it reports containment of precisely the folded messages.
package vclock

import (
	"sort"

	"repro/internal/ids"
	"repro/internal/wire"
)

// Key identifies one message stream: one sender incarnation, split into
// lanes by the top 16 bits of the sequence number. Native sequence numbers
// live in lane 0. The sharded layer re-injects a retired group's orphans
// under sequence numbers tagged in those bits; a lane of their own keeps
// them from opening a 2^48-wide run of holes in lane 0.
type Key struct {
	Sender      ids.ProcessID
	Incarnation uint32
	Lane        uint16
}

// laneShift places the lane in a sequence number; seqs keep the bits below.
const laneShift = 48

// split returns id's stream and its sequence number within that lane.
func split(id ids.MsgID) (Key, uint64) {
	return Key{id.Sender, id.Incarnation, uint16(id.Seq >> laneShift)}, id.Seq & (1<<laneShift - 1)
}

// Clock is the coverage state. Use the VC alias; create with New.
type Clock struct {
	// max[k] is the highest sequence number contained for stream k
	// (sequence numbers start at 1; a missing entry means "nothing
	// contained"). The maximum itself is always contained.
	max map[Key]uint64
	// holes[k] lists the sequence numbers below max[k] that are NOT
	// contained (the stream's messages ordered out of sequence order).
	holes map[Key]map[uint64]struct{}
}

// VC is the clock handle stored in checkpoints (nil means "no clock").
type VC = *Clock

// New returns an empty clock.
func New() VC {
	return &Clock{max: make(map[Key]uint64)}
}

// Covers reports whether the clock contains message id — exactly: true
// iff id was observed (or is below the stream maximum with no hole).
func (c *Clock) Covers(id ids.MsgID) bool {
	return c.covered(split(id))
}

// Observe extends the clock to contain id. Observing above the stream
// maximum records the skipped-over sequence numbers as holes; observing a
// hole fills it.
func (c *Clock) Observe(id ids.MsgID) {
	k, seq := split(id)
	max := c.max[k]
	if seq > max {
		for s := max + 1; s < seq; s++ {
			c.addHole(k, s)
		}
		c.max[k] = seq
		return
	}
	if hs, ok := c.holes[k]; ok {
		delete(hs, seq)
		if len(hs) == 0 {
			delete(c.holes, k)
		}
	}
}

func (c *Clock) addHole(k Key, seq uint64) {
	if c.holes == nil {
		c.holes = make(map[Key]map[uint64]struct{})
	}
	hs := c.holes[k]
	if hs == nil {
		hs = make(map[uint64]struct{})
		c.holes[k] = hs
	}
	hs[seq] = struct{}{}
}

// covered reports containment of (k, seq) without constructing a MsgID.
func (c *Clock) covered(k Key, seq uint64) bool {
	if seq > c.max[k] {
		return false
	}
	_, hole := c.holes[k][seq]
	return !hole
}

// Merge folds o into c so that c covers exactly the union of both
// coverages. Merge is commutative, associative and idempotent.
func (c *Clock) Merge(o *Clock) {
	for k, omax := range o.max {
		cmax := c.max[k]
		if omax > cmax {
			// Sequences in (cmax, omax] follow o's coverage exactly: its
			// holes there become holes here.
			for s := range o.holes[k] {
				if s > cmax {
					c.addHole(k, s)
				}
			}
			c.max[k] = omax
		}
		// At or below both maxima a sequence stays a hole only if both
		// clocks miss it: anything o covers fills c's holes.
		if hs, ok := c.holes[k]; ok {
			for s := range hs {
				if o.covered(k, s) {
					delete(hs, s)
				}
			}
			if len(hs) == 0 {
				delete(c.holes, k)
			}
		}
	}
}

// Clone returns an independent copy.
func (c *Clock) Clone() VC {
	out := &Clock{max: make(map[Key]uint64, len(c.max))}
	for k, s := range c.max {
		out.max[k] = s
	}
	for k, hs := range c.holes {
		cp := make(map[uint64]struct{}, len(hs))
		for s := range hs {
			cp[s] = struct{}{}
		}
		if out.holes == nil {
			out.holes = make(map[Key]map[uint64]struct{}, len(c.holes))
		}
		out.holes[k] = cp
	}
	return out
}

// Equal reports coverage equality (zero entries are ignored).
func (c *Clock) Equal(o *Clock) bool {
	return c.Dominates(o) && o.Dominates(c)
}

// Dominates reports whether c covers everything o covers.
func (c *Clock) Dominates(o *Clock) bool {
	for k, omax := range o.max {
		if omax == 0 {
			continue
		}
		cmax := c.max[k]
		if omax > cmax {
			// o covers omax itself (the maximum is always contained).
			return false
		}
		// Every c-hole at or below omax must be an o-hole too.
		for s := range c.holes[k] {
			if s <= omax && o.covered(k, s) {
				return false
			}
		}
		// Every sequence o covers must be covered by c: the only c
		// coverage gaps are its holes, checked above; additionally o's
		// non-holes below omax that fall into c's holes are covered by
		// the same check.
	}
	return true
}

// sortedKeys returns the keys in deterministic order (for encoding).
func (c *Clock) sortedKeys() []Key {
	keys := make([]Key, 0, len(c.max))
	for k := range c.max {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Sender != keys[j].Sender {
			return keys[i].Sender < keys[j].Sender
		}
		if keys[i].Incarnation != keys[j].Incarnation {
			return keys[i].Incarnation < keys[j].Incarnation
		}
		return keys[i].Lane < keys[j].Lane
	})
	return keys
}

// Encode appends the clock to w deterministically. Sequence numbers are
// written whole (lane bits included), so a clock with only lane-0 streams
// encodes exactly as before lanes existed.
func (c *Clock) Encode(w *wire.Writer) {
	keys := c.sortedKeys()
	w.U64(uint64(len(keys)))
	for _, k := range keys {
		lane := uint64(k.Lane) << laneShift
		w.I64(int64(k.Sender))
		w.U64(uint64(k.Incarnation))
		w.U64(lane | c.max[k])
		hs := c.holes[k]
		sorted := make([]uint64, 0, len(hs))
		for s := range hs {
			sorted = append(sorted, s)
		}
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		w.U64(uint64(len(sorted)))
		for _, s := range sorted {
			w.U64(lane | s)
		}
	}
}

// Decode reads a clock from r.
func Decode(r *wire.Reader) VC {
	n := r.U64()
	if r.Err() != nil {
		return nil
	}
	capHint := n
	if capHint > 4096 {
		capHint = 4096
	}
	c := &Clock{max: make(map[Key]uint64, capHint)}
	for i := uint64(0); i < n; i++ {
		sender := ids.ProcessID(r.I64())
		inc := uint32(r.U64())
		k, max := split(ids.MsgID{Sender: sender, Incarnation: inc, Seq: r.U64()})
		c.max[k] = max
		hn := r.U64()
		// hn is disk/attacker-controlled: every hole costs at least one
		// encoded byte, so a count beyond the remaining buffer is
		// malformed — reject it before looping anywhere near it.
		if r.Err() != nil || hn > uint64(r.Remaining()) {
			return nil
		}
		for j := uint64(0); j < hn; j++ {
			hk, h := split(ids.MsgID{Sender: sender, Incarnation: inc, Seq: r.U64()})
			if r.Err() != nil || hk != k {
				return nil // a hole outside its stream's lane is malformed
			}
			c.addHole(k, h)
		}
	}
	return c
}
