// Delta-compressed state sync for the federated coordination plane.
//
// A DeltaEnc/DeltaDec pair keeps mirrored views of one key→int64 map
// across a link (partition→root service quanta per app, root→partition
// global quanta per tenant). Each Encode call takes the sender's
// complete current state and emits only what changed since the last
// message: newly seen keys are interned into a shared append-only
// dictionary (string sent once, ever), and changed values are encoded
// as zigzag varints of the difference from the mirror — for cumulative
// service counters that difference is one period's worth of quanta,
// a byte or two, against the 24-byte (id, float64) wire entries of the
// centralized full-vector exchange. Keys absent from the current state
// are part of the contract too: a known key missing from cur is an
// explicit transition to zero (retired apps, pruned totals), so the
// mirror never wedges a stale value.
//
// Messages are sequence-numbered; the decoder rejects gaps, which the
// sender repairs with a snapshot: a message from a fresh encoder
// (flagged, full dictionary and state re-sent) that makes the decoder
// zero and reset its mirror before applying. Leader crash recovery
// rides the same path — the recovering partition's sync state is gone,
// so it simply starts a fresh encoder and flags the first message.
//
// Values travel in integer quanta (DefaultQuantum cost units) rather
// than floats: int64 arithmetic is exact, so the root's conservation
// invariant — per-partition mirrors summing to the global totals — is
// an equality, not a tolerance.
package broker

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
)

// DefaultQuantum is the service quantization unit in cost units
// (bytes): fine enough that the delay rule's view is off by at most one
// quantum per tenant per link, coarse enough that one period's delta
// fits a short varint.
const DefaultQuantum = 4096.0

// Codec errors. ErrSeqGap means messages were lost between encoder and
// decoder; the decoder's state is untouched and the sender must resync
// with a snapshot.
var (
	ErrSeqGap     = errors.New("broker: delta message sequence gap")
	errDeltaShort = errors.New("broker: truncated delta message")
)

const (
	deltaFlagSnapshot = 1 << 0

	// maxDeltaName bounds interned key lengths so a corrupt length
	// prefix cannot demand a huge allocation.
	maxDeltaName = 4096
)

// DeltaEnc is the sending half of one link. The zero value is ready to
// use (fresh dictionary, empty mirror, sequence 0).
type DeltaEnc struct {
	idx   map[string]int
	names []string
	prev  []int64
	seq   uint64
}

// Encode emits one message carrying the difference between cur — the
// sender's complete current state — and the mirror, then advances the
// mirror. A known key absent from cur encodes as a transition to zero.
// When snapshot is set the encoder resets itself first, so the message
// is self-contained: full dictionary, every nonzero value, and a flag
// telling the decoder to reset before applying. entries is the number
// of (key, value) changes carried.
func (e *DeltaEnc) Encode(cur map[string]int64, snapshot bool) (msg []byte, entries int) {
	if snapshot {
		e.idx = nil
		e.names = nil
		e.prev = nil
		e.seq = 0
	}
	if e.idx == nil {
		e.idx = make(map[string]int)
	}
	// Intern unseen keys in sorted order so dictionary growth — and the
	// encoded bytes — are a pure function of the state, not map layout.
	var fresh []string
	for k, v := range cur {
		if _, ok := e.idx[k]; !ok && v != 0 {
			fresh = append(fresh, k)
		}
	}
	sort.Strings(fresh)
	for _, k := range fresh {
		e.idx[k] = len(e.names)
		e.names = append(e.names, k)
		e.prev = append(e.prev, 0)
	}
	// Changed entries: every dict index whose current value (0 when the
	// key is absent from cur) differs from the mirror.
	changed := make([]int, 0, len(fresh))
	for i, name := range e.names {
		if cur[name] != e.prev[i] {
			changed = append(changed, i)
		}
	}

	e.seq++
	var flags byte
	if snapshot {
		flags |= deltaFlagSnapshot
	}
	buf := make([]byte, 0, 16+len(changed)*4)
	buf = binary.AppendUvarint(buf, e.seq)
	buf = append(buf, flags)
	buf = binary.AppendUvarint(buf, uint64(len(fresh)))
	for _, k := range fresh {
		buf = binary.AppendUvarint(buf, uint64(len(k)))
		buf = append(buf, k...)
	}
	buf = binary.AppendUvarint(buf, uint64(len(changed)))
	last := -1
	for _, i := range changed {
		buf = binary.AppendUvarint(buf, uint64(i-last))
		buf = binary.AppendVarint(buf, cur[e.names[i]]-e.prev[i])
		e.prev[i] = cur[e.names[i]]
		last = i
	}
	return buf, len(changed)
}

// Seq returns the sequence number of the last encoded message.
func (e *DeltaEnc) Seq() uint64 { return e.seq }

// DeltaDec is the receiving half of one link. The zero value mirrors a
// zero-value DeltaEnc.
type DeltaDec struct {
	names []string
	prev  []int64
	seq   uint64
}

// Decode applies one message to the mirror, invoking apply(name, old,
// new) for every value change — including the implicit zeroing of every
// nonzero entry when a snapshot resets the mirror — so the caller can
// fold deltas into derived aggregates incrementally. On any error
// (sequence gap, truncation, corruption) the mirror is left unchanged
// and no apply calls have been made.
func (d *DeltaDec) Decode(msg []byte, apply func(name string, old, new int64)) (snapshot bool, entries int, err error) {
	seq, n := binary.Uvarint(msg)
	if n <= 0 {
		return false, 0, errDeltaShort
	}
	msg = msg[n:]
	if len(msg) < 1 {
		return false, 0, errDeltaShort
	}
	flags := msg[0]
	msg = msg[1:]
	snapshot = flags&deltaFlagSnapshot != 0
	if !snapshot && seq != d.seq+1 {
		return snapshot, 0, fmt.Errorf("%w: got %d want %d", ErrSeqGap, seq, d.seq+1)
	}

	// Parse fully before mutating, so errors cannot leave the mirror
	// half-applied.
	nFresh, n := binary.Uvarint(msg)
	if n <= 0 || nFresh > uint64(len(msg)) {
		return snapshot, 0, errDeltaShort
	}
	msg = msg[n:]
	fresh := make([]string, 0, nFresh)
	for i := uint64(0); i < nFresh; i++ {
		l, n := binary.Uvarint(msg)
		if n <= 0 || l > maxDeltaName || uint64(len(msg[n:])) < l {
			return snapshot, 0, errDeltaShort
		}
		fresh = append(fresh, string(msg[n:n+int(l)]))
		msg = msg[n+int(l):]
	}
	nEnt, n := binary.Uvarint(msg)
	if n <= 0 || nEnt > uint64(len(msg)) {
		return snapshot, 0, errDeltaShort
	}
	msg = msg[n:]
	type change struct {
		idx int
		d   int64
	}
	changes := make([]change, 0, nEnt)
	base := len(d.names)
	if snapshot {
		base = 0
	}
	last := -1
	for i := uint64(0); i < nEnt; i++ {
		gap, n := binary.Uvarint(msg)
		if n <= 0 {
			return snapshot, 0, errDeltaShort
		}
		msg = msg[n:]
		v, n := binary.Varint(msg)
		if n <= 0 {
			return snapshot, 0, errDeltaShort
		}
		msg = msg[n:]
		idx := last + int(gap)
		if gap == 0 || idx >= base+len(fresh) {
			return snapshot, 0, fmt.Errorf("broker: delta entry index %d out of range", idx)
		}
		changes = append(changes, change{idx: idx, d: v})
		last = idx
	}

	// Commit: reset on snapshot (zeroing the old mirror through apply),
	// grow the dictionary, fold the changes.
	if snapshot {
		for i, v := range d.prev {
			if v != 0 && apply != nil {
				apply(d.names[i], v, 0)
			}
		}
		d.names = nil
		d.prev = nil
	}
	d.seq = seq
	d.names = append(d.names, fresh...)
	for range fresh {
		d.prev = append(d.prev, 0)
	}
	for _, c := range changes {
		old := d.prev[c.idx]
		d.prev[c.idx] += c.d
		if apply != nil {
			apply(d.names[c.idx], old, d.prev[c.idx])
		}
	}
	return snapshot, len(changes), nil
}

// State returns a copy of the mirror's nonzero entries.
func (d *DeltaDec) State() map[string]int64 {
	out := make(map[string]int64)
	for i, v := range d.prev {
		if v != 0 {
			out[d.names[i]] = v
		}
	}
	return out
}

// each calls fn for every nonzero mirror entry, in place — the
// allocation-free form of State for the root's per-uplink probes.
func (d *DeltaDec) each(fn func(name string, v int64)) {
	for i, v := range d.prev {
		if v != 0 {
			fn(d.names[i], v)
		}
	}
}

// Seq returns the sequence number of the last applied message.
func (d *DeltaDec) Seq() uint64 { return d.seq }
