package clique

import "unsafe"

// Word is the unit of message payload. The congested-clique model allows a
// constant number of integers that are polynomially bounded in n per message;
// a Word holds one such integer.
type Word = int64

// Packet is a single message sent along one directed edge in one round. Its
// length must stay bounded by a constant (independent of n) for an algorithm
// to respect the O(log n) bits-per-edge budget of the model.
//
// Lifetimes: the engine copies sent payloads during delivery, so a sender may
// reuse its buffer as soon as its next Exchange returns. Received packets are
// engine-owned views into the receiver's record arena (see FlatInbox). A
// boxed Inbox — the sender table and the packet headers — is built by the
// receiver over those records and stays valid until the receiver's next
// exchange (in RunRounds: until the step call returns); the payload words,
// boxed or flat, stay valid for PayloadGraceRounds further barriers, so a
// received packet may be forwarded verbatim within that window (this covers
// the paper's constant-round primitives, which re-send received words after
// at most two intervening announcement rounds). Callers that retain packet
// contents beyond the grace window must Clone them. All received views
// expire, at the latest, when Run or RunRounds returns: the engine's
// delivery buffers are pooled across Network instances, so a future Network
// may recycle them — node programs must copy anything that outlives the run.
type Packet []Word

// Clone returns an independent copy of the packet. Packets received from
// Exchange share backing storage with the engine (see the Packet lifetime
// rules), so callers that retain packet contents across rounds must clone
// them.
func (p Packet) Clone() Packet {
	if p == nil {
		return nil
	}
	out := make(Packet, len(p))
	copy(out, p)
	return out
}

// pendingPacket is a packet queued by a node for delivery at the next round
// barrier. count and model carry the frame accounting (see Node.SendFramed):
// a plain Send queues one logical message whose model cost is its length,
// while a framed send coalesces count logical messages whose model cost
// excludes the frame's bookkeeping words. The payload is a pointer and a
// length rather than a slice header, which keeps the descriptor at 24 bytes:
// a full-load round queues n² of them, sorts them at publish and reads them
// at delivery.
type pendingPacket struct {
	data  *Word
	len   int32
	to    int32
	count int32
	model int32
}

// queued returns the descriptor of data queued for node to.
func queued(to int, data Packet, count, model int) pendingPacket {
	return pendingPacket{data: unsafe.SliceData(data), len: int32(len(data)), to: int32(to), count: int32(count), model: int32(model)}
}

// payload returns the queued packet's words.
func (pp *pendingPacket) payload() Packet {
	return unsafe.Slice(pp.data, pp.len)
}

// Inbox holds everything a node received in one round, indexed by sender.
// Inbox[s] is the list of packets sent by node s this round (nil if none).
type Inbox [][]Packet

// From returns the packets received from sender s. It is a convenience
// accessor that tolerates a short or nil inbox.
func (in Inbox) From(s int) []Packet {
	if s < 0 || s >= len(in) {
		return nil
	}
	return in[s]
}

// Single returns the unique packet received from sender s, or nil if none was
// received. It is used by protocols whose invariant is "at most one packet
// per edge per round"; if the invariant is violated the first packet is
// returned (the violation itself surfaces through the engine's metrics or the
// strict bandwidth cap).
func (in Inbox) Single(s int) Packet {
	ps := in.From(s)
	if len(ps) == 0 {
		return nil
	}
	return ps[0]
}

// FlatInbox is one round's traffic exactly as delivery wrote it: a sequence
// of [from, len, payload...] records, one per physical packet, in ascending
// sender order (a sender's packets in the order it sent them). It is the only
// receive format of the engine; every other representation is a view built
// over it by the receiver. The words are engine-owned and stay valid for
// PayloadGraceRounds further barriers.
type FlatInbox []Word

// noTag is the inboxView.build filter of receivers whose records carry no
// instance tag (Mux instance tags are non-negative).
const noTag = Word(-1)

// inboxView is the boxed Inbox a receiver materialises over one round's flat
// records: an n-entry sender table whose entries slice into one header
// scratch, plus the list of senders touched so the table is cleared in
// O(traffic). It has three owners — a Node (for its blocking Exchange), a
// RunRounds worker (for the node currently stepping) and a VNode — and each
// is the only goroutine that ever touches its view. Capacity carries over
// from round to round, so a steady-state build allocates nothing.
type inboxView struct {
	table   Inbox
	hdr     []Packet
	touched []int32
}

// build boxes the records of flat into the view, replacing what it held, and
// returns the n-entry Inbox. With tag != noTag the records are those of a
// node shared by several Mux instances: only records whose first payload word
// is tag are kept, and the tag is stripped.
func (v *inboxView) build(n int, flat FlatInbox, tag Word) Inbox {
	v.reset()
	if len(v.table) < n {
		v.table = make(Inbox, n)
	}
	// Records arrive in ascending sender order, so one sender's headers are
	// contiguous in hdr; a sender change closes the previous run. hdr grows
	// by append only: a run closed before a reallocation keeps reading the
	// (identical) headers of the old array.
	hdr := v.hdr
	last, start := -1, 0
	for i := 0; i < len(flat); {
		from, l := int(flat[i]), int(flat[i+1])
		p := Packet(flat[i+2 : i+2+l : i+2+l])
		i += 2 + l
		if tag != noTag {
			if l == 0 || p[0] != tag {
				continue
			}
			p = p[1:]
		}
		if from != last {
			if last >= 0 {
				v.table[last] = hdr[start:len(hdr):len(hdr)]
			}
			v.touched = append(v.touched, int32(from))
			last, start = from, len(hdr)
		}
		hdr = append(hdr, p)
	}
	if last >= 0 {
		v.table[last] = hdr[start:len(hdr):len(hdr)]
	}
	v.hdr = hdr
	return v.table[:n]
}

// reset empties the view through its touched list and drops every packet
// header, so a view at rest (pooled with its Network's buffers) references no
// arena memory.
func (v *inboxView) reset() {
	for _, f := range v.touched {
		v.table[f] = nil
	}
	v.touched = v.touched[:0]
	clear(v.hdr)
	v.hdr = v.hdr[:0]
}
