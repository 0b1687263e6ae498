package core

import (
	"fmt"
	"sync"

	"congestedclique/internal/clique"
)

// This file implements the flat-frame wire layer: all logical model messages
// a node sends to one neighbor in one round are coalesced into a single
// physical packet (a frame), so the engine handles one packet per busy edge
// per round instead of one per message.
//
// Wire layout of a frame:
//
//	[count, len_1, msg_1 words..., len_2, msg_2 words..., ..., len_count, msg_count words...]
//
// count and the len_i are simulator bookkeeping, not model traffic: the
// frame is sent with clique.Exchanger.SendFramed(count, Σ len_i), so the
// per-edge word accounting (Stats.MaxEdgeWords, the O(log n)-bits-per-edge
// budget, strict bandwidth checks) charges exactly what count individually
// sent packets of the same contents would have cost.
//
// Ownership and lifetime rules:
//
//   - Frames are assembled by stager.flush from the staging log; both
//     buffers belong to the log's owner (a comm, or a presorted step
//     program's node) and are recycled every round. The engine copies the
//     words at delivery, so staging is allocation free in steady state.
//   - Decoded messages ([]clique.Word views produced by appendFrameMessages)
//     point into the engine's receive arena. They stay valid for
//     clique.PayloadGraceRounds further barriers of the instance; protocol
//     code must consume or copy them within that window (every constant-round
//     primitive in this package does).

// stager is the package's one outgoing frame stager. Messages are appended
// to a single flat log ([dst, len, payload...] records) during the round;
// flush then assembles one frame per busy destination in frameBuf and hands
// the frames to the engine. Two flat buffers instead of per-destination ones
// keep the cold-start cost of a fresh owner at O(1) allocations and the
// retained state proportional to the traffic actually staged: everything
// indexed by destination lives in the dstTables lent to flush.
//
// A comm's stager is part of its buffer set (see scratchStack); the rank
// redistribution that ends every sort borrows its buffers from rankLogs.
type stager struct {
	stage      []clique.Word
	stageLenAt int // index of the open record's length slot
	frameBuf   []clique.Word

	// tagEx is non-nil when the frames travel over a Mux's virtual node:
	// records are staged with frameTag ahead of their frame words and
	// handed over zero-copy via SendTagged.
	tagEx    clique.FrameTagger
	frameTag clique.Word
}

// rankLogs holds the logs of the rank redistribution that ends every sort,
// the one pool left on the comm path. A presorted step program's log outlives
// its step (the engine copies frames at delivery), so it cannot live on the
// sweep worker's stack, and a slot per node would pin n logs between runs of
// a large sparse clique; comms borrow theirs here too, so both sort arms
// keep one set of these largest logs warm.
var rankLogs = sync.Pool{New: func() any { return new(stager) }}

// dstTables is the per-destination accounting of one flush, indexed densely
// by destination and all-zero between flushes (flush re-zeroes it through the
// touched list). Only flush reads it, so it need not live with the log: it is
// part of commScratch, which a comm holds for its lifetime and a step program
// borrows one step at a time — under RunRounds at most one table per worker
// is in use, however many logs are alive.
type dstTables struct {
	load    []uint64 // per-destination (frame words << 32 | messages)
	off     []int32  // per-destination write cursor during assembly
	start   []int32  // per-destination frame start (single message: its record in the log)
	touched []int32  // destinations in first-touch order
}

// grow makes the tables cover destinations 0..size-1.
func (t *dstTables) grow(size int) {
	if len(t.load) < size {
		t.load = make([]uint64, size)
		t.off = make([]int32, size)
		t.start = make([]int32, size)
	}
}

// stageOpen starts a new logical message bound for destination dst (a local
// member index on a comm). Messages must be closed (stageClose) before the
// next open. On a tagged exchanger the record carries two extra header slots
// (tag and a count slot pre-set to 1) so that a destination's only message
// doubles as a complete tagged frame without any assembly copy.
func (s *stager) stageOpen(dst int) {
	if s.tagEx != nil {
		s.stage = append(s.stage, clique.Word(dst), s.frameTag, 1, 0)
	} else {
		s.stage = append(s.stage, clique.Word(dst), 0)
	}
	s.stageLenAt = len(s.stage) - 1
}

// stageWords appends payload words to the open message.
func (s *stager) stageWords(ws ...clique.Word) {
	s.stage = append(s.stage, ws...)
}

// stageClose finishes the open message by fixing its length slot.
func (s *stager) stageClose() {
	s.stage[s.stageLenAt] = clique.Word(len(s.stage) - s.stageLenAt - 1)
}

// send stages one logical message for destination dst.
func (s *stager) send(dst int, ws ...clique.Word) {
	s.stageOpen(dst)
	s.stageWords(ws...)
	s.stageClose()
}

// flush assembles the staging log into one frame per busy destination, in
// first-touch order, and hands the frames to ex accounted at their logical
// message count and model word cost. members maps a destination to its node
// identifier (nil: destinations are node identifiers). Both buffers are
// reused round over round; the engine copies the frame contents at delivery,
// so overwriting them at the next flush (which happens only after that
// delivery) is within the engine's buffer contract.
func (s *stager) flush(t *dstTables, ex clique.Exchanger, members []int) {
	if len(s.stage) == 0 {
		return
	}
	tagged := s.tagEx != nil
	hdrExtra := 0 // extra frame slots before the count slot (the tag)
	if tagged {
		hdrExtra = 1
	}
	recHdr := 2 + 2*hdrExtra // record slots before the payload: dst [tag 1] len
	for i := 0; i < len(s.stage); {
		d := int(s.stage[i])
		l := int(s.stage[i+recHdr-1])
		if t.load[d] == 0 {
			t.touched = append(t.touched, int32(d))
			// Remember the record start: if this stays the destination's only
			// message this round, it is sent straight from the log.
			t.start[d] = int32(i)
		}
		t.load[d] += uint64(l+1)<<32 | 1 // payload plus the length slot, one message
		i += recHdr + l
	}
	// Destinations with a single message are served straight from the
	// staging log: the record layout [dst, len, words...] doubles as the
	// frame [count=1, len, words...] once the dst slot is overwritten (on a
	// tagged exchanger the record [dst, tag, 1, len, words...] already ends
	// in a complete frame), so no assembly copy happens. The relay schedules
	// of Corollaries 3.3/3.4 spread traffic to one message per edge, making
	// this the common case.
	total := 0
	for _, d := range t.touched {
		if uint32(t.load[d]) > 1 {
			t.start[d] = int32(total)
			t.off[d] = int32(total + 1 + hdrExtra) // write cursor, past tag and count slots
			total += 1 + hdrExtra + int(t.load[d]>>32)
		}
	}
	if total > 0 {
		if cap(s.frameBuf) < total {
			s.frameBuf = make([]clique.Word, total, total+total/2)
		} else {
			s.frameBuf = s.frameBuf[:total]
		}
		for i := 0; i < len(s.stage); {
			d := int(s.stage[i])
			l := int(s.stage[i+recHdr-1])
			if uint32(t.load[d]) > 1 {
				cur := int(t.off[d])
				copy(s.frameBuf[cur:cur+1+l], s.stage[i+recHdr-1:i+recHdr+l])
				t.off[d] = int32(cur + 1 + l)
			}
			i += recHdr + l
		}
	}
	for _, d := range t.touched {
		load := t.load[d]
		count := int(uint32(load))
		size := 1 + int(load>>32) // untagged frame size: count slot plus records
		start := int(t.start[d])
		to := int(d)
		if members != nil {
			to = members[d]
		}
		if count == 1 {
			if tagged {
				// stage[start:] is [dst, tag, 1, len, words...]: everything
				// after the dst slot is the finished tagged frame.
				frame := s.stage[start+1 : start+2+size : start+2+size]
				s.tagEx.SendTagged(to, frame, 1, size-2)
			} else {
				frame := s.stage[start : start+size : start+size]
				frame[0] = 1
				ex.SendFramed(to, frame, 1, size-2)
			}
		} else {
			if tagged {
				s.frameBuf[start] = s.frameTag
				s.frameBuf[start+1] = clique.Word(count)
				s.tagEx.SendTagged(to, s.frameBuf[start:start+1+size:start+1+size], count, size-1-count)
			} else {
				s.frameBuf[start] = clique.Word(count)
				ex.SendFramed(to, s.frameBuf[start:start+size:start+size], count, size-1-count)
			}
		}
		t.load[d] = 0
	}
	t.touched = t.touched[:0]
	s.stage = s.stage[:0]
}

// appendFrameMessages decodes a frame and appends each logical message (as a
// view into the frame's backing words) to dst. Truncated or otherwise
// malformed frames are rejected with an error, never a panic.
func appendFrameMessages(dst [][]clique.Word, frame clique.Packet) ([][]clique.Word, error) {
	if len(frame) < 1 {
		return dst, fmt.Errorf("core: empty frame")
	}
	count := int(frame[0])
	if count < 0 || count > len(frame)-1 {
		return dst, fmt.Errorf("core: frame claims %d messages in %d words", count, len(frame))
	}
	off := 1
	for i := 0; i < count; i++ {
		if off >= len(frame) {
			return dst, fmt.Errorf("core: frame message %d/%d missing its length slot", i, count)
		}
		l := int(frame[off])
		off++
		if l < 0 || l > len(frame)-off {
			return dst, fmt.Errorf("core: frame message %d/%d truncated (%d words claimed, %d left)", i, count, l, len(frame)-off)
		}
		dst = append(dst, frame[off:off+l:off+l])
		off += l
	}
	if off != len(frame) {
		return dst, fmt.Errorf("core: frame carries %d trailing words", len(frame)-off)
	}
	return dst, nil
}

// AppendFrame encodes the logical messages msgs into dst as one flat frame
// ([count, len_1, msg_1 words..., ...]) and returns the grown slice. It is the
// encoding twin of DecodeFrame, exported for the repository benchmark's
// frame-codec timing (bench/); the service wire layer streams the same
// layout with its own writer.
func AppendFrame(dst []clique.Word, msgs ...[]clique.Word) []clique.Word {
	dst = append(dst, clique.Word(len(msgs)))
	for _, m := range msgs {
		dst = append(dst, clique.Word(len(m)))
		dst = append(dst, m...)
	}
	return dst
}

// DecodeFrame decodes a flat frame into its logical messages, appending each
// (as a view into the frame's backing words) to dst. Truncated or otherwise
// malformed frames are rejected with an error, never a panic — the same
// decoder the engine's receive path runs on every delivered frame, exported
// for the service wire layer.
func DecodeFrame(dst [][]clique.Word, frame []clique.Word) ([][]clique.Word, error) {
	return appendFrameMessages(dst, frame)
}

// rxBuf is the decoded receive state of one comm round: the logical messages
// of every received frame, flattened in ascending sender order. It is owned
// by the comm and reused round over round; all slices are views into the
// engine's receive arena (see the lifetime rules above).
type rxBuf struct {
	msgs  [][]clique.Word
	start []int32 // msgs[start[s]:start[s+1]] are the messages of sender s
}

// decodeInbox refills the buffer from a step-mode inbox of frames and the
// list of its senders (Exchanger.InboxSenders): their logical messages in
// ascending sender order, what comm.exchange's decode hands a blocking
// protocol. The per-sender index is not built.
func (r *rxBuf) decodeInbox(senders []int32, inbox clique.Inbox) ([][]clique.Word, error) {
	r.msgs = r.msgs[:0]
	for _, from := range senders {
		for _, frame := range inbox[from] {
			var err error
			if r.msgs, err = appendFrameMessages(r.msgs, frame); err != nil {
				return nil, err
			}
		}
	}
	return r.msgs, nil
}

// all returns every received message in ascending sender order.
func (r *rxBuf) all() [][]clique.Word { return r.msgs }

// fromSender returns the messages received from the local sender index s.
func (r *rxBuf) fromSender(s int) [][]clique.Word {
	return r.msgs[r.start[s]:r.start[s+1]]
}

// single returns the unique message received from sender s, or nil if none
// arrived. Protocols whose invariant is "at most one message per edge per
// round" use it; a violation surfaces the first message.
func (r *rxBuf) single(s int) []clique.Word {
	ms := r.fromSender(s)
	if len(ms) == 0 {
		return nil
	}
	return ms[0]
}
