package core

import (
	"cmp"
	"fmt"
	"slices"
	"sync/atomic"

	"congestedclique/internal/clique"
)

// Message is one unit of the Information Distribution Task (Problem 3.1):
// node Src must deliver Payload to node Dst. Seq is the message's index in
// the source's input; together (Src, Dst, Seq) order messages
// lexicographically and make them distinguishable, as required by the paper.
type Message struct {
	Src     int
	Dst     int
	Seq     int
	Payload int64
}

// compareMessages orders messages lexicographically by (Src, Dst, Seq), the
// global order used by Problem 3.1.
func compareMessages(a, b Message) int {
	if a.Src != b.Src {
		return a.Src - b.Src
	}
	if a.Dst != b.Dst {
		return a.Dst - b.Dst
	}
	// Seq is the caller's bookkeeping, any int: a difference could overflow.
	return cmp.Compare(a.Seq, b.Seq)
}

// Key is one unit of the sorting problem (Problem 4.1). Keys are made
// distinct by ordering them lexicographically by (Value, Origin, Seq), the
// paper's footnote-5 convention, so duplicate values are handled uniformly.
type Key struct {
	Value  int64
	Origin int
	Seq    int
}

// Less orders keys by (Value, Origin, Seq).
func (k Key) Less(o Key) bool {
	if k.Value != o.Value {
		return k.Value < o.Value
	}
	if k.Origin != o.Origin {
		return k.Origin < o.Origin
	}
	return k.Seq < o.Seq
}

// compareKeys is the three-way form of Key.Less used for sorting.
func compareKeys(a, b Key) int {
	switch {
	case a.Value < b.Value:
		return -1
	case a.Value > b.Value:
		return 1
	}
	if a.Origin != b.Origin {
		return a.Origin - b.Origin
	}
	return cmp.Compare(a.Seq, b.Seq)
}

// keyWords is the wire size of an encoded Key.
const keyWords = 3

func encodeKey(k Key) []clique.Word {
	return []clique.Word{k.Value, clique.Word(k.Origin), clique.Word(k.Seq)}
}

func decodeKey(w []clique.Word) (Key, error) {
	if len(w) < keyWords {
		return Key{}, fmt.Errorf("core: key payload too short: %d words", len(w))
	}
	return Key{Value: w[0], Origin: int(w[1]), Seq: int(w[2])}, nil
}

func sortKeys(ks []Key) {
	slices.SortFunc(ks, compareKeys)
}

// SortKeySlice sorts keys in the global order used by the sorting problem
// (ascending by value with the footnote-5 tie-break). It is exported for the
// verification and baseline packages.
func SortKeySlice(ks []Key) { sortKeys(ks) }

// SortMessageSlice sorts messages in the lexicographic order of Problem 3.1.
func SortMessageSlice(ms []Message) { sortMessages(ms) }

func sortMessages(ms []Message) {
	slices.SortFunc(ms, compareMessages)
}

// step identifies a protocol step: name is a static literal used only in
// error messages (never concatenated on the hot path), key is the unique
// shared-cache identity of the step within its instance.
type step struct {
	name string
	key  skey
}

// sub derives the step for a named sub-phase.
func (s step) sub(name string, code uint8) step {
	return step{name: name, key: s.key.sub(code)}
}

// skey encodes a step's position in the (static) call tree as packed 5-bit
// codes, so shared-cache lookups inside round loops hash a single integer
// instead of formatting strings.
type skey uint64

func (k skey) sub(code uint8) skey { return k<<5 | skey(code) }

// rootStep is the entry point key of every protocol; uniqueness across
// concurrently running protocols comes from the comm label.
func rootStep(name string) step { return step{name: name, key: 1} }

// Step path codes (unique per call-site level, 1..31).
const (
	kcTiny uint8 = iota + 1
	kcSquare
	kcGeneral
	kcV1
	kcV2
	kcCorner
	kcCornerDeliver
	kcSetColoring
	kcA2Announce
	kcA2Plan
	kcA2Move
	kcS3Announce
	kcS3Plan
	kcS3Move
	kcS5
	kcAnnounce
	kcDeliver
	kcColor
	kcSamples
	kcCounts
	kcExchange
	kcSortTiny
	kcSortS3
	kcSortS6
	kcSortS7
	kcLowS5
)

// comm is the execution context of one protocol instance: the Exchanger of
// this physical node plus the (sorted) member list of the sub-clique the
// instance runs on. All algorithm code addresses nodes by their local index
// within the member list; relays for Corollary 3.3 are likewise drawn from
// the member list, so an instance never touches edges with both endpoints
// outside its members (the property that lets instances run concurrently).
//
// The comm owns the instance's flat-frame pipeline state: the staging log
// (flushed into one SendFramed packet per busy edge at every exchange), the
// decoded receive buffer, and a word arena for the words it encodes. All
// of it is recycled round over round, so a steady-state protocol round
// performs no per-message allocation.
type comm struct {
	// ex is only ever received from with ExchangeFlat: the comm decodes the
	// raw [from, len, payload...] records delivery wrote, never a boxed Inbox.
	ex      clique.Exchanger
	members []int
	me      int // local index of this node, or -1 if it is not a member
	label   string

	// bufferSet is the set at the comm's depth on its executor's stack. On a
	// Mux's virtual node (stager.tagEx set) received flat records are shared
	// by all instances on the node, so exchange filters them by
	// stager.frameTag and strips it before decoding.
	*bufferSet
	stack *scratchStack
}

// scratchStack is the working memory of one executor, kept in its
// clique.ScratchHolder slot: sets[d] serves the comm at nesting depth d.
// Comms on one executor nest (a Rank's comm stays live while its route back
// runs, Algorithm 4's own comm while a replay's Step 6 router runs on the
// node) and are released innermost first. The protocols are deterministic,
// so a depth on a node serves the same role op after op, and a set grown to
// what it carved last carves the next op without allocating.
type scratchStack struct {
	sets []*bufferSet
	top  int // sets[:top] are taken
	// gate is the hitGate of the executor's cache-hit arm (an arm never
	// runs inside another); it is zeroed when the arm returns.
	gate hitGate
}

// bufferSet is one depth's buffers: a staging log and a scratch.
type bufferSet struct {
	stager
	commScratch
}

// stackOf returns the scratch stack of the executor ex runs on, looking
// through exchangers that filter another and name it with an Unwrap method
// (as clique.NewMux does). An exchanger that keeps no slot gets a stack of
// its own, dropped with its comms.
func stackOf(ex clique.Exchanger) *scratchStack {
	h, ok := ex.(clique.ScratchHolder)
	for !ok {
		w, filters := ex.(interface{ Unwrap() clique.Exchanger })
		if !filters {
			return new(scratchStack)
		}
		ex = w.Unwrap()
		h, ok = ex.(clique.ScratchHolder)
	}
	slot := h.ScratchSlot()
	s, _ := (*slot).(*scratchStack)
	if s == nil {
		s = new(scratchStack)
		*slot = s
	}
	return s
}

// push takes the set at the next depth.
func (s *scratchStack) push() *bufferSet {
	if s.top == len(s.sets) {
		s.sets = append(s.sets, new(bufferSet))
	}
	b := s.sets[s.top]
	s.top++
	return b
}

// pop hands back b, which must be the innermost set taken.
func (s *scratchStack) pop(b *bufferSet) {
	s.top--
	if s.sets[s.top] != b {
		panic("core: comm buffers released out of nesting order")
	}
}

// commScratch is the reusable buffer state of a comm (a presorted step
// program borrows one per step for its int and key arenas, its receive
// buffers and the destination tables of its flush). Releasing hands every
// buffer — including both arenas — to the next comm at that depth, so
// release is only legal once the comm's results have been fully copied out
// of arena-backed parcels, matrices and scratch slices (protocol entry
// points release after converting to caller-owned values, the
// V1/V2/corner routers after copying their deliveries into the parent's
// arena).
//
// Ownership of the int and key arenas: a matrix or vector carved by
// intMatrix/intVec, or a key slice carved by keyVec, lives until release and
// is never handed out twice before it. Nothing carved from them may be kept
// past release — a schedule capture (RouteSchedule.S5Counts,
// SortSchedule.Counts/Delims/S7Delims/S7Counts), which the plan cache keeps
// for later runs, stores a clone made at the capture site, and a sort's
// result batch is a fresh slice.
type commScratch struct {
	local []int32 // dense global id -> local index table, -1 for non-members

	dst dstTables // what the stager's flush needs per destination

	rx rxBuf // decoded inbound messages of the last exchange

	// arena backs the words a comm encodes itself rather than stages from
	// where they lie: a router's input parcels, Algorithm 4's key bundles
	// and the deliveries a V1/V2/corner sub-instance copies up. Growth is
	// append-only, so views stay valid across appends; arenaReset truncates
	// it (keeping capacity) at pipeline points where no views are live.
	arena []clique.Word

	// heldScratch is a set of rotating buffers for the held slices produced
	// at every pipeline hop. The rotation depth covers the maximum number of
	// such buffers simultaneously alive in any pipeline (current load,
	// decoded delivery, a result its caller is still assembling).
	heldScratch [3][]held
	heldCursor  int

	// posScratch maps a local member index to its position inside the group
	// currently being processed (-1 outside); groupPositions/releasePositions
	// maintain it so group lookups never hash.
	posScratch []int32
	// cursorScratch is a zeroed per-class counter slice handed out by cursors.
	cursorScratch []int

	// annRows and annOut back the per-sender result structure of
	// announceFixed: annOut's w buckets are carved out of the flat annRows
	// arena, so assembling an announcement result allocates nothing in steady
	// state. The structure is valid only until the comm's next announcement
	// (callers consume it immediately). annDemand/annDemandFlat likewise back
	// the uniform demand matrix every announcement hands to relayRoute, which
	// only reads it during the call.
	annRows       [][]clique.Word
	annOut        [][][]clique.Word
	annDemand     [][]int
	annDemandFlat []int

	// ints and intRows back the int matrices and vectors an instance builds
	// (announced count matrices, balance-plan squares and move demands, set
	// totals, per-class cursors): carved append-only by intVec/intMatrix and
	// emptied by ready. A carve that does not fit is allocated on its own;
	// intsWant/rowsWant total every carve since the last reset, and ready
	// grows an arena that falls short of them, so the next instance at this
	// depth carves without allocating.
	ints     []int
	intRows  [][]int
	intsWant int
	rowsWant int

	// keys backs the key slices a sort carves with keyVec — its sorted
	// input, samples, delimiters, routed keys and buckets — carved, counted
	// and sized like ints. A comm that carves no key grows no key arena.
	keys     []Key
	keysWant int
}

// intVec returns a zeroed vector of k ints carved from the int arena.
func (s *commScratch) intVec(k int) []int {
	s.intsWant += k
	n0 := len(s.ints)
	if n0+k > cap(s.ints) {
		return make([]int, k)
	}
	s.ints = s.ints[:n0+k]
	v := s.ints[n0 : n0+k : n0+k]
	clear(v)
	return v
}

// intMatrix returns a zeroed r-by-cols matrix carved from the int arena.
func (s *commScratch) intMatrix(r, cols int) [][]int {
	return s.matrixOver(s.intVec(r*cols), r, cols)
}

// matrixOver returns the r-by-cols matrix whose rows are consecutive
// windows of flat; the row headers are carved from the arena.
func (s *commScratch) matrixOver(flat []int, r, cols int) [][]int {
	s.rowsWant += r
	n0 := len(s.intRows)
	var rows [][]int
	if n0+r > cap(s.intRows) {
		rows = make([][]int, r)
	} else {
		s.intRows = s.intRows[:n0+r]
		rows = s.intRows[n0 : n0+r : n0+r]
	}
	for i := range rows {
		rows[i] = flat[i*cols : (i+1)*cols : (i+1)*cols]
	}
	return rows
}

// keyVec returns an empty slice with room for k keys carved from the key
// arena; the caller appends into it.
func (s *commScratch) keyVec(k int) []Key {
	s.keysWant += k
	n0 := len(s.keys)
	if n0+k > cap(s.keys) {
		return make([]Key, 0, k)
	}
	s.keys = s.keys[:n0+k]
	return s.keys[n0 : n0 : n0+k]
}

// uniformDemandMatrix returns the comm's reused w x w matrix with every cell set to
// u. It is only valid until the comm's next announcement.
func (c *comm) uniformDemandMatrix(w, u int) [][]int {
	if cap(c.annDemand) < w {
		c.annDemand = make([][]int, w)
	}
	m := c.annDemand[:w]
	if need := w * w; cap(c.annDemandFlat) < need {
		c.annDemandFlat = make([]int, need)
	}
	flat := c.annDemandFlat[:w*w]
	for i := range flat {
		flat[i] = u
	}
	for i := 0; i < w; i++ {
		m[i] = flat[i*w : (i+1)*w : (i+1)*w]
	}
	return m
}

// readyArenas empties the int and key arenas, first growing each to what
// it carved last. A presorted step program, which borrows a buffer set for
// one step without building a comm on it, readies only these.
func (s *commScratch) readyArenas() {
	if cap(s.ints) < s.intsWant {
		s.ints = make([]int, 0, s.intsWant)
	}
	if cap(s.intRows) < s.rowsWant {
		s.intRows = make([][]int, 0, s.rowsWant)
	}
	if cap(s.keys) < s.keysWant {
		s.keys = make([]Key, 0, s.keysWant)
	}
	s.ints, s.intRows, s.keys = s.ints[:0], s.intRows[:0], s.keys[:0]
	s.intsWant, s.rowsWant, s.keysWant = 0, 0, 0
}

// ready empties the scratch for an instance with the given member count on
// a clique of n nodes, first growing each arena to what it carved last.
func (s *commScratch) ready(size, n int) {
	s.readyArenas()
	if cap(s.local) < n {
		s.local = make([]int32, n)
	}
	s.local = s.local[:n]
	for i := range s.local {
		s.local[i] = -1
	}
	s.dst.grow(size)
	// A released comm may have aborted mid-flush (a send to an invalid node
	// panics), so the per-destination accounting cannot be assumed clean.
	clear(s.dst.load)
	s.dst.touched = s.dst.touched[:0]
	s.arena = s.arena[:0]
	if cap(s.posScratch) < size {
		s.posScratch = make([]int32, size)
	}
	s.posScratch = s.posScratch[:size]
	for i := range s.posScratch {
		s.posScratch[i] = -1
	}
	s.heldCursor = 0
}

// release hands the comm's buffers back to its executor's stack. It must
// only be called when the comm will neither send nor receive again, after
// every comm taken after it on the executor has been released; results that
// borrow the arena remain valid (see commScratch), but the caller must have
// stopped using rx views and held scratch slices.
func (c *comm) release() {
	if c.bufferSet == nil {
		return
	}
	c.tagEx = nil // the stack must not pin a finished run's exchanger
	c.stack.pop(c.bufferSet)
	c.bufferSet = nil
}

// newComm builds the context for an instance named label (labels scope the
// deterministic shared-computation cache) with the given members, on the
// next buffer set of ex's executor. Members must be sorted, distinct and
// valid node identifiers.
func newComm(ex clique.Exchanger, label string, members []int) (*comm, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("core: instance %q has no members", label)
	}
	for i, g := range members {
		if g < 0 || g >= ex.N() {
			return nil, fmt.Errorf("core: instance %q member %d out of range", label, g)
		}
		if i > 0 && members[i-1] >= g {
			return nil, fmt.Errorf("core: instance %q members not sorted/distinct at index %d", label, i)
		}
	}
	stack := stackOf(ex)
	set := stack.push()
	set.ready(len(members), ex.N())
	for i, g := range members {
		set.local[g] = int32(i)
	}
	me := -1
	if idx := set.local[ex.ID()]; idx >= 0 {
		me = int(idx)
	}
	set.stage = set.stage[:0] // a released owner may have aborted mid-round
	if ft, ok := ex.(clique.FrameTagger); ok {
		set.tagEx, set.frameTag = ft, ft.FrameTag()
	}
	return &comm{ex: ex, members: members, me: me, label: label, bufferSet: set, stack: stack}, nil
}

// identity holds 0, 1, 2, ...: the member list of every full comm on n
// nodes is its n-prefix, shared read-only (no comm writes its members).
var identity atomic.Pointer[[]int]

// identityMembers returns the read-only member list 0..n-1.
func identityMembers(n int) []int {
	for {
		p := identity.Load()
		if p != nil && len(*p) >= n {
			return (*p)[:n:n]
		}
		ids := make([]int, n)
		for i := range ids {
			ids[i] = i
		}
		if identity.CompareAndSwap(p, &ids) {
			return ids[:n:n]
		}
	}
}

// fullComm is the common case of an instance spanning the whole clique.
func fullComm(ex clique.Exchanger, label string) *comm {
	c, err := newComm(ex, label, identityMembers(ex.N()))
	if err != nil {
		// Cannot happen: the member list is valid by construction and both
		// of the engine's exchangers receive flat.
		panic(err)
	}
	return c
}

// size returns the number of members.
func (c *comm) size() int { return len(c.members) }

// isMember reports whether this node belongs to the instance.
func (c *comm) isMember() bool { return c.me >= 0 }

// global converts a local member index to a global node identifier.
func (c *comm) global(local int) int { return c.members[local] }

// localOf converts a global node identifier to a local index.
func (c *comm) localOf(global int) (int, bool) {
	if global < 0 || global >= len(c.local) {
		return -1, false
	}
	idx := c.local[global]
	return int(idx), idx >= 0
}

// sendHeld stages one held parcel for the member with the given local index.
func (c *comm) sendHeld(localTo int, h held) {
	c.stageOpen(localTo)
	c.stageHeld(h)
	c.stageClose()
}

// stageHeld appends a held parcel's wire form to the open message.
func (c *comm) stageHeld(h held) {
	c.stageWords(clique.Word(h.dstLocal), clique.Word(h.interSet), clique.Word(h.src))
	c.stageWords(h.payload...)
}

// exchange flushes the staged frames, runs one round barrier and decodes
// everything received into the comm's reusable receive buffer. Frames from
// non-members are ignored (well-formed instances never produce them). The
// returned buffer and every message in it are only valid until the next
// exchange on this comm; message words follow the engine's payload grace
// rules (clique.PayloadGraceRounds).
func (c *comm) exchange() (*rxBuf, error) {
	c.flush(&c.dst, c.ex, c.members)
	rx := &c.rx
	rx.msgs = rx.msgs[:0]
	if cap(rx.start) < c.size()+1 {
		rx.start = make([]int32, c.size()+1)
	} else {
		rx.start = rx.start[:c.size()+1]
	}

	// Decode the raw [from, len, payload...] records the deliverer wrote into
	// the receive arena. Records arrive in ascending sender order, so the
	// per-sender index is built in the same sweep. On a tagged exchanger the
	// inbox is shared by every instance on the node: records of other
	// instances are skipped by tag, and this instance's records carry the tag
	// as their first payload word.
	flat, err := c.ex.ExchangeFlat()
	if err != nil {
		return nil, fmt.Errorf("core: instance %q exchange: %w", c.label, err)
	}
	tagged := c.tagEx != nil
	cur := 0
	for i := 0; i < len(flat); {
		if i+2 > len(flat) {
			return nil, fmt.Errorf("core: instance %q: truncated flat record", c.label)
		}
		from := int(flat[i])
		l := int(flat[i+1])
		if l < 0 || i+2+l > len(flat) {
			return nil, fmt.Errorf("core: instance %q: malformed flat record", c.label)
		}
		frame := clique.Packet(flat[i+2 : i+2+l : i+2+l])
		i += 2 + l
		if tagged {
			if l < 1 || frame[0] != c.frameTag {
				continue // another instance's record
			}
			frame = frame[1:]
			l--
		}
		if from < 0 || from >= len(c.local) {
			return nil, fmt.Errorf("core: instance %q: flat record from invalid node %d", c.label, from)
		}
		li := int(c.local[from])
		if li < 0 {
			continue // sender is not a member of this instance
		}
		for cur <= li {
			rx.start[cur] = int32(len(rx.msgs))
			cur++
		}
		// The single-message frame layout [1, len, words...] is by far the
		// most common (relay schedules spread to one message per edge), so
		// decode it without the general frame walk.
		if l >= 2 && frame[0] == 1 && int(frame[1]) == l-2 {
			rx.msgs = append(rx.msgs, frame[2:l:l])
			continue
		}
		rx.msgs, err = appendFrameMessages(rx.msgs, frame)
		if err != nil {
			if isAbort(frame) {
				return nil, fmt.Errorf("core: instance %q: node %d abandoned the run", c.label, from)
			}
			return nil, fmt.Errorf("core: instance %q: %w", c.label, err)
		}
	}
	for ; cur <= c.size(); cur++ {
		rx.start[cur] = int32(len(rx.msgs))
	}
	return rx, nil
}

// abandon ends this node's part of a replay whose backstop rejected the
// cached schedule, so that the whole run fails rather than the nodes the
// rejecting one happened to serve: it sends the abort packet to every node
// in the round they expect its traffic (no frame is one word long, so every
// comm receiving it fails that exchange), then returns err.
func (c *comm) abandon(err error) error {
	sendAbort(c.ex)
	if _, xErr := c.ex.ExchangeFlat(); xErr != nil {
		return xErr
	}
	return err
}

// shared runs a deterministic computation identically known to all members
// and memoises it under the step's key. group discriminates concurrent
// groups executing the same step (-1 for instance-wide computations).
func (c *comm) shared(key skey, group int32, f func() interface{}) interface{} {
	return c.ex.SharedComputeKeyed(clique.SharedKey{Label: c.label, Path: uint64(key), Group: group}, f)
}

// arenaAppend copies ws into the instance arena and returns the stable view.
func (c *comm) arenaAppend(ws ...clique.Word) []clique.Word {
	n0 := len(c.arena)
	c.arena = append(c.arena, ws...)
	return c.arena[n0:len(c.arena):len(c.arena)]
}

// arenaMark returns the current arena position; arenaView returns the words
// appended since a mark as a stable view.
func (c *comm) arenaMark() int { return len(c.arena) }

func (c *comm) arenaView(mark int) []clique.Word {
	return c.arena[mark:len(c.arena):len(c.arena)]
}

// arenaReset truncates the arena, keeping its capacity. Callers must ensure
// no views into the arena are still live — the safe points are right after a
// pipeline hop has decoded its delivery (all previously encoded payloads
// have been staged, copied into frames and delivered by then).
func (c *comm) arenaReset() { c.arena = c.arena[:0] }

// heldSlot hands out the next rotating held scratch buffer, emptied. The
// caller appends through the returned pointer (so the grown capacity is kept
// for the next rotation). Contents of the slot handed out len(heldScratch)
// rotations ago are overwritten — the pipelines above never keep a held
// slice alive that long.
func (c *comm) heldSlot() *[]held {
	c.heldCursor = (c.heldCursor + 1) % len(c.heldScratch)
	s := &c.heldScratch[c.heldCursor]
	*s = (*s)[:0]
	return s
}

// groupPositions fills the comm's dense position table for the given group
// (local member indices) and returns it; the caller must releasePositions
// with the same group when done. Nested use is not allowed.
func (c *comm) groupPositions(group []int) []int32 {
	for i, g := range group {
		c.posScratch[g] = int32(i)
	}
	return c.posScratch
}

func (c *comm) releasePositions(group []int) {
	for _, g := range group {
		c.posScratch[g] = -1
	}
}

// cursors returns a zeroed scratch slice of k counters, reused across calls.
func (c *comm) cursors(k int) []int {
	if cap(c.cursorScratch) < k {
		c.cursorScratch = make([]int, k)
	}
	c.cursorScratch = c.cursorScratch[:k]
	clear(c.cursorScratch)
	return c.cursorScratch
}

// grouping splits the members of a comm into consecutive groups of equal size
// g: group i consists of local indices [i*g, (i+1)*g). The member count must
// be divisible by g.
type grouping struct {
	groupSize int
	numGroups int
}

func newGrouping(memberCount, groupSize int) (grouping, error) {
	if groupSize <= 0 || memberCount%groupSize != 0 {
		return grouping{}, fmt.Errorf("core: cannot split %d members into groups of %d", memberCount, groupSize)
	}
	return grouping{groupSize: groupSize, numGroups: memberCount / groupSize}, nil
}

// groupOf returns the group index of a local member index.
func (g grouping) groupOf(local int) int { return local / g.groupSize }

// indexInGroup returns the position of a local member index within its group.
func (g grouping) indexInGroup(local int) int { return local % g.groupSize }

// member returns the local index of the idx-th member of group grp.
func (g grouping) member(grp, idx int) int { return grp*g.groupSize + idx }

// isqrt returns the integer square root of n.
func isqrt(n int) int {
	if n < 0 {
		return 0
	}
	r := 0
	for (r+1)*(r+1) <= n {
		r++
	}
	return r
}

// isPerfectSquare reports whether n is a perfect square.
func isPerfectSquare(n int) bool {
	s := isqrt(n)
	return s*s == n
}

// cloneIntMatrix returns a copy of m whose rows share one fresh backing
// array: what a capture stores of a matrix carved from a comm's int arena.
func cloneIntMatrix(m [][]int) [][]int {
	total := 0
	for _, row := range m {
		total += len(row)
	}
	backing := make([]int, 0, total)
	out := make([][]int, len(m))
	for i, row := range m {
		n0 := len(backing)
		backing = append(backing, row...)
		out[i] = backing[n0:len(backing):len(backing)]
	}
	return out
}

// ceilDiv returns ceil(a/b) for positive b.
func ceilDiv(a, b int) int {
	if a <= 0 {
		return 0
	}
	return (a + b - 1) / b
}
