package clique

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// countPackets returns the total number of packets in an inbox.
func countPackets(in Inbox) int {
	total := 0
	for _, ps := range in {
		total += len(ps)
	}
	return total
}

// rxPacket is one decoded received packet; data is the engine-owned view.
type rxPacket struct {
	from int
	data Packet
}

// canonical renders decoded packets as untagged [from, len, payload...]
// words (copied), the form every receive path is compared in.
func canonical(ps []rxPacket) []Word {
	out := []Word{}
	for _, p := range ps {
		out = append(out, Word(p.from), Word(len(p.data)))
		out = append(out, p.data...)
	}
	return out
}

// unbox lists the packets of a boxed inbox in the order it presents them.
func unbox(inbox Inbox) []rxPacket {
	var out []rxPacket
	for from, ps := range inbox {
		for _, p := range ps {
			out = append(out, rxPacket{from, p})
		}
	}
	return out
}

// sendersMatch checks InboxSenders against the inbox it describes: exactly
// the senders with a table entry, ascending — none left over from an earlier
// round when the inbox is nil.
func sendersMatch(ex Exchanger, inbox Inbox) error {
	want := []int32{}
	for from, ps := range inbox {
		if len(ps) > 0 {
			want = append(want, int32(from))
		}
	}
	if got := append([]int32{}, ex.InboxSenders()...); !reflect.DeepEqual(got, want) {
		return fmt.Errorf("node %d: InboxSenders %v, the inbox holds senders %v", ex.ID(), got, want)
	}
	return nil
}

// receive performs one exchange on ex through the boxed or the flat receive
// path and decodes the result in the order the path presents it. A flat
// receiver on a passthrough Mux instance does what FrameTagger asks of it:
// filter the shared records by the instance tag and strip it.
func receive(ex Exchanger, boxed bool) ([]rxPacket, error) {
	if boxed {
		inbox, err := ex.Exchange()
		if err != nil {
			return nil, err
		}
		if inbox != nil && len(inbox) != ex.N() {
			return nil, fmt.Errorf("node %d: boxed inbox has %d entries, want %d", ex.ID(), len(inbox), ex.N())
		}
		return unbox(inbox), sendersMatch(ex, inbox)
	}
	flat, err := ex.ExchangeFlat()
	if err != nil {
		return nil, err
	}
	tag, tagged := Word(0), false
	if ft, ok := ex.(FrameTagger); ok {
		tag, tagged = ft.FrameTag(), true
	}
	var out []rxPacket
	for i := 0; i < len(flat); {
		from, l := int(flat[i]), int(flat[i+1])
		p := Packet(flat[i+2 : i+2+l])
		i += 2 + l
		if tagged {
			if len(p) == 0 || p[0] != tag {
				continue
			}
			p = p[1:]
		}
		out = append(out, rxPacket{from, p})
	}
	return out, nil
}

// sendSpec is one packet of a test traffic pattern.
type sendSpec struct {
	to   int
	data Packet
}

// viewTraffic is the seeded traffic pattern of TestReceiveViewsAgree: what
// node from sends in round r. Every sender opens with a zero-length packet
// and a second packet on the same edge (a multi-packet edge), then sends
// packets of 0..3 words, and the rounds cycle through the shapes delivery
// tells apart (see Node.publish):
//   - r%3 == 0, dense: nobody is silent and everybody sends one packet to
//     every node plus up to n more, so every outbox is sorted by receiver;
//   - r%3 == 1, mixed: a quarter of the senders are silent, node 0 (never
//     silent) sends only its opener and the others at least n/2 packets, so
//     from n = 6 on one unsorted outbox sends the round down the sender-major
//     loop;
//   - r%3 == 2, sparse: a quarter silent, the others at most two packets
//     beyond the opener, so from n = 10 on no outbox is sorted.
func viewTraffic(seed int64, n, r, from int) []sendSpec {
	rng := rand.New(rand.NewSource(seed + int64(r)*1_000_003 + int64(from)*7919))
	if r%3 != 0 && rng.Intn(4) == 0 && (r%3 != 1 || from != 0) {
		return nil
	}
	word := func(k int) Word { return Word(r)<<40 | Word(from)<<20 | Word(k) }
	next := (from + 1) % n
	sends := []sendSpec{{next, Packet{}}, {next, Packet{word(0)}}}
	packet := func(k int) Packet {
		data := make(Packet, rng.Intn(4))
		for j := range data {
			data[j] = word(k*4 + j)
		}
		return data
	}
	extra := 0
	switch r % 3 {
	case 0:
		for to := 0; to < n; to++ {
			sends = append(sends, sendSpec{to, packet(to + 1)})
		}
		extra = rng.Intn(n + 1)
	case 1:
		if from != 0 {
			extra = n/2 + rng.Intn(n+1)
		}
	default:
		extra = rng.Intn(3)
	}
	for k := 1; k <= extra; k++ {
		sends = append(sends, sendSpec{rng.Intn(n), packet(n + k)})
	}
	return sends
}

// viewCase is one way of receiving the pattern. transport groups the cases
// whose Metrics must be identical (a Mux adds one tag word per message per
// layer); boxed picks the receive path per (node, instance, round), so a
// mixed case has flat and boxed receivers in the same round; senderMajor
// keeps every round on the sender-major delivery loop.
type viewCase struct {
	name        string
	transport   string
	step        bool
	boxed       func(id, instance, r int) bool
	senderMajor bool
}

func viewCases() []viewCase {
	flat := func(int, int, int) bool { return false }
	boxed := func(int, int, int) bool { return true }
	mixed := func(id, instance, r int) bool { return (id+instance+r)%2 == 0 }
	var cases []viewCase
	for _, transport := range []string{"node", "mux", "stacked"} {
		cases = append(cases,
			viewCase{transport + "/flat", transport, false, flat, false},
			viewCase{transport + "/boxed", transport, false, boxed, false},
			viewCase{transport + "/mixed", transport, false, mixed, false},
			viewCase{transport + "/mixed/sender-major", transport, false, mixed, true})
	}
	return append(cases,
		viewCase{"node/step", "node", true, boxed, false},
		viewCase{"node/step/sender-major", "node", true, boxed, true})
}

// onTransport runs prog for physical node nd on the case's transport: the
// node itself, two instances of a passthrough Mux on it, or two instances of
// a Mux stacked on an instance of a Mux on it. Every instance runs the same
// program on its own, independent traffic.
func onTransport(transport string, nd *Node, prog func(ex Exchanger, instance int) error) error {
	instances := func(ex Exchanger) error {
		return NewMux(ex).Run([]func(Exchanger) error{
			1: func(ex Exchanger) error { return prog(ex, 1) },
			4: func(ex Exchanger) error { return prog(ex, 4) },
		})
	}
	switch transport {
	case "node":
		return prog(nd, 0)
	case "mux":
		return instances(nd)
	default:
		return NewMux(nd).Run([]func(Exchanger) error{2: instances})
	}
}

// TestReceiveViewsAgree pins the one receive format against every reader of
// it: Node.ExchangeFlat, Node.Exchange, the RunRounds step inbox and
// VNode.Exchange/ExchangeFlat on a passthrough and on a stacked Mux, with
// flat and boxed receivers mixed in one round, must all decode one seeded
// traffic pattern (dense, mixed and sparse rounds, multi-packet edges,
// zero-length packets, silent senders, a receiver that departs mid-run, just
// before a dense round) to the sequence computed from the pattern itself —
// ascending sender, send order within a sender — whichever delivery loop ran,
// with identical Metrics per transport, and keep payload views readable for
// the grace window.
func TestReceiveViewsAgree(t *testing.T) {
	t.Parallel()
	testGraceWindow(t)
	const (
		seed   = 20260929
		rounds = 6
	)
	for _, n := range []int{1, 7, 64} {
		// life[i] is the number of rounds node i takes part in; the middle
		// node departs half-way, after which its traffic is dropped.
		life := make([]int, n)
		for i := range life {
			life[i] = rounds
		}
		if n > 1 {
			life[n/2] = rounds / 2
		}
		want := make([][][]Word, n) // [receiver][round] canonical records
		for to := range want {
			want[to] = make([][]Word, life[to])
			for r := range want[to] {
				var ps []rxPacket
				for from := 0; from < n; from++ {
					if r >= life[from] {
						continue
					}
					for _, pp := range viewTraffic(seed, n, r, from) {
						if pp.to == to {
							ps = append(ps, rxPacket{from, pp.data})
						}
					}
				}
				want[to][r] = canonical(ps)
			}
		}

		metrics := map[string]Metrics{}
		for _, tc := range viewCases() {
			t.Run(fmt.Sprintf("n=%d/%s", n, tc.name), func(t *testing.T) {
				nw, err := New(n, WithWorkers(3))
				if err != nil {
					t.Fatal(err)
				}
				defer nw.Close()
				nw.forceSenderMajor = tc.senderMajor
				// got[instance][receiver][round]; instances write disjoint slots.
				got := map[int][][][]Word{}
				for _, inst := range []int{0, 1, 4} {
					got[inst] = make([][][]Word, n)
					for i := range got[inst] {
						got[inst][i] = make([][]Word, life[i])
					}
				}
				send := func(ex Exchanger, r int) {
					for _, pp := range viewTraffic(seed, n, r, ex.ID()) {
						ex.Send(pp.to, pp.data)
					}
				}
				if tc.step {
					err = nw.RunRounds(func(nd *Node, r int, inbox Inbox) (bool, error) {
						if r > 0 {
							got[0][nd.ID()][r-1] = canonical(unbox(inbox))
						}
						if err := sendersMatch(nd, inbox); err != nil || r == life[nd.ID()] {
							return true, err
						}
						send(nd, r)
						return false, nil
					})
				} else {
					err = nw.Run(func(nd *Node) error {
						return onTransport(tc.transport, nd, func(ex Exchanger, instance int) error {
							for r := 0; r < life[ex.ID()]; r++ {
								send(ex, r)
								ps, err := receive(ex, tc.boxed(ex.ID(), instance, r))
								if err != nil {
									return err
								}
								got[instance][ex.ID()][r] = canonical(ps)
							}
							return nil
						})
					})
				}
				if err != nil {
					t.Fatal(err)
				}
				insts := []int{0}
				if tc.transport != "node" {
					insts = []int{1, 4}
				}
				for _, inst := range insts {
					for id := range want {
						for r := range want[id] {
							if !reflect.DeepEqual(got[inst][id][r], want[id][r]) {
								t.Fatalf("instance %d node %d round %d decoded\n%v\nwant\n%v", inst, id, r, got[inst][id][r], want[id][r])
							}
						}
					}
				}
				m := nw.Metrics()
				if m.Rounds != rounds {
					t.Fatalf("rounds = %d, want %d", m.Rounds, rounds)
				}
				if n > 1 && m.DroppedToDeparted == 0 {
					t.Fatal("test setup: nothing was sent to the departed receiver")
				}
				if ref, ok := metrics[tc.transport]; !ok {
					metrics[tc.transport] = m
				} else if !reflect.DeepEqual(m, ref) {
					t.Fatalf("metrics differ from the %s transport's first case:\n%+v\nwant\n%+v", tc.transport, m, ref)
				}
			})
		}
	}
}

// testGraceWindow: payload views taken from round r are intact after
// PayloadGraceRounds further exchanges on every receive path, however much
// later traffic churned the arenas, rings and views in between.
func testGraceWindow(t *testing.T) {
	const n = 9
	payload := func(r, from, to int) Packet {
		p := make(Packet, 1+(from+to+r)%5)
		for j := range p {
			p[j] = Word(r)<<40 | Word(from)<<20 | Word(to)<<8 | Word(j)
		}
		return p
	}
	// Later rounds carry (r+1) packets per edge, so every buffer the kept
	// views point into is regrown, not just rewritten.
	send := func(ex Exchanger, r int) {
		for to := 0; to < n; to++ {
			for k := 0; k <= r; k++ {
				ex.Send(to, payload(r, ex.ID(), to))
			}
		}
	}
	check := func(id int, kept []rxPacket) error {
		if len(kept) != n {
			return fmt.Errorf("node %d kept %d round-0 packets, want %d", id, len(kept), n)
		}
		for _, p := range kept {
			if want := payload(0, p.from, id); !reflect.DeepEqual(p.data, want) {
				return fmt.Errorf("node %d: round-0 packet from %d reads %v after %d further exchanges, want %v",
					id, p.from, p.data, PayloadGraceRounds, want)
			}
		}
		return nil
	}
	for _, tc := range viewCases() {
		t.Run("grace/"+tc.name, func(t *testing.T) {
			nw, err := New(n, WithWorkers(2))
			if err != nil {
				t.Fatal(err)
			}
			defer nw.Close()
			nw.forceSenderMajor = tc.senderMajor
			if tc.step {
				kept := make([][]rxPacket, n)
				err = nw.RunRounds(func(nd *Node, r int, inbox Inbox) (bool, error) {
					if r == 1 {
						kept[nd.ID()] = unbox(inbox)
					}
					if r == 1+PayloadGraceRounds {
						return true, check(nd.ID(), kept[nd.ID()])
					}
					send(nd, r)
					return false, nil
				})
			} else {
				err = nw.Run(func(nd *Node) error {
					return onTransport(tc.transport, nd, func(ex Exchanger, instance int) error {
						var kept []rxPacket
						for r := 0; r <= PayloadGraceRounds; r++ {
							send(ex, r)
							ps, err := receive(ex, tc.boxed(ex.ID(), instance, r))
							if err != nil {
								return err
							}
							if r == 0 {
								kept = ps
							}
						}
						return check(ex.ID(), kept)
					})
				})
			}
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// viewAtRest reports whether a pooled view pins anything: a view its owner
// has let go of must have an all-nil sender table and no packet header left
// anywhere in its scratch, so pooled buffers reference no arena memory.
func viewAtRest(v *inboxView) error {
	if len(v.touched) != 0 || len(v.hdr) != 0 {
		return fmt.Errorf("%d touched senders, %d headers still live", len(v.touched), len(v.hdr))
	}
	for s, ps := range v.table {
		if ps != nil {
			return fmt.Errorf("table entry %d still set", s)
		}
	}
	for i, p := range v.hdr[:cap(v.hdr)] {
		if p != nil {
			return fmt.Errorf("header scratch slot %d still references payload", i)
		}
	}
	return nil
}

// TestPooledBuffersAcrossSizes moves one pooled netBuffers set between
// networks of different sizes (8 -> 64 -> 8 -> 64) and runs all three
// receivers on each: every inbox must hold exactly its own network's traffic
// (an n-entry table, no record or view inherited from the other size), and
// every Close must hand the views back pinning nothing.
func TestPooledBuffersAcrossSizes(t *testing.T) {
	const rounds = 3
	payload := func(n, r, from, to, k int) Packet {
		return Packet{Word(n), Word(r), Word(from), Word(to), Word(k)}
	}
	// exercise runs boxed, flat and step on nw and checks exact contents:
	// two packets on every edge, every round.
	exercise := func(nw *Network) error {
		n := nw.N()
		send := func(nd *Node, r int) {
			for to := 0; to < n; to++ {
				nd.Send(to, payload(n, r, nd.ID(), to, 0))
				nd.Send(to, payload(n, r, nd.ID(), to, 1))
			}
		}
		check := func(id, r int, got []Word) error {
			var want []rxPacket
			for from := 0; from < n; from++ {
				want = append(want, rxPacket{from, payload(n, r, from, id, 0)}, rxPacket{from, payload(n, r, from, id, 1)})
			}
			if !reflect.DeepEqual(got, canonical(want)) {
				return fmt.Errorf("n=%d node %d round %d received %v", n, id, r, got)
			}
			return nil
		}
		for _, boxed := range []bool{true, false} {
			if err := nw.Run(func(nd *Node) error {
				for r := 0; r < rounds; r++ {
					send(nd, r)
					ps, err := receive(nd, boxed)
					if err != nil {
						return err
					}
					if err := check(nd.ID(), r, canonical(ps)); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				return err
			}
		}
		return nw.RunRounds(func(nd *Node, r int, inbox Inbox) (bool, error) {
			if r > 0 {
				if len(inbox) != n {
					return true, fmt.Errorf("n=%d node %d: step inbox has %d entries", n, nd.ID(), len(inbox))
				}
				if err := check(nd.ID(), r-1, canonical(unbox(inbox))); err != nil {
					return true, err
				}
			}
			if r == rounds {
				return true, nil
			}
			send(nd, r)
			return false, nil
		})
	}

	// sync.Pool may drop or hand elsewhere any buffer set (under -race it
	// drops a share of every Put on purpose), so a chain only counts when
	// each New picked up the set the previous Close released.
	for attempt := 0; attempt < 200; attempt++ {
		var carried *netBuffers
		chained := true
		for _, n := range []int{8, 64, 8, 64} {
			nw, err := New(n, WithWorkers(3))
			if err != nil {
				t.Fatal(err)
			}
			b := nw.buffers
			if carried != nil && b != carried {
				chained = false
			}
			if chained {
				if err := exercise(nw); err != nil {
					t.Fatal(err)
				}
			}
			if err := nw.Close(); err != nil {
				t.Fatal(err)
			}
			if !chained {
				break
			}
			for i := range b.views {
				if err := viewAtRest(&b.views[i]); err != nil {
					t.Fatalf("n=%d: pooled view %d after Close: %v", n, i, err)
				}
			}
			// Every round here is dense, so both outbox arrays of every
			// node have held packets; neither may pin one after Close.
			for i := 0; i < n; i++ {
				for _, arr := range [][]pendingPacket{b.pending[i], b.spare[i]} {
					if cap(arr) == 0 {
						t.Fatalf("n=%d: node %d's outbox arrays were not both used", n, i)
					}
					for k, pp := range arr[:cap(arr)] {
						if pp != (pendingPacket{}) {
							t.Fatalf("n=%d: node %d's pooled outbox array pins packet %d after Close", n, i, k)
						}
					}
				}
			}
			carried = b
		}
		if chained {
			return
		}
	}
	t.Fatal("the buffer pool never carried one netBuffers set through the whole size chain")
}
