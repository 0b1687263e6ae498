package core

import (
	"bytes"
	"encoding/binary"
	"testing"

	"congestedclique/internal/clique"
)

// encodeFrameRef is the reference encoder for the frame wire layout
// ([count, len_1, msg_1..., ..., len_k, msg_k...]); stager.flush must
// stay byte-compatible with it.
func encodeFrameRef(msgs [][]clique.Word) clique.Packet {
	frame := clique.Packet{clique.Word(len(msgs))}
	for _, m := range msgs {
		frame = append(frame, clique.Word(len(m)))
		frame = append(frame, m...)
	}
	return frame
}

// FuzzFrameRoundTrip checks that the frame codec round-trips arbitrary
// message batches, rejects every strict prefix of a valid frame (truncation
// can never pass silently) and never panics on arbitrary word soup.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{1, 0})
	f.Add([]byte{3, 1, 42, 2, 7, 7, 0})
	f.Add([]byte{255, 255, 255, 255, 255, 255, 255, 255, 1})
	f.Add(bytes.Repeat([]byte{5, 1, 2, 3}, 16))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Derive a message batch from the fuzz input: alternating length
		// nibbles and payload bytes.
		var msgs [][]clique.Word
		i := 0
		for i < len(data) && len(msgs) < 32 {
			l := int(data[i] % 9)
			i++
			var m []clique.Word
			for j := 0; j < l && i < len(data); j++ {
				m = append(m, clique.Word(int8(data[i])))
				i++
			}
			msgs = append(msgs, m)
		}
		frame := encodeFrameRef(msgs)

		// Round trip.
		out, err := appendFrameMessages(nil, frame)
		if err != nil {
			t.Fatalf("valid frame rejected: %v", err)
		}
		if len(out) != len(msgs) {
			t.Fatalf("decoded %d messages, encoded %d", len(out), len(msgs))
		}
		for k := range msgs {
			if len(out[k]) != len(msgs[k]) {
				t.Fatalf("message %d: decoded %d words, encoded %d", k, len(out[k]), len(msgs[k]))
			}
			for w := range msgs[k] {
				if out[k][w] != msgs[k][w] {
					t.Fatalf("message %d word %d: decoded %d, encoded %d", k, w, out[k][w], msgs[k][w])
				}
			}
		}

		// Every strict prefix must be rejected, not silently mis-decoded.
		for cut := 0; cut < len(frame); cut++ {
			if _, err := appendFrameMessages(nil, frame[:cut]); err == nil {
				t.Fatalf("truncated frame (%d of %d words) decoded without error", cut, len(frame))
			}
		}

		// Arbitrary word soup derived from the raw bytes must never panic.
		soup := make(clique.Packet, 0, (len(data)+7)/8)
		for o := 0; o < len(data); o += 8 {
			var buf [8]byte
			copy(buf[:], data[o:])
			soup = append(soup, clique.Word(binary.LittleEndian.Uint64(buf[:])))
		}
		if out, err := appendFrameMessages(nil, soup); err == nil {
			// A coincidentally valid frame must still satisfy the layout.
			total := 1
			for _, m := range out {
				total += 1 + len(m)
			}
			if total != len(soup) {
				t.Fatalf("soup decoded inconsistently: %d words accounted of %d", total, len(soup))
			}
		}
	})
}

// TestFrameStagingMatchesReference drives the comm staging path through a
// 2-node clique and checks the wire bytes against the reference encoder.
func TestFrameStagingMatchesReference(t *testing.T) {
	nw, err := clique.New(2)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	want := [][]clique.Word{{7}, {1, 2, 3}, {}, {42, 43}}
	got := make([][][]clique.Word, 2)
	runErr := nw.Run(func(nd *clique.Node) error {
		c := fullComm(nd, "frame-test")
		defer c.release()
		if nd.ID() == 0 {
			for _, m := range want {
				c.send(1, m...)
			}
		}
		rx, err := c.exchange()
		if err != nil {
			return err
		}
		for _, m := range rx.fromSender(0) {
			got[nd.ID()] = append(got[nd.ID()], append([]clique.Word(nil), m...))
		}
		return nil
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	if len(got[1]) != len(want) {
		t.Fatalf("node 1 decoded %d messages, want %d", len(got[1]), len(want))
	}
	for i := range want {
		if len(got[1][i]) != len(want[i]) {
			t.Fatalf("message %d: got %v, want %v", i, got[1][i], want[i])
		}
		for j := range want[i] {
			if got[1][i][j] != want[i][j] {
				t.Fatalf("message %d: got %v, want %v", i, got[1][i], want[i])
			}
		}
	}
}
