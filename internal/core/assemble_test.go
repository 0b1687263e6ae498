package core

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"congestedclique/internal/clique"
)

// Tests for assembleBatch, the last piece of the rank redistribution: it
// places every received [rank, key] record at its slot and must agree with
// the comparison-sorting implementation it replaced on every input.

// sortedAssembleBatch is the reference: assembleBatch as it was before it
// placed records by rank — collect, sort by rank, check that consecutive
// ranks differ by one.
func sortedAssembleBatch(records [][]clique.Word, id, perNode, total int, context string) (*SortResult, error) {
	type rankedKey struct {
		rank int
		key  Key
	}
	var mine []rankedKey
	for _, p := range records {
		if len(p) < 1+keyWords {
			continue
		}
		k, _ := decodeKey(p[1:])
		mine = append(mine, rankedKey{rank: int(p[0]), key: k})
	}
	slices.SortFunc(mine, func(a, b rankedKey) int { return cmp.Compare(a.rank, b.rank) })
	res := &SortResult{Total: total}
	if len(mine) > 0 {
		res.Start = mine[0].rank
		res.Batch = make([]Key, 0, len(mine))
	} else {
		res.Start = min(id*perNode, total)
	}
	for i, rk := range mine {
		if i > 0 && mine[i-1].rank+1 != rk.rank {
			return nil, fmt.Errorf("%s deliver: node %d received non-contiguous ranks %d and %d", context, id, mine[i-1].rank, rk.rank)
		}
		res.Batch = append(res.Batch, rk.key)
	}
	return res, nil
}

// rankRecord is one [rank, key] record as forwardByRank sends it.
func rankRecord(rank int, k Key) []clique.Word {
	return []clique.Word{clique.Word(rank), k.Value, clique.Word(k.Origin), clique.Word(k.Seq)}
}

// TestAssembleBatchPlacement deals the ranks [0, total) over n nodes as the
// redistribution does, shuffles every node's records and checks the placed
// batches against the reference, on markers that are missing, too short or
// left dirty by an earlier use. The shapes include an empty node (perNode
// ranks past total) and a short last node.
func TestAssembleBatchPlacement(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(11))
	for _, tc := range []struct{ n, total int }{
		{4, 10},    // perNode 3: the last node holds one rank
		{4, 5},     // perNode 2: node 3 is empty
		{7, 0},     // no keys anywhere
		{16, 256},  // full rows
		{9, 700},   // perNode 78, more than one marker word
		{3, 1},     // one key
		{64, 1000}, // perNode 16, short last nodes
	} {
		perNode := ranksPerNode(tc.total, tc.n)
		for id := 0; id < tc.n; id++ {
			lo, hi := min(id*perNode, tc.total), min((id+1)*perNode, tc.total)
			var records [][]clique.Word
			for r := lo; r < hi; r++ {
				k := Key{Value: rng.Int63n(1 << 40), Origin: rng.Intn(tc.n), Seq: rng.Intn(tc.n)}
				records = append(records, rankRecord(r, k))
			}
			rng.Shuffle(len(records), func(i, j int) { records[i], records[j] = records[j], records[i] })
			want, err := sortedAssembleBatch(records, id, perNode, tc.total, "test")
			if err != nil {
				t.Fatalf("n=%d total=%d node %d: reference: %v", tc.n, tc.total, id, err)
			}
			dirty := make([]int, rankMarkWords(len(records)))
			for i := range dirty {
				dirty[i] = -1
			}
			for _, seen := range [][]int{nil, make([]int, rankMarkWords(len(records))/2), dirty} {
				got, err := assembleBatch(records, seen, id, perNode, tc.total, "test")
				if err != nil {
					t.Fatalf("n=%d total=%d node %d: %v", tc.n, tc.total, id, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("n=%d total=%d node %d: got start %d batch %v, want start %d batch %v",
						tc.n, tc.total, id, got.Start, got.Batch, want.Start, want.Batch)
				}
			}
		}
	}
}

// encodeRecords and decodeRecords map a record list to fuzz bytes and back:
// each record is a length byte (its word count, mod 8) followed by that many
// little-endian 8-byte words; a record cut short by the end of the input
// keeps the words it has.
func encodeRecords(records ...[]clique.Word) []byte {
	var b []byte
	for _, p := range records {
		b = append(b, byte(len(p)))
		for _, w := range p {
			b = binary.LittleEndian.AppendUint64(b, uint64(w))
		}
	}
	return b
}

func decodeRecords(b []byte) [][]clique.Word {
	var records [][]clique.Word
	for len(b) > 0 {
		words := int(b[0] % 8)
		b = b[1:]
		p := make([]clique.Word, 0, words)
		for ; words > 0 && len(b) >= 8; words-- {
			p = append(p, clique.Word(binary.LittleEndian.Uint64(b)))
			b = b[8:]
		}
		records = append(records, p)
	}
	return records
}

// FuzzAssembleBatch checks assembleBatch against the reference on arbitrary
// record lists: the same batch or the same error, no panic, and no
// allocation that grows with the rank span rather than the record count.
// The seeds are malformed batches, each of which must fail: a hole, a
// duplicate, a rank of 1<<62 or a negative rank beside small ones, and a
// truncated record or a short key (skipped, which leaves a hole).
func FuzzAssembleBatch(f *testing.F) {
	k := func(v int64) Key { return Key{Value: v, Origin: 1, Seq: int(v)} }
	malformed := [][]byte{
		encodeRecords(rankRecord(4, k(4)), rankRecord(6, k(6))),
		encodeRecords(rankRecord(4, k(4)), rankRecord(5, k(5)), rankRecord(4, k(7))),
		encodeRecords(rankRecord(4, k(4)), rankRecord(5, k(5)), rankRecord(4, k(4)), rankRecord(7, k(7))),
		encodeRecords(rankRecord(4, k(4)), rankRecord(1<<62, k(5))),
		encodeRecords(rankRecord(-3, k(4)), rankRecord(4, k(5))),
		encodeRecords(rankRecord(-1<<62, k(4)), rankRecord(1<<62, k(5)), rankRecord(0, k(6))),
		encodeRecords(rankRecord(4, k(4)), []clique.Word{5, 50}, rankRecord(6, k(6))),
		encodeRecords(rankRecord(4, k(4)), []clique.Word{5, 50, 1}, rankRecord(6, k(6))),
	}
	for _, b := range malformed {
		f.Add(b, uint8(2), uint8(2), uint16(12))
	}
	f.Add(encodeRecords(rankRecord(5, k(5)), rankRecord(4, k(4))), uint8(2), uint8(2), uint16(8))
	f.Add([]byte{}, uint8(3), uint8(4), uint16(10))
	f.Fuzz(func(t *testing.T, data []byte, id, perNode uint8, total uint16) {
		records := decodeRecords(data)
		want, wantErr := sortedAssembleBatch(records, int(id), int(perNode), int(total), "fuzz")
		var (
			got   *SortResult
			err   error
			alloc uint64 = math.MaxUint64
		)
		// The fewest bytes of three calls: the counter is process-wide, and
		// the fuzzing engine allocates beside the call.
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			got, err = assembleBatch(records, nil, int(id), int(perNode), int(total), "fuzz")
			runtime.ReadMemStats(&after)
			alloc = min(alloc, after.TotalAlloc-before.TotalAlloc)
		}
		if alloc > 4096+64*uint64(len(records)) {
			t.Errorf("%d records: %d bytes allocated", len(records), alloc)
		}
		switch {
		case (err == nil) != (wantErr == nil):
			t.Fatalf("got error %v, reference error %v", err, wantErr)
		case err != nil && err.Error() != wantErr.Error():
			t.Fatalf("got error %q, reference error %q", err, wantErr)
		case err == nil && !reflect.DeepEqual(got, want):
			t.Fatalf("got %+v, reference %+v", got, want)
		}
		if err == nil && slices.ContainsFunc(malformed, func(b []byte) bool { return bytes.Equal(b, data) }) {
			t.Errorf("malformed seed batch accepted: %+v", got)
		}
	})
}
