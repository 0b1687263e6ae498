package core

import (
	"reflect"
	"strings"
	"testing"

	"congestedclique/internal/clique"
)

// sparseTestInstances is the shape catalog the step-program tests sweep:
// every strategy written as a step program plus the pipeline fallbacks, with
// ragged and inactive rows mixed in.
func sparseTestInstances(n int) map[string][][]Message {
	oneToMany := make([][]Message, n)
	for j := 0; j < 6*min(n, 8); j++ {
		oneToMany[0] = append(oneToMany[0], Message{Src: 0, Dst: 1 + j%4, Seq: j, Payload: clique.Word(j)})
	}
	ragged := make([][]Message, n/2) // rows beyond len(msgs) are empty
	for src := 0; src < len(ragged); src += 3 {
		for p := 0; p < 1+src%3; p++ {
			ragged[src] = append(ragged[src], Message{Src: src, Dst: (src*7 + p) % n, Seq: p, Payload: clique.Word(100*src + p)})
		}
	}
	return map[string][][]Message{
		"empty":       make([][]Message, n),
		"direct":      sparseInstance(n, 2, 1),
		"direct-full": sparseInstance(n, 3, DirectMaxMultiplicity),
		"broadcast":   oneToMany,
		"ragged":      ragged,
		"pipeline":    sparseInstance(n, n, 1),
	}
}

func TestSparseDemandRoundTrip(t *testing.T) {
	t.Parallel()
	const n = 48
	for name, msgs := range sparseTestInstances(n) {
		sd, err := NewSparseDemand(n, msgs)
		if err != nil {
			t.Fatalf("%s: NewSparseDemand: %v", name, err)
		}
		for i := 0; i < n; i++ {
			var want []Message
			if i < len(msgs) {
				want = msgs[i]
			}
			if got := sd.Row(i); len(got) != len(want) || len(want) > 0 && !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: row %d does not round-trip: got %v want %v", name, i, got, want)
			}
		}
	}
}

func TestSparseDemandRejectsMalformedRows(t *testing.T) {
	t.Parallel()
	const n = 8
	if _, err := NewSparseDemand(n, [][]Message{{{Src: 1, Dst: 2}}}); err == nil {
		t.Error("foreign Src accepted")
	}
	if _, err := NewSparseDemand(n, [][]Message{{{Src: 0, Dst: n}}}); err == nil {
		t.Error("out-of-range Dst accepted")
	}
}

// presortedKeysInstance builds rows that partition the global order: node i
// holds cnt(i) consecutive values, ascending across nodes.
func presortedKeysInstance(n int) [][]Key {
	keys := make([][]Key, n)
	v := int64(0)
	for i := 0; i < n; i++ {
		cnt := (i*7)%5 + 1
		if i%11 == 0 {
			cnt = 0 // inactive holders stay covered
		}
		for j := 0; j < cnt; j++ {
			keys[i] = append(keys[i], Key{Value: v, Origin: i, Seq: j})
			v += int64(1 + (i+j)%3)
		}
	}
	return keys
}

// TestRankRedistributionRejectsMalformed pins the safety checks of the one
// decode both drivers of the rank redistribution share: a bundle shorter than
// its key count claims, a frame that lies about its length, and a batch with
// a hole in its rank range are errors, never panics or silent output.
func TestRankRedistributionRejectsMalformed(t *testing.T) {
	t.Parallel()
	var s stager
	good := []clique.Word{2, 4, 40, 1, 0, 5, 50, 1, 1}
	if err := forwardByRank(&s, [][]clique.Word{good}, 2, 8, "test"); err != nil {
		t.Fatalf("well-formed bundle rejected: %v", err)
	}
	for name, bundle := range map[string][]clique.Word{
		"short":          good[:len(good)-1],
		"negative count": {-1},
	} {
		if err := forwardByRank(&s, [][]clique.Word{bundle}, 2, 8, "test"); err == nil || !strings.Contains(err.Error(), "malformed ranked bundle") {
			t.Errorf("%s bundle: got %v, want a malformed-bundle error", name, err)
		}
	}

	// A frame that claims two messages in three words, met by the step
	// program in its forwarding round.
	nw, err := clique.New(2)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	plan := SortPlan{N: 2, Strategy: SortStrategyPresorted, StartRanks: []int{0, 0, 0}}
	progs := make([]sortProgram, 2)
	err = nw.RunRounds(func(nd *clique.Node, round int, inbox clique.Inbox) (bool, error) {
		if round == 0 && nd.ID() == 0 {
			nd.Send(1, clique.Packet{2, 1, 7})
		}
		return progs[nd.ID()].step(nd, &plan, nil, round, inbox)
	})
	if err == nil || !strings.Contains(err.Error(), "presorted.rank deal: core: frame message 1/2 missing its length slot") {
		t.Errorf("truncated frame: got %v, want a frame-decode error from the deal round", err)
	}

	records := [][]clique.Word{{3, 30, 0, 0}, {5, 50, 0, 1}}
	if _, err := assembleBatch(records, nil, 1, 2, 8, "test"); err == nil || !strings.Contains(err.Error(), "non-contiguous ranks 3 and 5") {
		t.Errorf("batch with a rank hole: got %v, want a non-contiguous-rank error", err)
	}
	res, err := assembleBatch([][]clique.Word{{5, 50, 0, 1}, {4, 40, 0, 0}}, nil, 2, 2, 8, "test")
	if err != nil || res.Start != 4 || !reflect.DeepEqual(res.Batch, []Key{{Value: 40}, {Value: 50, Seq: 1}}) {
		t.Errorf("contiguous batch: got %+v, %v", res, err)
	}
}
