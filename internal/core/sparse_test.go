package core

import (
	"fmt"
	"reflect"
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

// runDenseAutoSort executes AutoSort on the blocking scheduler, where the
// presorted arm is the dense-load dealByRank twin.
func runDenseAutoSort(t *testing.T, n int, keys [][]Key, plan SortPlan) ([]*SortResult, clique.Metrics) {
	t.Helper()
	nw, err := clique.New(n)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	results := make([]*SortResult, n)
	err = nw.Run(func(nd *clique.Node) error {
		var row []Key
		if nd.ID() < len(keys) {
			row = keys[nd.ID()]
		}
		res, sErr := AutoSort(nd, row, plan)
		if sErr != nil {
			return sErr
		}
		results[nd.ID()] = res
		return nil
	})
	if err != nil {
		t.Fatalf("dense AutoSort: %v", err)
	}
	return results, nw.Metrics()
}

func TestSparseSortRunMatchesDense(t *testing.T) {
	t.Parallel()
	for _, n := range []int{8, 48, 90} {
		for _, tc := range []struct {
			name string
			keys [][]Key
		}{
			{"empty", make([][]Key, n)},
			{"presorted", presortedKeysInstance(n)},
		} {
			for _, census := range []bool{false, true} {
				plan := PlanSort(n, tc.keys)
				if !SparseSortStepCapable(plan.Strategy) {
					t.Fatalf("n=%d %s: plan strategy %v not step-capable", n, tc.name, plan.Strategy)
				}
				plan.Census = census
				if census {
					if fp, ok := SortFingerprint(n, tc.keys); ok {
						plan.CensusHasFP = true
						plan.CensusFP = fp.Hash
					}
				}
				label := fmt.Sprintf("n=%d/%s/census=%v", n, tc.name, census)

				want, wantM := runDenseAutoSort(t, n, tc.keys, plan)

				nw, err := clique.New(n)
				if err != nil {
					t.Fatal(err)
				}
				run, err := NewSparseSortRun(n, tc.keys, plan)
				if err != nil {
					nw.Close()
					t.Fatal(err)
				}
				if err := nw.RunRounds(run.Step); err != nil {
					nw.Close()
					t.Fatalf("%s: sparse sort run: %v", label, err)
				}
				gotM := nw.Metrics()
				for i := 0; i < n; i++ {
					got := run.Result(i)
					if got == nil {
						t.Fatalf("%s: node %d has no result", label, i)
					}
					if got.Start != want[i].Start || got.Total != want[i].Total ||
						!(len(got.Batch) == 0 && len(want[i].Batch) == 0 || reflect.DeepEqual(got.Batch, want[i].Batch)) {
						t.Fatalf("%s: node %d results differ:\n sparse %+v\n dense  %+v", label, i, got, want[i])
					}
				}
				nw.Close()
				if gotM.Rounds != wantM.Rounds || gotM.TotalWords != wantM.TotalWords ||
					gotM.TotalMessages != wantM.TotalMessages ||
					gotM.MaxEdgeWords != wantM.MaxEdgeWords || gotM.MaxEdgeMessages != wantM.MaxEdgeMessages {
					t.Errorf("%s: metrics differ:\n sparse %+v\n dense  %+v", label, gotM, wantM)
				}
			}
		}
	}
}
