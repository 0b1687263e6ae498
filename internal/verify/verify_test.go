package verify

import (
	"testing"

	"congestedclique/internal/core"
)

func TestRoutingVerifier(t *testing.T) {
	t.Parallel()
	sent := [][]core.Message{
		{{Src: 0, Dst: 1, Seq: 0, Payload: 5}},
		{{Src: 1, Dst: 0, Seq: 0, Payload: 6}},
	}
	good := [][]core.Message{
		{{Src: 1, Dst: 0, Seq: 0, Payload: 6}},
		{{Src: 0, Dst: 1, Seq: 0, Payload: 5}},
	}
	if err := Routing(sent, good); err != nil {
		t.Fatal(err)
	}
	missing := [][]core.Message{nil, {{Src: 0, Dst: 1, Seq: 0, Payload: 5}}}
	if err := Routing(sent, missing); err == nil {
		t.Fatal("missing delivery accepted")
	}
	wrongNode := [][]core.Message{{{Src: 0, Dst: 1, Seq: 0, Payload: 5}}, nil}
	if err := Routing(sent, wrongNode); err == nil {
		t.Fatal("misdelivered message accepted")
	}
	duplicated := [][]core.Message{
		{{Src: 1, Dst: 0, Seq: 0, Payload: 6}, {Src: 1, Dst: 0, Seq: 0, Payload: 6}},
		{{Src: 0, Dst: 1, Seq: 0, Payload: 5}},
	}
	if err := Routing(sent, duplicated); err == nil {
		t.Fatal("duplicate delivery accepted")
	}
	if err := Routing(sent, [][]core.Message{nil}); err == nil {
		t.Fatal("wrong slot count accepted")
	}
}

func TestSortingVerifier(t *testing.T) {
	t.Parallel()
	input := [][]core.Key{
		{{Value: 5, Origin: 0, Seq: 0}, {Value: 1, Origin: 0, Seq: 1}},
		{{Value: 3, Origin: 1, Seq: 0}, {Value: 9, Origin: 1, Seq: 1}},
	}
	good := []*core.SortResult{
		{Batch: []core.Key{{Value: 1, Origin: 0, Seq: 1}, {Value: 3, Origin: 1, Seq: 0}}, Start: 0, Total: 4},
		{Batch: []core.Key{{Value: 5, Origin: 0, Seq: 0}, {Value: 9, Origin: 1, Seq: 1}}, Start: 2, Total: 4},
	}
	if err := Sorting(input, good); err != nil {
		t.Fatal(err)
	}
	badOrder := []*core.SortResult{
		{Batch: []core.Key{{Value: 3, Origin: 1, Seq: 0}, {Value: 1, Origin: 0, Seq: 1}}, Start: 0, Total: 4},
		good[1],
	}
	if err := Sorting(input, badOrder); err == nil {
		t.Fatal("unsorted output accepted")
	}
	badStart := []*core.SortResult{
		good[0],
		{Batch: good[1].Batch, Start: 3, Total: 4},
	}
	if err := Sorting(input, badStart); err == nil {
		t.Fatal("non-contiguous batches accepted")
	}
	badTotal := []*core.SortResult{
		good[0],
		{Batch: good[1].Batch, Start: 2, Total: 7},
	}
	if err := Sorting(input, badTotal); err == nil {
		t.Fatal("wrong total accepted")
	}
	if err := Sorting(input, []*core.SortResult{good[0], nil}); err == nil {
		t.Fatal("missing result accepted")
	}
}

func TestRanksVerifier(t *testing.T) {
	t.Parallel()
	input := [][]core.Key{
		{{Value: 10, Origin: 0, Seq: 0}, {Value: 20, Origin: 0, Seq: 1}},
		{{Value: 10, Origin: 1, Seq: 0}},
	}
	good := []*core.RankResult{
		{Ranks: map[int]int{0: 0, 1: 1}, DistinctTotal: 2},
		{Ranks: map[int]int{0: 0}, DistinctTotal: 2},
	}
	if err := Ranks(input, good); err != nil {
		t.Fatal(err)
	}
	bad := []*core.RankResult{
		{Ranks: map[int]int{0: 1, 1: 1}, DistinctTotal: 2},
		good[1],
	}
	if err := Ranks(input, bad); err == nil {
		t.Fatal("wrong rank accepted")
	}
	badTotal := []*core.RankResult{
		{Ranks: map[int]int{0: 0, 1: 1}, DistinctTotal: 5},
		good[1],
	}
	if err := Ranks(input, badTotal); err == nil {
		t.Fatal("wrong distinct total accepted")
	}
	missing := []*core.RankResult{
		{Ranks: map[int]int{0: 0}, DistinctTotal: 2},
		good[1],
	}
	if err := Ranks(input, missing); err == nil {
		t.Fatal("missing rank accepted")
	}
}

func TestHistogramVerifier(t *testing.T) {
	t.Parallel()
	values := [][]int{{0, 1, 1}, {1}}
	good := &core.SmallKeyResult{Counts: []int64{1, 3}, Domain: 2}
	if err := Histogram(values, good); err != nil {
		t.Fatal(err)
	}
	bad := &core.SmallKeyResult{Counts: []int64{2, 2}, Domain: 2}
	if err := Histogram(values, bad); err == nil {
		t.Fatal("wrong histogram accepted")
	}
	if err := Histogram(values, nil); err == nil {
		t.Fatal("nil histogram accepted")
	}
	outOfDomain := [][]int{{5}}
	if err := Histogram(outOfDomain, good); err == nil {
		t.Fatal("out-of-domain value accepted")
	}
}

// TestSelectAndModeVerifiers feeds each oracle a right answer and one wrong
// one.
func TestSelectAndModeVerifiers(t *testing.T) {
	t.Parallel()
	input := [][]core.Key{
		{{Value: 7, Origin: 0, Seq: 0}, {Value: 2, Origin: 0, Seq: 1}, {Value: 7, Origin: 0, Seq: 2}},
		{{Value: 2, Origin: 1, Seq: 0}, {Value: 9, Origin: 1, Seq: 1}},
	}
	// Sorted: 2@(0,1) 2@(1,0) 7@(0,0) 7@(0,2) 9@(1,1).
	if err := Select(input, 1, core.Key{Value: 2, Origin: 1, Seq: 0}); err != nil {
		t.Fatal(err)
	}
	if err := Select(input, 1, core.Key{Value: 2, Origin: 0, Seq: 1}); err == nil {
		t.Fatal("key of rank 0 accepted as rank 1")
	}
	if err := Select(input, 5, core.Key{Value: 9, Origin: 1, Seq: 1}); err == nil {
		t.Fatal("out-of-range rank accepted")
	}
	// 2 and 7 both occur twice: the tie goes to the smaller value.
	if err := Mode(input, 2, 2); err != nil {
		t.Fatal(err)
	}
	if err := Mode(input, 7, 2); err == nil {
		t.Fatal("larger value of a tie accepted as the mode")
	}
	if err := Mode(input, 2, 3); err == nil {
		t.Fatal("wrong multiplicity accepted")
	}
	if err := Mode(nil, 0, 0); err == nil {
		t.Fatal("mode of empty input accepted")
	}
}
