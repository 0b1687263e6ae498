// Package verify checks the outputs of routing and sorting executions
// against their instances. The benchmark harness refuses to report a
// measurement whose output fails verification, so every number in the
// experiment tables and BENCH_protocol.json corresponds to a correct
// execution.
package verify

import (
	"fmt"

	"congestedclique/internal/core"
)

// Routing checks that delivered[i] is exactly the multiset of instance
// messages addressed to node i.
func Routing(sent [][]core.Message, delivered [][]core.Message) error {
	n := len(sent)
	if len(delivered) != n {
		return fmt.Errorf("verify: %d delivery slots for %d nodes", len(delivered), n)
	}
	want := make([]map[core.Message]int, n)
	for i := range want {
		want[i] = make(map[core.Message]int)
	}
	total := 0
	for _, msgs := range sent {
		for _, m := range msgs {
			if m.Dst < 0 || m.Dst >= n {
				return fmt.Errorf("verify: instance message with destination %d out of range", m.Dst)
			}
			want[m.Dst][m]++
			total++
		}
	}
	got := 0
	for dst := 0; dst < n; dst++ {
		for _, m := range delivered[dst] {
			if m.Dst != dst {
				return fmt.Errorf("verify: node %d received message addressed to %d", dst, m.Dst)
			}
			if want[dst][m] == 0 {
				return fmt.Errorf("verify: node %d received unexpected or duplicate message %+v", dst, m)
			}
			want[dst][m]--
			got++
		}
	}
	if got != total {
		return fmt.Errorf("verify: delivered %d of %d messages", got, total)
	}
	return nil
}

// Sorting checks that the batches form the globally sorted sequence of the
// input keys, split contiguously and balanced across nodes.
func Sorting(input [][]core.Key, results []*core.SortResult) error {
	want := sortedKeys(input)
	n := len(results)
	var got []core.Key
	next := 0
	for i, res := range results {
		if res == nil {
			return fmt.Errorf("verify: node %d has no sorting result", i)
		}
		if res.Total != len(want) {
			return fmt.Errorf("verify: node %d reports %d total keys, want %d", i, res.Total, len(want))
		}
		if len(res.Batch) > 0 && res.Start != next {
			return fmt.Errorf("verify: node %d batch starts at %d, want %d", i, res.Start, next)
		}
		next += len(res.Batch)
		got = append(got, res.Batch...)
	}
	if len(got) != len(want) {
		return fmt.Errorf("verify: output holds %d keys, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("verify: rank %d holds %+v, want %+v", i, got[i], want[i])
		}
	}
	perNode := (len(want) + n - 1) / n
	if perNode == 0 {
		perNode = 1
	}
	for i, res := range results {
		if len(res.Batch) > perNode {
			return fmt.Errorf("verify: node %d holds %d keys, exceeding the balanced %d", i, len(res.Batch), perNode)
		}
	}
	return nil
}

// Ranks checks the Corollary 4.6 output: every input key's reported rank must
// equal the rank of its value among the distinct values of the union.
func Ranks(input [][]core.Key, results []*core.RankResult) error {
	rankOf := map[int64]int{}
	for _, k := range sortedKeys(input) {
		if _, ok := rankOf[k.Value]; !ok {
			rankOf[k.Value] = len(rankOf)
		}
	}
	for i, ks := range input {
		res := results[i]
		if res == nil {
			return fmt.Errorf("verify: node %d has no rank result", i)
		}
		if res.DistinctTotal != len(rankOf) {
			return fmt.Errorf("verify: node %d reports %d distinct values, want %d", i, res.DistinctTotal, len(rankOf))
		}
		for _, k := range ks {
			got, ok := res.Ranks[k.Seq]
			if !ok {
				return fmt.Errorf("verify: node %d missing rank for key seq %d", i, k.Seq)
			}
			if got != rankOf[k.Value] {
				return fmt.Errorf("verify: node %d key %d (value %d) ranked %d, want %d", i, k.Seq, k.Value, got, rankOf[k.Value])
			}
		}
	}
	return nil
}

// Select checks a selection output: got must be the key of global rank k
// (0-based) in the sorted order of the input keys.
func Select(input [][]core.Key, k int, got core.Key) error {
	all := sortedKeys(input)
	if k < 0 || k >= len(all) {
		return fmt.Errorf("verify: selection rank %d out of range [0,%d)", k, len(all))
	}
	if got != all[k] {
		return fmt.Errorf("verify: rank %d selected %+v, want %+v", k, got, all[k])
	}
	return nil
}

// Mode checks a mode output: value must be the most frequent input value
// (the smaller value on a tie) and count its multiplicity.
func Mode(input [][]core.Key, value int64, count int) error {
	all := sortedKeys(input)
	if len(all) == 0 {
		return fmt.Errorf("verify: mode of empty input")
	}
	var want int64
	wantCount := 0
	for i := 0; i < len(all); {
		j := i
		for j < len(all) && all[j].Value == all[i].Value {
			j++
		}
		if j-i > wantCount {
			want, wantCount = all[i].Value, j-i
		}
		i = j
	}
	if value != want || count != wantCount {
		return fmt.Errorf("verify: mode is %d (x%d), want %d (x%d)", value, count, want, wantCount)
	}
	return nil
}

// sortedKeys is every input key in the global sorted order.
func sortedKeys(input [][]core.Key) []core.Key {
	var all []core.Key
	for _, ks := range input {
		all = append(all, ks...)
	}
	core.SortKeySlice(all)
	return all
}

// Histogram checks the Section 6.3 output against the true histogram.
func Histogram(values [][]int, result *core.SmallKeyResult) error {
	if result == nil {
		return fmt.Errorf("verify: missing histogram result")
	}
	want := make([]int64, result.Domain)
	for _, vs := range values {
		for _, v := range vs {
			if v < 0 || v >= result.Domain {
				return fmt.Errorf("verify: value %d outside domain %d", v, result.Domain)
			}
			want[v]++
		}
	}
	for v := range want {
		if result.Counts[v] != want[v] {
			return fmt.Errorf("verify: count of %d is %d, want %d", v, result.Counts[v], want[v])
		}
	}
	return nil
}
