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
	var want []core.Key
	for _, ks := range input {
		want = append(want, ks...)
	}
	core.SortKeySlice(want)

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
	distinct := map[int64]bool{}
	for _, ks := range input {
		for _, k := range ks {
			distinct[k.Value] = true
		}
	}
	values := make([]int64, 0, len(distinct))
	for v := range distinct {
		values = append(values, v)
	}
	for i := 1; i < len(values); i++ {
		for j := i; j > 0 && values[j] < values[j-1]; j-- {
			values[j], values[j-1] = values[j-1], values[j]
		}
	}
	rankOf := make(map[int64]int, len(values))
	for i, v := range values {
		rankOf[v] = i
	}
	for i, ks := range input {
		res := results[i]
		if res == nil {
			return fmt.Errorf("verify: node %d has no rank result", i)
		}
		if res.DistinctTotal != len(values) {
			return fmt.Errorf("verify: node %d reports %d distinct values, want %d", i, res.DistinctTotal, len(values))
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
