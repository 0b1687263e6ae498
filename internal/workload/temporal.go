package workload

import (
	"fmt"
	"math/rand"

	"congestedclique/internal/core"
)

// TemporalTrace is a sequence of routing instances presented to one session
// handle in order — the workload shape the cross-run plan cache
// (WithPlanCache) targets. Distinct holds the unique instances; Sequence[t]
// names the instance step t executes, so repetition is explicit: a step
// whose instance already appeared earlier in the sequence is an expected
// cache hit, and the trace's ideal hit rate is
// (len(Sequence) - len(Distinct)) / len(Sequence).
type TemporalTrace struct {
	N        int
	Name     string
	Distinct []*RoutingInstance
	Sequence []int
}

// Steps is the trace length.
func (tr *TemporalTrace) Steps() int { return len(tr.Sequence) }

// IdealHitRate is the hit rate a correct cache of sufficient capacity
// achieves on the trace: every repeat of an already-seen instance hits.
func (tr *TemporalTrace) IdealHitRate() float64 {
	if len(tr.Sequence) == 0 {
		return 0
	}
	return float64(len(tr.Sequence)-len(tr.Distinct)) / float64(len(tr.Sequence))
}

// TemporalScenario is one named entry of the temporal catalog: bursty
// instance sequences where identical demand recurs in phases — the regime
// where schedule reuse pays — plus a drifting control where it pays less.
type TemporalScenario struct {
	// Name is the registry key.
	Name string
	// Description is a one-line summary listed by cliquebench temporal.
	Description string
	// Build constructs the trace for a clique of n nodes; pure in (n, seed).
	Build func(n int, seed int64) (*TemporalTrace, error)
}

// TemporalScenarios returns the temporal catalog in canonical order. The
// slice is freshly allocated; callers may reorder it.
func TemporalScenarios() []TemporalScenario {
	return []TemporalScenario{
		{
			Name:        "bursty-shuffle",
			Description: "bursty full load: 4 distinct shuffle instances, each repeated in a 16-step phase (64 steps, ideal hit rate 93.75%)",
			Build:       buildBurstyShuffle,
		},
		{
			Name:        "bursty-transpose",
			Description: "bursty block transpose: 8 distinct offsets, each repeated in an 8-step phase (64 steps, ideal hit rate 87.5%)",
			Build:       buildBurstyTranspose,
		},
		{
			Name:        "drift-shuffle",
			Description: "drifting control: the shuffle instance perturbs every 4th step, so phases are short (32 steps, ideal hit rate 75%)",
			Build:       buildDriftShuffle,
		},
	}
}

// TemporalScenarioNames lists the temporal catalog's names in order.
func TemporalScenarioNames() []string {
	scenarios := TemporalScenarios()
	names := make([]string, len(scenarios))
	for i, s := range scenarios {
		names[i] = s.Name
	}
	return names
}

// TemporalScenarioByName looks a scenario up in the temporal catalog.
func TemporalScenarioByName(name string) (TemporalScenario, bool) {
	for _, s := range TemporalScenarios() {
		if s.Name == name {
			return s, true
		}
	}
	return TemporalScenario{}, false
}

// phasedTrace lays out k distinct instances in consecutive phases of
// stepsPer repetitions each.
func phasedTrace(n int, name string, distinct []*RoutingInstance, stepsPer int) *TemporalTrace {
	tr := &TemporalTrace{N: n, Name: name, Distinct: distinct}
	for i := range distinct {
		for r := 0; r < stepsPer; r++ {
			tr.Sequence = append(tr.Sequence, i)
		}
	}
	return tr
}

// shuffleVariant is a full-load Latin-square shuffle with a per-variant
// rotation: message j of node i goes to node (i + j + rot) mod n. Every
// variant is full load (n^2 messages, past the planner's volume gate), so
// the whole family runs the Theorem 3.7 pipeline and repeats exercise the
// cached announcement schedule.
func shuffleVariant(n, rot int, rng *rand.Rand, name string) *RoutingInstance {
	b := newInstanceBuilder(n)
	for src := 0; src < n; src++ {
		for j := 0; j < n; j++ {
			b.add(src, (src+j+rot)%n, rng.Int63n(1<<40))
		}
	}
	return b.instance(n, name)
}

func buildBurstyShuffle(n int, seed int64) (*TemporalTrace, error) {
	if err := checkScenarioN("bursty-shuffle", n); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	distinct := make([]*RoutingInstance, 4)
	for v := range distinct {
		distinct[v] = shuffleVariant(n, v, rng, "bursty-shuffle")
	}
	return phasedTrace(n, "bursty-shuffle", distinct, 16), nil
}

func buildBurstyTranspose(n int, seed int64) (*TemporalTrace, error) {
	if err := checkScenarioN("bursty-transpose", n); err != nil {
		return nil, err
	}
	if n < 16 {
		// The 8 offsets must produce 8 distinct demand shapes (the cache keys
		// on destinations, not payloads), which needs n - 1 >= 8.
		return nil, fmt.Errorf("workload: scenario %q needs n >= 16, got %d", "bursty-transpose", n)
	}
	rng := rand.New(rand.NewSource(seed))
	distinct := make([]*RoutingInstance, 8)
	for v := range distinct {
		// Block transpose with a variant-dependent nonzero offset, distinct
		// per variant.
		off := 1 + v
		b := newInstanceBuilder(n)
		for src := 0; src < n; src++ {
			dst := (src + off) % n
			for j := 0; j < n; j++ {
				b.add(src, dst, rng.Int63n(1<<40))
			}
		}
		distinct[v] = b.instance(n, "bursty-transpose")
	}
	return phasedTrace(n, "bursty-transpose", distinct, 8), nil
}

func buildDriftShuffle(n int, seed int64) (*TemporalTrace, error) {
	if err := checkScenarioN("drift-shuffle", n); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	base := shuffleVariant(n, 0, rng, "drift-shuffle")
	distinct := []*RoutingInstance{base}
	for v := 1; v < 8; v++ {
		// Each drift swaps one adjacent destination pair in a fresh row: the
		// demand multiset per row is preserved (the instance stays a legal
		// full load) but the ordered sequence — what the cached schedule
		// depends on — changes.
		prev := distinct[v-1]
		next := &RoutingInstance{N: n, Pattern: prev.Pattern, Msgs: make([][]core.Message, n)}
		for i, row := range prev.Msgs {
			next.Msgs[i] = append([]core.Message(nil), row...)
		}
		row := v % n
		j := rng.Intn(n - 1)
		next.Msgs[row][j].Dst, next.Msgs[row][j+1].Dst = next.Msgs[row][j+1].Dst, next.Msgs[row][j].Dst
		distinct = append(distinct, next)
	}
	return phasedTrace(n, "drift-shuffle", distinct, 4), nil
}

// ValidateTrace checks a trace's internal consistency (sequence indices in
// range, at least one step) — used by tests and cliquebench temporal
// before execution.
func ValidateTrace(tr *TemporalTrace) error {
	if tr.Steps() == 0 {
		return fmt.Errorf("workload: temporal trace %q has no steps", tr.Name)
	}
	for t, k := range tr.Sequence {
		if k < 0 || k >= len(tr.Distinct) {
			return fmt.Errorf("workload: temporal trace %q step %d references instance %d of %d", tr.Name, t, k, len(tr.Distinct))
		}
	}
	return nil
}
