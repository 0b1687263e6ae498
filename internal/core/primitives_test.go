package core

import (
	"slices"
	"testing"

	"congestedclique/internal/bipartite"
)

// TestUniformBalancePlanMatchesColoring checks that a uniform balance plan,
// which computes its colors arithmetically, assigns every unit the target a
// plan built on ColorDemandMatrix's coloring of the same matrix assigns, and
// induces the same move demand.
func TestUniformBalancePlanMatchesColoring(t *testing.T) {
	for w := 2; w <= 16; w++ {
		for u := 1; u <= 4; u++ {
			counts := make([][]int, w)
			for a := range counts {
				counts[a] = slices.Repeat([]int{u}, w)
			}
			c := &comm{bufferSet: new(bufferSet)}
			uniform, err := newBalancePlan(c, counts, w, rootStep("test"), 0)
			if err != nil {
				t.Fatal(err)
			}
			if uniform.coloring != nil {
				t.Fatalf("w=%d u=%d: uniform counts built a coloring object", w, u)
			}
			dc, err := bipartite.ColorDemandMatrix(counts, bipartite.MaxRowColSum(counts))
			if err != nil {
				t.Fatal(err)
			}
			colored := balancePlan{coloring: dc, w: w}
			for a := 0; a < w; a++ {
				for cls := 0; cls < w; cls++ {
					for k := 0; k <= u; k++ {
						got, gotErr := uniform.target(a, cls, k)
						want, wantErr := colored.target(a, cls, k)
						if (gotErr != nil) != (wantErr != nil) || got != want {
							t.Fatalf("w=%d u=%d: target(%d,%d,%d) = %d, %v; coloring gives %d, %v",
								w, u, a, cls, k, got, gotErr, want, wantErr)
						}
					}
				}
			}
			got, err := uniform.moveDemand(c, counts)
			if err != nil {
				t.Fatal(err)
			}
			want, err := colored.moveDemand(c, counts)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.EqualFunc(got, want, slices.Equal[[]int]) {
				t.Fatalf("w=%d u=%d: move demand %v, coloring gives %v", w, u, got, want)
			}
		}
	}
}
