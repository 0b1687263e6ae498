package core

import (
	"fmt"
	"slices"
	"testing"

	"congestedclique/internal/bipartite"
	"congestedclique/internal/clique"
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

// relayUnit is one unit a relay test routes: the node that sends it, its
// destination member and its index among the sender's units for that
// destination.
type relayUnit struct{ sender, dst, serial int }

// relayShapes are the three kinds of unit the relay primitives carry, each
// encoded as the code that routes it encodes it: a held parcel of a routing
// hop, an announcement [position, index, value] and a key bundle
// [count, (value, origin, seq)...] of Algorithm 3's Step 6.
var relayShapes = []string{"held", "announcement", "bundle"}

// relayWords returns the words unit u arrives with in the given shape. A
// held parcel's payload length varies with the unit, a bundle's key count
// too, so misframed units show.
func relayWords(shape string, pos int, u relayUnit) []clique.Word {
	tag := clique.Word(u.sender<<20 | u.dst<<10 | u.serial)
	switch shape {
	case "held":
		w := []clique.Word{clique.Word(u.dst), clique.Word(u.serial), clique.Word(u.sender)}
		for i := 0; i <= u.serial%3; i++ {
			w = append(w, tag+clique.Word(i))
		}
		return w
	case "announcement":
		return []clique.Word{clique.Word(pos), clique.Word(u.serial), tag}
	default:
		count := 1 + u.serial%keysPerBundle
		w := []clique.Word{clique.Word(count)}
		for i := 0; i < count; i++ {
			w = append(w, tag, clique.Word(u.sender), clique.Word(u.serial*keysPerBundle+i))
		}
		return w
	}
}

// TestRelayPrimitivesDeliverEveryUnit routes every unit shape through
// relayRoute (known demand, König and greedy colorings) and
// groupRouteUnknown (Corollary 3.4) on a 7-node clique with two disjoint
// groups of three and one pure relay, under uniform, non-uniform and
// overloaded (max row/column sum above the comm size) demands. Every unit
// must arrive exactly once at its destination with its words intact, and no
// edge may carry more units in a relay round than ⌈colors/size⌉, where
// colors is d for the König coloring and 2d-1 for the greedy one.
//
// A held parcel is not built by its sender: the node before it sends it
// over in a first round, so its payload lies in the engine's receive arena
// and is staged from there — under groupRouteUnknown two announcement
// barriers later, inside clique.PayloadGraceRounds.
func TestRelayPrimitivesDeliverEveryUnit(t *testing.T) {
	const n = 7
	groups := [][]int{{0, 1, 2}, {3, 4, 5}} // node 6 only relays
	groupOf := func(v int) int {
		for g, members := range groups {
			if slices.Contains(members, v) {
				return g
			}
		}
		return -1
	}
	demands := map[string]func(g, a, b int) int{
		"uniform":    func(g, a, b int) int { return 2 },
		"nonuniform": func(g, a, b int) int { return (a*3 + b*5 + g) % 4 },
		"overloaded": func(g, a, b int) int { return 4 + (a+b+g)%3 },
	}
	nw, err := clique.New(n)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()

	for _, demandName := range []string{"uniform", "nonuniform", "overloaded"} {
		cell := demands[demandName]
		matrices := make([][][]int, len(groups))
		d := 0
		for g, members := range groups {
			matrices[g] = make([][]int, len(members))
			for a := range members {
				matrices[g][a] = make([]int, len(members))
				for b := range members {
					matrices[g][a][b] = cell(g, a, b)
				}
			}
			d = max(d, bipartite.MaxRowColSum(matrices[g]))
		}
		if demandName == "overloaded" && d <= n {
			t.Fatalf("overloaded demand has d=%d, not above the comm size %d", d, n)
		}
		// unitsOf lists a node's units, destinations interleaved so that a
		// cell's units are not contiguous.
		unitsOf := func(v int) []relayUnit {
			g := groupOf(v)
			if g < 0 {
				return nil
			}
			members := groups[g]
			a := indexIn(members, v)
			var units []relayUnit
			for k := 0; ; k++ {
				added := false
				for b, dst := range members {
					if k < matrices[g][a][b] {
						units = append(units, relayUnit{sender: v, dst: dst, serial: k})
						added = true
					}
				}
				if !added {
					return units
				}
			}
		}
		for _, shape := range relayShapes {
			for _, mode := range []string{"konig", "greedy", "unknown"} {
				name := demandName + "/" + shape + "/" + mode
				received := make([][][]clique.Word, n)
				runErr := nw.Run(func(nd *clique.Node) error {
					c := fullComm(nd, "relay-test/"+name)
					defer c.release()
					me := nd.ID()
					var group []int
					var demand [][]int
					pos := -1
					if g := groupOf(me); g >= 0 {
						group, demand, pos = groups[g], matrices[g], indexIn(groups[g], me)
					}
					units := unitsOf(me)
					var load []held
					var err error
					if shape == "held" {
						for _, u := range unitsOf((me + 1) % n) {
							w := relayWords(shape, 0, u)
							c.sendHeld((me+1)%n, held{dstLocal: u.dst, interSet: u.serial, src: u.sender, payload: w[3:]})
						}
						if load, err = collectHeld(c, name, "hand-over"); err != nil {
							return err
						}
						if len(load) != len(units) {
							return fmt.Errorf("node %d was handed %d parcels, want %d", me, len(load), len(units))
						}
					}
					dstOf := func(i int) int { return units[i].dst }
					stage := func(i int) {
						if shape == "held" {
							c.stageHeld(load[i])
						} else {
							c.stageWords(relayWords(shape, pos, units[i])...)
						}
					}
					st := rootStep(name)
					var got [][]clique.Word
					switch mode {
					case "unknown":
						got, err = groupRouteUnknown(c, group, len(units), dstOf, stage, st)
					default:
						got, err = relayRoute(c, group, demand, len(units), dstOf, stage, st, mode == "greedy")
					}
					if err != nil {
						return err
					}
					for _, w := range got {
						received[me] = append(received[me], slices.Clone(w))
					}
					return nil
				})
				if runErr != nil {
					t.Fatalf("%s: %v", name, runErr)
				}

				for v := 0; v < n; v++ {
					want := map[string]int{}
					if g := groupOf(v); g >= 0 {
						for a, sender := range groups[g] {
							for _, u := range unitsOf(sender) {
								if u.dst == v {
									want[fmt.Sprint(relayWords(shape, a, u))]++
								}
							}
						}
					}
					for _, w := range received[v] {
						key := fmt.Sprint(w)
						if want[key] == 0 {
							t.Fatalf("%s: node %d received unexpected or duplicate unit %v", name, v, w)
						}
						want[key]--
					}
					for key, left := range want {
						if left > 0 {
							t.Fatalf("%s: node %d never received unit %s", name, v, key)
						}
					}
				}

				m := nw.Metrics()
				rounds := 2
				if mode == "unknown" {
					rounds = 4
				}
				if shape == "held" {
					rounds++
				}
				if m.Rounds != rounds {
					t.Fatalf("%s: %d rounds, want %d", name, m.Rounds, rounds)
				}
				colors := d
				if mode == "greedy" {
					colors = 2*d - 1
				}
				for r, rs := range m.PerRound[m.Rounds-2:] {
					if limit := ceilDiv(colors, n); rs.MaxEdgeMessages > limit {
						t.Fatalf("%s: relay round %d carries %d units on one edge, limit ⌈%d/%d⌉ = %d",
							name, r+1, rs.MaxEdgeMessages, colors, n, limit)
					}
				}
			}
		}
	}
}
