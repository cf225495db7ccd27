package routing

import (
	"math/rand"
	"slices"
	"testing"
)

// The two laws below hold the link-state fast paths to the slow ones they
// replaced, in udpx core_test.go's style: a seeded 10k-iteration loop
// over random inputs asserting a property, not bytes. Each was shown
// failing against a deliberate wrong edit (BENCH_22.json,
// gates_shown_failing).

// classCosts are the paper's four CSI hop distances: most edges of a
// simulated view carry one of them, so equal-distance ties — where the
// pop order and the strict relaxation decide the next hop — are the
// common case, not the corner.
var classCosts = []float64{1, 1.67, 3.33, 5}

func lawCost(rng *rand.Rand) float64 {
	if rng.Intn(4) > 0 {
		return classCosts[rng.Intn(len(classCosts))]
	}
	return 0.01 + 9*rng.Float64()
}

// randomGraph has each terminal linked to about deg others.
func randomGraph(rng *rand.Rand, n, deg int) *Graph {
	g := NewGraph(n)
	for e := n * deg / 2; e > 0; e-- {
		g.SetEdge(rng.Intn(n), rng.Intn(n), lawCost(rng))
	}
	return g
}

// randomLinks is an advertisement ReplaceNode's merge accepts: ascending
// neighbours other than u. Half the time it is u's current list with a
// few entries re-priced, dropped or added — what a real LSA is.
func randomLinks(rng *rand.Rand, g *Graph, u int) []LinkEntry {
	var links []LinkEntry
	like := rng.Intn(2) == 0
	for v := 0; v < g.n; v++ {
		if v == u {
			continue
		}
		w, has := g.Edge(u, v)
		switch {
		case like && has && rng.Intn(8) > 0:
			if rng.Intn(4) == 0 {
				w = lawCost(rng)
			}
			links = append(links, LinkEntry{Neighbor: v, Cost: w})
		case like && !has && rng.Intn(4*g.n) == 0, !like && rng.Intn(g.n) < 6:
			links = append(links, LinkEntry{Neighbor: v, Cost: lawCost(rng)})
		}
	}
	return links
}

// irregularLinks breaks each thing the merge assumes: order, uniqueness,
// no self-link, installable costs.
func irregularLinks(rng *rand.Rand, g *Graph, u int) []LinkEntry {
	links := randomLinks(rng, g, u)
	for k := 1 + rng.Intn(3); k > 0; k-- {
		e := LinkEntry{Neighbor: rng.Intn(g.n), Cost: lawCost(rng)}
		switch rng.Intn(5) {
		case 0:
			e.Neighbor = u
		case 1:
			e.Cost = 0
		case 2:
			e.Cost = -1
		case 3:
			e.Cost = InfiniteHops
		}
		links = slices.Insert(links, rng.Intn(len(links)+1), e)
		if len(links) > 1 && rng.Intn(2) == 0 {
			links = append(links, links[rng.Intn(len(links))]) // a repeat, out of place
		}
	}
	rng.Shuffle(len(links), func(i, j int) { links[i], links[j] = links[j], links[i] })
	return links
}

// linksOf appends u's current edges to buf as the advertisement that
// would leave them as they are.
func linksOf(g *Graph, u int, buf []LinkEntry) []LinkEntry {
	for _, e := range g.adj[u] {
		buf = append(buf, LinkEntry{Neighbor: int(e.to), Cost: e.w})
	}
	return buf
}

func cloneGraph(g *Graph) *Graph {
	c := NewGraph(g.n)
	c.CopyFrom(g)
	return c
}

// firstDiff is the lowest terminal whose edge list differs between a and
// b, or -1 when the graphs are equal.
func firstDiff(a, b *Graph) int {
	for u := range a.adj {
		if !slices.Equal(a.adj[u], b.adj[u]) {
			return u
		}
	}
	return -1
}

// referencePaths is Dijkstra with no heap and nothing shared with the
// package's loop: settle the unsettled terminal least by (distance, id),
// relax its neighbours in ascending order, strictly. That order is the
// whole tie-breaking rule the goldens depend on.
func referencePaths(g *Graph, src int) (next []int, dist []float64) {
	next, dist = make([]int, g.n), make([]float64, g.n)
	done := make([]bool, g.n)
	for i := range next {
		next[i], dist[i] = -1, InfiniteHops
	}
	dist[src] = 0
	for {
		u := -1
		for v := 0; v < g.n; v++ {
			if !done[v] && dist[v] < InfiniteHops && (u < 0 || dist[v] < dist[u]) {
				u = v
			}
		}
		if u < 0 {
			return next, dist
		}
		done[u] = true
		for v := 0; v < g.n; v++ {
			w, ok := g.Edge(u, v)
			if !ok || !(dist[u]+w < dist[v]) {
				continue
			}
			dist[v] = dist[u] + w
			next[v] = next[u]
			if u == src {
				next[v] = v
			}
		}
	}
}

// TestHopMatchesShortestPathsLaw: over random views edited by every
// mutator, a tree that is resumed across lookups and reset only when the
// view changed answers every destination as a full run over a fresh copy
// of the view does — first hop by first hop, ties included, -1 for the
// unreachable — and the full run agrees with the reference.
func TestHopMatchesShortestPathsLaw(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	resumed, unreachable := 0, 0
	for it := 0; it < 10_000; it++ {
		n := 2 + rng.Intn(79)
		g := randomGraph(rng, n, 1+rng.Intn(8))
		src := rng.Intn(n)
		var tree Tree
		for view := 0; view < 3; view++ {
			if view > 0 {
				u := rng.Intn(n)
				switch rng.Intn(4) {
				case 0:
					g.SetEdge(u, rng.Intn(n), lawCost(rng))
					tree.Reset()
				case 1:
					g.RemoveEdge(u, rng.Intn(n))
					tree.Reset()
				default: // ReplaceNode's report is what keeps or resets the tree
					links := randomLinks(rng, g, u)
					if rng.Intn(3) == 0 {
						links = linksOf(g, u, links[:0]) // the same advertisement again
					}
					if g.ReplaceNode(u, links) {
						tree.Reset()
					}
				}
			}
			next, dist := cloneGraph(g).ShortestPaths(src, nil, nil)
			refNext, refDist := referencePaths(g, src)
			if !slices.Equal(next, refNext) || !slices.Equal(dist, refDist) {
				t.Fatalf("iteration %d view %d: ShortestPaths(%d) = %v %v, the reference %v %v", it, view, src, next, dist, refNext, refDist)
			}
			for k := 1 + rng.Intn(4); k > 0; k-- {
				dst := rng.Intn(n)
				if tree.started {
					resumed++
				}
				if got := g.Hop(&tree, src, dst); got != next[dst] {
					t.Fatalf("iteration %d view %d: Hop(%d→%d) = %d, ShortestPaths says %d", it, view, src, dst, got, next[dst])
				}
				if next[dst] < 0 && dst != src {
					unreachable++
				}
			}
		}
	}
	if resumed < 10_000 || unreachable < 1_000 {
		t.Fatalf("the loop resumed a tree %d times and asked for %d unreachable terminals: it is not exercising what it claims", resumed, unreachable)
	}
}

// TestReplaceNodeMatchesClearAndSetLaw: on a twin graph the slow way —
// ClearNode, then SetEdge entry by entry — leaves the adjacency that
// ReplaceNode leaves, both halves of every edge, for ascending lists and
// for unsorted, repeating, self-naming and uninstallable ones; and
// ReplaceNode reports a change exactly when some edge differs afterwards.
func TestReplaceNodeMatchesClearAndSetLaw(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	kept, irregular := 0, 0
	for it := 0; it < 10_000; it++ {
		n := 2 + rng.Intn(79)
		g := randomGraph(rng, n, 1+rng.Intn(8))
		twin := cloneGraph(g)
		for step := 0; step < 4; step++ {
			u := rng.Intn(n)
			var links []LinkEntry
			switch rng.Intn(3) {
			case 0:
				links = irregularLinks(rng, g, u)
				irregular++
			default:
				links = randomLinks(rng, g, u)
			}
			before := cloneGraph(g)
			changed := g.ReplaceNode(u, links)
			twin.ClearNode(u)
			for _, l := range links {
				twin.SetEdge(u, l.Neighbor, l.Cost)
			}
			if v := firstDiff(g, twin); v >= 0 {
				t.Fatalf("iteration %d step %d: ReplaceNode(%d, %v) left terminal %d with %v, ClearNode+SetEdge with %v", it, step, u, links, v, g.adj[v], twin.adj[v])
			}
			if differs := firstDiff(g, before) >= 0; changed != differs {
				t.Fatalf("iteration %d step %d: ReplaceNode(%d, %v) reported changed=%v, the adjacency differs=%v", it, step, u, links, changed, differs)
			}
			if !changed {
				kept++
			}
		}
	}
	if kept < 1_000 || irregular < 10_000 {
		t.Fatalf("the loop saw %d unchanged and %d irregular advertisements: it is not exercising what it claims", kept, irregular)
	}
}
