package routing

import "slices"

// Graph is a weighted adjacency structure over terminals 0..N-1, used by
// the link-state protocol's per-node topology views. Edge weights are the
// CSI hop distances of the paper's cost model.
//
// Adjacency is kept as per-node edge lists sorted by neighbour id: the
// paper-scale degree is around ten, where a binary-searched slice beats a
// map on every operation, iteration order is deterministic without a
// per-visit sort, and the Dijkstra inner loop walks contiguous memory.
type Graph struct {
	n   int
	adj [][]gedge

	// spt is the reusable ShortestPaths workspace: its queue and visit
	// set are recycled between calls, the two result slices are the
	// caller's.
	spt Tree
}

// gedge is one directed half of an undirected edge.
type gedge struct {
	to int32
	w  float64
}

// LinkEntry is one incident link of a terminal, as a link-state
// advertisement lists it.
type LinkEntry struct {
	Neighbor int
	Cost     float64 // CSI hop distance
}

// NewGraph returns an empty graph over n terminals.
func NewGraph(n int) *Graph {
	return &Graph{n: n, adj: make([][]gedge, n)}
}

// N reports the number of terminals.
func (g *Graph) N() int { return g.n }

// edgeIdx returns the position of v in u's sorted edge list and whether
// it is present; absent, the position is the insertion point.
func (g *Graph) edgeIdx(u, v int) (int, bool) {
	es := g.adj[u]
	lo, hi := 0, len(es)
	for lo < hi {
		mid := (lo + hi) / 2
		if int(es[mid].to) < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(es) && int(es[lo].to) == v
}

func (g *Graph) setHalf(u, v int, w float64) {
	i, ok := g.edgeIdx(u, v)
	if ok {
		g.adj[u][i].w = w
		return
	}
	es := append(g.adj[u], gedge{})
	copy(es[i+1:], es[i:])
	es[i] = gedge{to: int32(v), w: w}
	g.adj[u] = es
}

func (g *Graph) dropHalf(u, v int) {
	if i, ok := g.edgeIdx(u, v); ok {
		es := g.adj[u]
		g.adj[u] = append(es[:i], es[i+1:]...)
	}
}

// SetEdge installs the undirected edge (u, v) with weight w, replacing any
// previous weight. Non-positive or infinite weights remove the edge.
func (g *Graph) SetEdge(u, v int, w float64) {
	if u == v {
		return
	}
	if w <= 0 || w >= InfiniteHops {
		g.dropHalf(u, v)
		g.dropHalf(v, u)
		return
	}
	g.setHalf(u, v, w)
	g.setHalf(v, u, w)
}

// RemoveEdge deletes the undirected edge (u, v).
func (g *Graph) RemoveEdge(u, v int) { g.SetEdge(u, v, 0) }

// Edge reports the weight of (u, v) and whether it exists.
func (g *Graph) Edge(u, v int) (float64, bool) {
	if i, ok := g.edgeIdx(u, v); ok {
		return g.adj[u][i].w, true
	}
	return 0, false
}

// ClearNode removes every edge incident to u.
func (g *Graph) ClearNode(u int) {
	for _, e := range g.adj[u] {
		g.dropHalf(int(e.to), u)
	}
	g.adj[u] = g.adj[u][:0]
}

// ReplaceNode makes u's incident edges exactly links — a terminal's
// advertisement replaces whatever the view held for it — and reports
// whether any edge was added, dropped or re-weighted. An advertisement
// lists its neighbours in ascending order and differs from the last one
// by a cost or two, so the list is merged against u's sorted edges and
// only the edges that differ have their reverse half looked up.
func (g *Graph) ReplaceNode(u int, links []LinkEntry) bool {
	if !ascending(u, links) {
		return g.replaceIrregular(u, links)
	}
	old := g.adj[u]
	changed := false
	i := 0
	for _, l := range links {
		for ; i < len(old) && int(old[i].to) < l.Neighbor; i++ {
			g.dropHalf(int(old[i].to), u)
			changed = true
		}
		if i < len(old) && int(old[i].to) == l.Neighbor {
			i++
			if old[i-1].w == l.Cost {
				continue // the edge stands as it is
			}
		}
		g.setHalf(l.Neighbor, u, l.Cost) // a new edge, or a new weight
		changed = true
	}
	for ; i < len(old); i++ {
		g.dropHalf(int(old[i].to), u)
		changed = true
	}
	if changed {
		old = old[:0]
		for _, l := range links {
			old = append(old, gedge{to: int32(l.Neighbor), w: l.Cost})
		}
		g.adj[u] = old
	}
	return changed
}

// ascending reports whether links is what ReplaceNode's merge assumes:
// strictly ascending neighbours other than u, each at a cost SetEdge
// would install.
func ascending(u int, links []LinkEntry) bool {
	prev := -1
	for _, l := range links {
		if l.Neighbor <= prev || l.Neighbor == u || !(l.Cost > 0 && l.Cost < InfiniteHops) {
			return false
		}
		prev = l.Neighbor
	}
	return true
}

// replaceIrregular applies a list in any order, with repeats, self-links
// or removing costs, entry by entry as SetEdge defines them.
func (g *Graph) replaceIrregular(u int, links []LinkEntry) bool {
	was := slices.Clone(g.adj[u])
	g.ClearNode(u)
	for _, l := range links {
		g.SetEdge(u, l.Neighbor, l.Cost)
	}
	// Edges are symmetric and only u's were touched, so u's list tells.
	return !slices.Equal(was, g.adj[u])
}

// CopyFrom replaces g's edges with src's. Both graphs must cover the same
// terminal count; the receiver's storage is reused. Link-state agents
// install the shared boot topology into their private views with it.
func (g *Graph) CopyFrom(src *Graph) {
	if g.n != src.n {
		panic("routing: CopyFrom across different graph sizes")
	}
	for i := range g.adj {
		g.adj[i] = append(g.adj[i][:0], src.adj[i]...)
	}
}

// InfiniteHops mirrors channel.Class.HopDistance's sentinel without
// importing the channel package here.
const InfiniteHops = 1e9

// Tree is a shortest-path tree from one terminal over one state of a
// graph, settled only as far as the lookups made so far needed. The zero
// value is ready; its storage is reused across resets.
type Tree struct {
	src     int
	started bool
	next    []int     // first hop from src, final once the terminal is done
	dist    []float64 // best distance found so far
	done    []bool    // settled: popped at its final distance
	heap    distHeap  // the frontier
}

// Reset forgets the tree: the graph it was grown over has changed.
func (t *Tree) Reset() { t.started = false }

// start makes t the unsettled tree from src over n terminals.
func (t *Tree) start(n, src int) {
	t.next, t.dist = t.next[:0], t.dist[:0]
	for i := 0; i < n; i++ {
		t.next = append(t.next, -1)
		t.dist = append(t.dist, InfiniteHops)
	}
	t.dist[src] = 0
	if cap(t.done) < n {
		t.done = make([]bool, n)
	}
	t.done = t.done[:n]
	clear(t.done)
	t.heap = append(t.heap[:0], distItem{node: src, dist: 0})
	t.src, t.started = src, true
}

// Hop returns the first hop on a shortest path from src to dst, or -1 if
// dst is unreachable. t is grown from where the last lookup left it, and
// only until dst is settled; the caller resets it when g changes.
func (g *Graph) Hop(t *Tree, src, dst int) int {
	if !t.started || t.src != src {
		t.start(g.n, src)
	}
	g.settle(t, dst)
	return t.next[dst]
}

// ShortestPaths runs Dijkstra from src and returns, for every terminal,
// the first hop on a shortest path from src (or -1 if unreachable) and the
// total distance. The two result slices are appended to next and dist
// (pass buffers from the previous call to make this one allocation-free
// in the steady state); the queue and visit set are recycled on the graph.
func (g *Graph) ShortestPaths(src int, next []int, dist []float64) ([]int, []float64) {
	t := &g.spt
	t.next, t.dist = next, dist
	t.start(g.n, src)
	g.settle(t, -1)
	next, dist = t.next, t.dist
	t.next, t.dist = nil, nil
	return next, dist
}

// settle grows t until dst is settled, or to exhaustion for a dst no
// terminal has. A settled terminal's distance and first hop are final —
// weights are positive and the relaxation strict — so where the loop
// stops changes no answer it has given or will give.
func (g *Graph) settle(t *Tree, dst int) {
	if dst >= 0 && t.done[dst] {
		return
	}
	next, dist, done, src := t.next, t.dist, t.done, t.src
	for len(t.heap) > 0 {
		u := t.heap.pop().node
		if done[u] {
			continue
		}
		done[u] = true
		// Edge lists are sorted by neighbour id, so equal-cost tie-breaks
		// relax in deterministic order for reproducible trials.
		for _, e := range g.adj[u] {
			v := int(e.to)
			nd := dist[u] + e.w
			if nd < dist[v] {
				dist[v] = nd
				if u == src {
					next[v] = v
				} else {
					next[v] = next[u]
				}
				t.heap.push(distItem{node: v, dist: nd})
			}
		}
		if u == dst {
			return
		}
	}
}

type distItem struct {
	node int
	dist float64
}

// distHeap is a hand-rolled binary min-heap over (dist, node). The
// ordering has no ties — node ids break them — so the pop sequence is the
// unique sorted frontier regardless of internal layout, and avoiding
// container/heap spares an interface boxing per operation.
type distHeap []distItem

func (h distHeap) less(i, j int) bool {
	if h[i].dist != h[j].dist {
		return h[i].dist < h[j].dist
	}
	return h[i].node < h[j].node
}

func (h *distHeap) push(it distItem) {
	*h = append(*h, it)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		(*h)[i], (*h)[parent] = (*h)[parent], (*h)[i]
		i = parent
	}
}

func (h *distHeap) pop() distItem {
	old := *h
	n := len(old)
	top := old[0]
	old[0] = old[n-1]
	*h = old[:n-1]
	n--
	i := 0
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		least := left
		if right := left + 1; right < n && h.less(right, left) {
			least = right
		}
		if !h.less(least, i) {
			break
		}
		(*h)[i], (*h)[least] = (*h)[least], (*h)[i]
		i = least
	}
	return top
}
