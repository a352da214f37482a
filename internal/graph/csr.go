package graph

import (
	"fmt"
	"math"
	"sync/atomic"
)

// CSR is an immutable flat (compressed-sparse-row) adjacency view of a
// Graph, built once and shared by hot-path shortest-path code. Relative to
// walking Graph.OutEdges + MustEdge, a CSR traversal touches a few
// contiguous arrays and copies no Edge structs, which is what lets the
// Frank–Wolfe oracle relax edges allocation- and indirection-free.
//
// The slot arrays (AdjEdge, AdjTo and their int32 structure-of-arrays twins
// slotEid/slotTo) are grouped by source node: the out-edges of node u occupy
// slots Start[u]..Start[u+1], in ascending edge-id order — the same order
// Graph.OutEdges reports, so tie-breaking behaviour of algorithms ported to
// the CSR is unchanged. The edge-indexed arrays (EdgeFrom, EdgeTo, Cap) are
// addressed by EdgeID.
//
// A CSR may be a *renumbered* view (see Compile): node indices of Start,
// AdjTo, slotTo, EdgeFrom and EdgeTo then live in a permuted "hot" node
// space, while AdjEdge/slotEid and the indexing of EdgeFrom/EdgeTo/Cap stay
// in original edge-id space. Graph.CSR always returns the identity-order
// view.
type CSR struct {
	// Start has length NumNodes()+1; node u's out-slots are
	// AdjEdge[Start[u]:Start[u+1]].
	Start []int32
	// AdjEdge holds the edge id of each slot (always the original edge id,
	// even in renumbered views).
	AdjEdge []EdgeID
	// AdjTo holds the head node of each slot (AdjTo[i] is the To of edge
	// AdjEdge[i], in this view's node space).
	AdjTo []NodeID
	// EdgeFrom, EdgeTo and Cap are indexed by (original) EdgeID. The node
	// ids they hold are in this view's node space.
	EdgeFrom []NodeID
	EdgeTo   []NodeID
	Cap      []float64

	// slotEid / slotTo are the int32 structure-of-arrays twin of
	// (AdjEdge, AdjTo) used by the Dijkstra inner loop: splitting the two
	// streams halves the bytes pulled per relaxation that only needs the
	// head node, and packs twice as many slots per cache line as the old
	// interleaved (eid, to) pair array.
	slotEid []int32
	slotTo  []int32

	// SlotOf is the inverse of AdjEdge: SlotOf[e] is the slot carrying
	// (original) edge e, so edge-indexed updates can write slot-ordered
	// weight buffers directly.
	SlotOf []int32

	// pendant[v] marks a node with exactly one out-slot and one in-slot
	// that are reverses of each other (a leaf host on its access link).
	// Tree finalises such a node on its single offer instead of queueing
	// it; see Tree for why that is exact. hasPendant is false when no node
	// qualifies (BCube-style multi-homed hosts).
	pendant    []bool
	hasPendant bool
}

// NumNodes returns the number of nodes of the underlying graph.
func (c *CSR) NumNodes() int { return len(c.Start) - 1 }

// NumEdges returns the number of directed edges.
func (c *CSR) NumEdges() int { return len(c.AdjEdge) }

// csrCache holds the lazily-built CSR; Graph mutations reset it.
type csrCache struct {
	ptr atomic.Pointer[CSR]
}

// CSR returns the flat adjacency view of g, building and caching it on
// first use. The cache is invalidated by AddNode/AddEdge; concurrent
// readers of an unchanging graph share one CSR. The returned CSR and its
// arrays must not be modified.
func (g *Graph) CSR() *CSR {
	if c := g.csr.ptr.Load(); c != nil {
		return c
	}
	c := buildCSR(g)
	g.csr.ptr.Store(c)
	return c
}

func buildCSR(g *Graph) *CSR {
	n, e := len(g.nodes), len(g.edges)
	c := &CSR{
		Start:    make([]int32, n+1),
		AdjEdge:  make([]EdgeID, 0, e),
		AdjTo:    make([]NodeID, 0, e),
		EdgeFrom: make([]NodeID, e),
		EdgeTo:   make([]NodeID, e),
		Cap:      make([]float64, e),
		slotEid:  make([]int32, 0, e),
		slotTo:   make([]int32, 0, e),
	}
	for i := range g.edges {
		ed := &g.edges[i]
		c.EdgeFrom[i] = ed.From
		c.EdgeTo[i] = ed.To
		c.Cap[i] = ed.Capacity
	}
	for u := 0; u < n; u++ {
		c.Start[u] = int32(len(c.AdjEdge))
		for _, eid := range g.out[u] {
			c.AdjEdge = append(c.AdjEdge, eid)
			c.AdjTo = append(c.AdjTo, g.edges[eid].To)
			c.slotEid = append(c.slotEid, int32(eid))
			c.slotTo = append(c.slotTo, int32(g.edges[eid].To))
		}
	}
	c.Start[n] = int32(len(c.AdjEdge))
	c.indexSlots()
	return c
}

// indexSlots derives SlotOf and the pendant flags from the slot arrays;
// both view builders call it once the rows are laid out.
func (c *CSR) indexSlots() {
	n := c.NumNodes()
	c.SlotOf = make([]int32, len(c.slotEid))
	for i, e := range c.slotEid {
		c.SlotOf[e] = int32(i)
	}
	// in[v] is u+1 when v's only in-slot comes from u, -1 when v has
	// several, 0 when none.
	in := make([]int32, n)
	for u := 0; u < n; u++ {
		for _, v := range c.slotTo[c.Start[u]:c.Start[u+1]] {
			if in[v] == 0 {
				in[v] = int32(u) + 1
			} else {
				in[v] = -1
			}
		}
	}
	c.pendant = make([]bool, n)
	for p := 0; p < n; p++ {
		if c.Start[p+1]-c.Start[p] != 1 {
			continue
		}
		q := c.slotTo[c.Start[p]]
		if int(q) != p && in[p] == q+1 {
			c.pendant[p] = true
			c.hasPendant = true
		}
	}
}

// unreachedPred marks a node with no predecessor edge in an SSSP tree.
const unreachedPred = EdgeID(-1)

// SSSPScratch is reusable single-source shortest-path state over one CSR:
// distance, predecessor, weight and heap buffers that are reset by bumping
// an epoch counter instead of clearing, so a Dijkstra tree build performs
// zero allocations after warm-up. A scratch is not safe for concurrent use;
// hot paths keep one per worker.
//
// Usage: call SetWeights whenever the edge weights change, then Tree once
// per source; many Tree calls may share one SetWeights (the Frank–Wolfe
// oracle runs one sweep of sources per gradient).
type SSSPScratch struct {
	csr *CSR

	wSlot []float64 // active slot-ordered weights (own, or shared — see ShareWeightsFrom)
	own   []float64 // the scratch's private weight buffer
	// wmin is a lower bound on every active slot weight, declared by the
	// weight loader (SetWeights, SetMinWeight, ShareWeightsFrom); 0 means
	// unknown. Tree's pendant finalisation is certified against it.
	wmin float64
	// restarts counts Tree calls whose certificate failed and that reran
	// as the exact full-queue traversal (observed by tests).
	restarts int

	node      []nodeState // per-node label: one bounds check, 4 labels per cache line
	epoch     uint32
	remaining int // wanted destinations not yet finalised

	heap []ssspItem

	buckets [][]ssspItem // circular Dial bucket queue (see TreeDial)

	// frontier/nextFrontier are the two-level queue of TreeDial's uniform
	// (span == 1) mode: with no duplicate entries and one distance per
	// level, a bucket entry is just the node id.
	frontier, nextFrontier []int32

	pathBuf []EdgeID // reversal scratch for AppendPathTo
}

// ssspItem is one (distance, node) heap entry; a single packed array keeps
// sift operations to one swap per level.
type ssspItem struct {
	dist float64
	node int32
}

// nodeState packs one node's entire Dijkstra label — tentative distance,
// predecessor, and a combined epoch/flag stamp — into 16 bytes, so four
// labels share each cache line (the old three-counter layout fit 2.67).
// pred is the predecessor's adjacency SLOT index (into slotEid/slotTo),
// not an edge id: recording the slot keeps the relax loop off the edge-id
// stream entirely, and slotEid recovers the original edge id on the cold
// paths that need it (exact-distance tie-breaks, path extraction). The
// stamp's low three bits are the per-epoch flags (fSeen, fDone, fNeed) and
// the rest is the epoch number: epochs advance by epochStride, and a stamp
// is current exactly when stamp-epoch < epochStride (unsigned), which
// replaces per-run clearing with one add. dist/pred are valid only when
// the stamp is current and carries fSeen.
type nodeState struct {
	dist  float64
	pred  int32
	stamp uint32
}

// Epoch/flag packing for nodeState.stamp. epochStride is 8 (three flag
// bits), so epochs wrap exactly at 2^32 and the wrap check in Tree/TreeDial
// stays a single equality test.
const (
	fSeen       uint32 = 1 // dist/pred hold a tentative label this epoch
	fDone       uint32 = 2 // node finalised this epoch
	fNeed       uint32 = 4 // node is a wanted destination this epoch
	epochStride uint32 = 8
)

// NewSSSPScratch allocates scratch state sized for c.
func NewSSSPScratch(c *CSR) *SSSPScratch {
	n := c.NumNodes()
	own := make([]float64, len(c.slotEid))
	return &SSSPScratch{
		csr:   c,
		wSlot: own,
		own:   own,
		node:  alignedSlab[nodeState](n),
		heap:  make([]ssspItem, 0, n),
	}
}

// ShareWeightsFrom points this scratch's weight view at src's buffer, so a
// group of per-worker scratches reads one frozen weight fill instead of
// each copying it — the zero-copy substrate of the oracle's intra-solve
// parallel sweep. Both scratches must be built for the same CSR (a
// mismatch is ignored). While shared, Tree/TreeDial only read the buffer;
// writing through SlotWeights or SetWeights on either scratch writes the
// shared storage, so sharers must treat the weights as frozen. Call
// UnshareWeights (done automatically by Compiled.ReleaseScratch) before
// the scratch is reused independently.
//
// The sharer also takes src's declared minimum weight (see SetMinWeight) as
// of the call, so a sweep shares the weights once they are final.
func (s *SSSPScratch) ShareWeightsFrom(src *SSSPScratch) {
	if src != nil && src.csr == s.csr {
		s.wSlot = src.wSlot
		s.wmin = src.wmin
	}
}

// UnshareWeights restores the scratch's private weight buffer after a
// ShareWeightsFrom, severing any aliasing with other scratches. The
// declared minimum weight is forgotten with the alias.
func (s *SSSPScratch) UnshareWeights() {
	s.wSlot = s.own
	s.wmin = 0
}

// SetWeights loads the edge-indexed weights w (len NumEdges) into the
// scratch's slot-ordered buffer so the Dijkstra inner loop reads weights
// sequentially, and validates them: weights must be nonnegative.
// Validating here keeps the per-relaxation step branch-free. Weights are
// always indexed by original edge id, on renumbered views too. The same
// pass records the minimum weight Tree certifies against.
func (s *SSSPScratch) SetWeights(w []float64) error {
	eids := s.csr.slotEid
	wmin := math.Inf(1)
	for i := range eids {
		wt := w[eids[i]]
		if wt < 0 {
			s.wmin = 0
			return fmt.Errorf("graph: negative weight %v on edge %d", wt, eids[i])
		}
		if wt < wmin || wt != wt {
			wmin = wt // a NaN sticks: it fails every later comparison
		}
		s.wSlot[i] = wt
	}
	s.SetMinWeight(wmin)
	return nil
}

// SlotWeights exposes the scratch's slot-ordered weight buffer for callers
// that can compute weights directly in slot order (slot i corresponds to
// edge CSR.AdjEdge[i]), skipping SetWeights' gather pass. The caller must
// fill every entry with a nonnegative value before the next Tree call.
// Handing out the buffer forgets the declared minimum weight, so Tree runs
// its exact full-queue traversal until SetMinWeight declares a new one.
func (s *SSSPScratch) SlotWeights() []float64 {
	s.wmin = 0
	return s.wSlot
}

// SetMinWeight declares wmin as a lower bound on every slot weight written
// through SlotWeights. Tree uses it to certify pendant finalisation (see
// Tree); a bound above the true minimum voids Tree's exactness, while 0, a
// negative value or NaN turns pendant finalisation off.
func (s *SSSPScratch) SetMinWeight(wmin float64) {
	if !(wmin > 0) {
		wmin = 0
	}
	s.wmin = wmin
}

// beginEpoch advances the stamp epoch for one Tree/TreeDial call and
// returns it, clearing all labels on the (rare) 2^32 wrap, and stamps the
// wanted destinations. It returns the epoch and the count of distinct
// wanted destinations.
func (s *SSSPScratch) beginEpoch(dsts []NodeID) (ep uint32, remaining int) {
	s.epoch += epochStride
	if s.epoch == 0 { // wrapped: stamps are stale, clear them
		for i := range s.node {
			s.node[i] = nodeState{}
		}
		s.epoch = epochStride
	}
	ep = s.epoch
	for _, d := range dsts {
		st := &s.node[d]
		if st.stamp-ep < epochStride {
			if st.stamp&fNeed == 0 {
				st.stamp |= fNeed
				remaining++
			}
		} else {
			st.stamp = ep | fNeed
			remaining++
		}
	}
	return ep, remaining
}

// Tree computes the Dijkstra shortest-path tree from src under the weights
// last loaded by SetWeights. When dsts is non-empty, the search stops as
// soon as every listed destination is finalised — predecessors of other
// nodes are then unspecified. Ties are broken exactly like the historical
// oracle: a node finalised once is never relabelled, and among
// equal-distance labels the smaller predecessor edge id wins. On a
// renumbered view the edge ids compared are still the original ids
// (slotEid), so the traversal is isomorphic to the identity-order one and
// every downstream output is byte-identical — see Compile.
//
// The heap is inlined and all scratch state is hoisted into locals: the
// compiler cannot prove the scratch's slice fields do not alias, so method
// calls and field loads inside the loop would otherwise defeat register
// allocation. The sift code preserves the exact comparison sequence of the
// historical swap-based heap, keeping pop order among equal keys — and
// with it every deterministic tie-break downstream — unchanged.
//
// Pendant finalisation. A pendant node (one out-slot, one in-slot, each
// the reverse of the other: a leaf host) receives exactly one offer, from
// its only neighbour, and its own relaxation leads straight back to that
// finalised neighbour and so never changes anything. Tree therefore labels
// and finalises a pendant on that offer instead of queueing it, which
// keeps a fabric's leaf hosts out of the heap. Finalising early changes
// only the heap's layout, which is unobservable whenever equal-key pop
// order is: when every relaxation strictly increases the distance, all
// labels of one key are complete before the first of them pops, and no
// pop of that key can offer another. Each pop certifies this with
// d + wmin > d, wmin being the declared minimum weight (SetWeights,
// SetMinWeight). The certificate fails on zero weights and where float
// addition absorbs the smallest weight at large distances; the call then
// restarts with every node queued — the historical exact traversal —
// so the result is the same in every case.
func (s *SSSPScratch) Tree(src NodeID, dsts []NodeID) {
	nodes := s.node
	wSlot := s.wSlot
	eids, tos, starts := s.csr.slotEid, s.csr.slotTo, s.csr.Start
	pendant, wmin := s.csr.pendant, s.wmin
	skip := wmin > 0 && s.csr.hasPendant

restart:
	ep, remaining := s.beginEpoch(dsts)
	keep := uint32(0)
	if st := nodes[src].stamp; st-ep < epochStride {
		keep = st & fNeed
	}
	nodes[src] = nodeState{dist: 0, pred: int32(unreachedPred), stamp: ep | fSeen | keep}

	h := append(s.heap[:0], ssspItem{node: int32(src), dist: 0})
pops:
	for len(h) > 0 {
		// Inline heapPop (hole sift-down of the former last entry). Indices
		// are uint so the prover can drop the bounds checks.
		top := h[0]
		last := uint(len(h)) - 1
		siftv := h[last]
		h = h[:last]
		i := uint(0)
		sd := siftv.dist
		for {
			l, r := 2*i+1, 2*i+2
			// Pick the smaller child first (left wins ties), then compare it
			// against the sifted value: decision-equivalent to checking each
			// child against the running minimum in turn, but the two child
			// loads are independent, which shortens the serial load chain.
			var m uint
			if r < last {
				if h[l].dist <= h[r].dist {
					m = l
				} else {
					m = r
				}
			} else if l < last {
				m = l
			} else {
				break
			}
			if h[m].dist >= sd {
				break
			}
			h[i] = h[m]
			i = m
		}
		if last > 0 {
			h[i] = siftv
		}

		u, d := top.node, top.dist
		su := &nodes[u]
		// Every heap entry was pushed this call, so su's stamp is current:
		// the flag bits are exactly su.stamp-ep.
		if su.stamp&fDone != 0 || d > su.dist {
			continue
		}
		if skip && !(d+wmin > d) {
			// No certificate: u's relaxations may not increase the
			// distance, so rerun with every node queued.
			s.heap = h[:0]
			skip = false
			s.restarts++
			goto restart
		}
		su.stamp |= fDone
		if su.stamp&fNeed != 0 {
			remaining--
			if remaining == 0 {
				break
			}
		}
		// Sub-slice ranging bounds-checks the adjacency row once; ws is cut
		// to the same bounds so its accesses are provably in range too. The
		// relax loop never reads the edge-id stream: predecessors are
		// recorded as slot indices, and original edge ids are looked up
		// through slotEid only on exact-distance ties (and at path
		// extraction), keeping the hot loop to two streams plus labels.
		base := starts[u]
		row := tos[base:starts[u+1]]
		ws := wSlot[base : base+int32(len(row))]
		for k := range row {
			v := row[k]
			st := &nodes[v]
			sv := st.stamp - ep // unsigned: current iff < epochStride, then == flags
			if sv&^uint32(fSeen|fNeed) == fDone {
				// Current and finalised (single fused test: stale stamps have
				// sv >= epochStride, so the masked value can't equal fDone).
				// Never rewrite a finalised node's predecessor: an
				// equal-distance overwrite after finalisation (common under
				// float absorption of tiny weights) can create predecessor
				// cycles and break path reconstruction.
				continue
			}
			nd := d + ws[k]
			if sv >= epochStride {
				st.stamp = ep | fSeen
				st.dist = nd
				st.pred = base + int32(k)
			} else if sv&fSeen == 0 {
				st.stamp |= fSeen
				st.dist = nd
				st.pred = base + int32(k)
			} else if nd < st.dist || (nd == st.dist && st.pred != int32(unreachedPred) && eids[base+int32(k)] < eids[st.pred]) {
				st.dist = nd
				st.pred = base + int32(k)
			} else {
				continue
			}
			if skip && pendant[v] {
				// This was the pendant's only offer: final as it stands.
				st.stamp |= fDone
				if st.stamp&fNeed != 0 {
					remaining--
					if remaining == 0 {
						break pops
					}
				}
				continue
			}
			// Inline heapPush (hole sift-up).
			it := ssspItem{node: v, dist: nd}
			h = append(h, it)
			j := uint(len(h)) - 1
			for j > 0 {
				p := (j - 1) / 2
				if h[p].dist <= nd {
					break
				}
				h[j] = h[p]
				j = p
			}
			h[j] = it
		}
	}
	s.heap = h
	s.remaining = remaining
}

// Reached reports whether dst was finalised by the last Tree call.
func (s *SSSPScratch) Reached(dst NodeID) bool {
	sv := s.node[dst].stamp - s.epoch
	return sv < epochStride && sv&fDone != 0
}

// Dist returns the shortest distance to dst from the last Tree call; it is
// meaningful only when Reached(dst).
func (s *SSSPScratch) Dist(dst NodeID) float64 { return s.node[dst].dist }

// AppendPathTo appends the edge ids of the tree path src->dst to buf and
// returns the extended slice. It reports ok=false when dst was not
// finalised by the last Tree call (unreachable, or pruned by the dsts
// early exit). An src==dst query yields an empty path. The appended edge
// ids are original edge ids even on a renumbered view (predecessors are
// slot indices mapped through slotEid here), so callers intern paths
// without any translation. The appended edges reuse no internal storage,
// but callers that retain the path across Tree calls on shared buffers
// should copy it.
func (s *SSSPScratch) AppendPathTo(dst NodeID, buf []EdgeID) (out []EdgeID, ok bool) {
	ep := s.epoch
	if sv := s.node[dst].stamp - ep; sv >= epochStride || sv&fDone == 0 {
		return buf, false
	}
	s.pathBuf = s.pathBuf[:0]
	c := s.csr
	for cur := dst; ; {
		if sv := s.node[cur].stamp - ep; sv >= epochStride || sv&fSeen == 0 {
			return buf, false
		}
		slot := s.node[cur].pred
		if slot == int32(unreachedPred) {
			break
		}
		eid := c.slotEid[slot]
		s.pathBuf = append(s.pathBuf, EdgeID(eid))
		cur = c.EdgeFrom[eid]
		if len(s.pathBuf) > c.NumEdges() {
			return buf, false // defensive: corrupted predecessor chain
		}
	}
	for i := len(s.pathBuf) - 1; i >= 0; i-- {
		buf = append(buf, s.pathBuf[i])
	}
	return buf, true
}
