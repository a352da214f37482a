package graph

import (
	"math"
	"math/rand"
	"testing"
)

// refTree is the binary-heap Dijkstra as it stood before pendant
// finalisation: every reached node is queued and popped. It is the
// reference Tree must reproduce label for label.
func (s *SSSPScratch) refTree(src NodeID, dsts []NodeID) {
	ep, remaining := s.beginEpoch(dsts)
	nodes := s.node
	wSlot := s.wSlot
	eids, tos, starts := s.csr.slotEid, s.csr.slotTo, s.csr.Start

	keep := uint32(0)
	if st := nodes[src].stamp; st-ep < epochStride {
		keep = st & fNeed
	}
	nodes[src] = nodeState{dist: 0, pred: int32(unreachedPred), stamp: ep | fSeen | keep}

	h := append(s.heap[:0], ssspItem{node: int32(src), dist: 0})
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

// pendantGraph builds a random switch fabric with nSw switches joined by
// bidirectional links, nHosts leaf hosts each attached to one switch by a
// link pair (the pendants), and a few one-way edges that give some nodes
// one out- and one in-slot that are not reverses of each other.
func pendantGraph(rng *rand.Rand, nSw, nHosts int) *Graph {
	g := New()
	for i := 0; i < nSw; i++ {
		g.AddNode("sw", KindSwitch)
	}
	for i := 0; i < nSw; i++ {
		// A ring keeps the fabric connected; chords add equal-cost paths.
		g.AddBiEdge(NodeID(i), NodeID((i+1)%nSw), 1)
		if j := rng.Intn(nSw); j != i {
			g.AddBiEdge(NodeID(i), NodeID(j), 1)
		}
	}
	for i := 0; i < nHosts; i++ {
		h := g.AddNode("host", KindHost)
		g.AddBiEdge(h, NodeID(rng.Intn(nSw)), 1)
	}
	// One-way detour nodes: a -> x -> b with a != b.
	for i := 0; i < 3; i++ {
		x := g.AddNode("oneway", KindSwitch)
		a, b := NodeID(rng.Intn(nSw)), NodeID(rng.Intn(nSw))
		if a == b {
			b = NodeID((int(a) + 1) % nSw)
		}
		g.AddEdge(a, x, 1)
		g.AddEdge(x, b, 1)
	}
	return g
}

func TestPendantFlags(t *testing.T) {
	g := New()
	hub := g.AddNode("hub", KindSwitch)
	leaf := g.AddNode("leaf", KindHost)
	mid := g.AddNode("mid", KindSwitch)
	end := g.AddNode("end", KindHost)
	loop := g.AddNode("loop", KindSwitch)
	oneway := g.AddNode("oneway", KindSwitch)
	g.AddBiEdge(hub, leaf, 1)
	g.AddBiEdge(hub, mid, 1)
	g.AddBiEdge(mid, end, 1)
	g.AddEdge(loop, loop, 1)
	g.AddEdge(hub, oneway, 1)
	g.AddEdge(oneway, mid, 1)
	want := map[NodeID]bool{hub: false, leaf: true, mid: false, end: true, loop: false, oneway: false}
	for _, comp := range []*Compiled{CompileIdentity(g), Compile(g)} {
		c := comp.Hot()
		for v, p := range want {
			hv := comp.ToHot(v)
			if c.pendant[hv] != p {
				t.Fatalf("node %d: pendant = %v, want %v", v, c.pendant[hv], p)
			}
		}
		for e, slot := range c.SlotOf {
			if c.AdjEdge[slot] != EdgeID(e) {
				t.Fatalf("SlotOf[%d] = %d carries edge %d", e, slot, c.AdjEdge[slot])
			}
		}
	}
}

// TestTreePendantMatchesReference compares Tree against refTree on random
// fabrics with pendant hosts, on the identity and the renumbered layout,
// over moderate random weights, weights with exact zeros, and absorbing
// magnitudes (1e-12 next to 1e5 and more, where d + 1e-12 == d). Every
// requested destination must get the same reachability, distance bits and
// predecessor, and the certificate must have forced the exact restart in
// the absorbing trials.
func TestTreePendantMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	kinds := []string{"moderate", "zeros", "absorbing"}
	restarts := map[string]int{}
	for trial := 0; trial < 60; trial++ {
		g := pendantGraph(rng, 6+rng.Intn(10), 4+rng.Intn(20))
		for _, c := range []*CSR{CompileIdentity(g).Hot(), Compile(g).Hot()} {
			if !c.hasPendant {
				t.Fatal("fixture has no pendant nodes")
			}
			w := make([]float64, c.NumEdges())
			kind := kinds[trial%len(kinds)]
			for e := range w {
				switch kind {
				case "moderate":
					w[e] = 0.5 + rng.Float64()
				case "zeros":
					w[e] = float64(rng.Intn(3))
				case "absorbing":
					w[e] = 1e-12
					if rng.Intn(2) == 0 {
						w[e] = 1e5 * (1 + rng.Float64())
					}
				}
			}
			got, ref := NewSSSPScratch(c), NewSSSPScratch(c)
			if err := got.SetWeights(w); err != nil {
				t.Fatal(err)
			}
			if err := ref.SetWeights(w); err != nil {
				t.Fatal(err)
			}
			n := c.NumNodes()
			for q := 0; q < 8; q++ {
				src := NodeID(rng.Intn(n))
				var dsts []NodeID
				if q%4 != 3 { // every fourth query builds the full tree
					for k := 1 + rng.Intn(4); k > 0; k-- {
						dsts = append(dsts, NodeID(rng.Intn(n)))
					}
				}
				before := got.restarts
				got.Tree(src, dsts)
				ref.refTree(src, dsts)
				restarts[kind] += got.restarts - before
				check := dsts
				if check == nil {
					check = make([]NodeID, n)
					for v := range check {
						check[v] = NodeID(v)
					}
				}
				for _, v := range check {
					if got.Reached(v) != ref.Reached(v) {
						t.Fatalf("trial %d (%s) %d->%d: reached %v, reference %v", trial, kind, src, v, got.Reached(v), ref.Reached(v))
					}
					if !ref.Reached(v) {
						continue
					}
					a, b := got.node[v], ref.node[v]
					if math.Float64bits(a.dist) != math.Float64bits(b.dist) || a.pred != b.pred {
						t.Fatalf("trial %d (%s) %d->%d: label (%v, slot %d), reference (%v, slot %d)", trial, kind, src, v, a.dist, a.pred, b.dist, b.pred)
					}
				}
			}
		}
	}
	if restarts["absorbing"] == 0 {
		t.Fatal("absorbing weights never forced the exact restart")
	}
	if restarts["moderate"] != 0 || restarts["zeros"] != 0 {
		t.Fatalf("unexpected restarts: %v (moderate weights certify every pop; zero weights disable pendant finalisation up front)", restarts)
	}
}

// TestMinWeightDeclaration covers how the declared minimum weight travels:
// SetWeights records it, SlotWeights forgets it, SetMinWeight declares it,
// ShareWeightsFrom carries it to a worker scratch that then builds the
// same trees, and ReleaseScratch drops it with the alias.
func TestMinWeightDeclaration(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := pendantGraph(rng, 12, 30)
	c := Compile(g)
	canon := NewSSSPScratch(c.Hot())
	w := make([]float64, g.NumEdges())
	for e := range w {
		w[e] = 0.25 + float64(e%7)
	}
	if err := canon.SetWeights(w); err != nil {
		t.Fatal(err)
	}
	if canon.wmin != 0.25 {
		t.Fatalf("SetWeights recorded wmin %v, want 0.25", canon.wmin)
	}
	slots := canon.SlotWeights()
	if canon.wmin != 0 {
		t.Fatalf("SlotWeights kept wmin %v, want 0", canon.wmin)
	}
	canon.SetMinWeight(0.25)
	worker := c.AcquireScratch()
	worker.ShareWeightsFrom(canon)
	if worker.wmin != 0.25 || &worker.wSlot[0] != &slots[0] {
		t.Fatalf("shared scratch: wmin %v, aliased %v", worker.wmin, &worker.wSlot[0] == &slots[0])
	}
	ref := NewSSSPScratch(c.Hot())
	if err := ref.SetWeights(w); err != nil {
		t.Fatal(err)
	}
	for src := 0; src < c.Hot().NumNodes(); src++ {
		worker.Tree(NodeID(src), nil)
		ref.refTree(NodeID(src), nil)
		for v := range worker.node {
			a, b := worker.node[v], ref.node[v]
			if math.Float64bits(a.dist) != math.Float64bits(b.dist) || a.pred != b.pred {
				t.Fatalf("%d->%d: shared-weight label (%v, %d), reference (%v, %d)", src, v, a.dist, a.pred, b.dist, b.pred)
			}
		}
	}
	c.ReleaseScratch(worker)
	if worker.wmin != 0 {
		t.Fatalf("released scratch kept wmin %v", worker.wmin)
	}
	for _, bad := range []float64{-1, math.NaN()} {
		canon.SetMinWeight(bad)
		if canon.wmin != 0 {
			t.Fatalf("SetMinWeight(%v) left wmin %v, want 0", bad, canon.wmin)
		}
	}
}
