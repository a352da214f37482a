package mcfsolve

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"

	"dcnflow/internal/flow"
	"dcnflow/internal/graph"
	"dcnflow/internal/power"
	"dcnflow/internal/topology"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_results.txt from the current solver")

const goldenFile = "testdata/golden_results.txt"

// hashResults folds every bit of a sequence of Results — edge flows, path
// decompositions (edge ids and weights, in emitted order), objective, gap
// and iteration count — into one digest.
func hashResults(rs ...*Result) string {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, r := range rs {
		put(uint64(len(r.EdgeFlow)))
		for _, x := range r.EdgeFlow {
			put(math.Float64bits(x))
		}
		put(uint64(len(r.PathsByCommodity)))
		for _, wps := range r.PathsByCommodity {
			put(uint64(len(wps)))
			for _, wp := range wps {
				put(math.Float64bits(wp.Weight))
				put(uint64(len(wp.Path.Edges)))
				for _, e := range wp.Path.Edges {
					put(uint64(e))
				}
			}
		}
		put(math.Float64bits(r.Objective))
		put(math.Float64bits(r.Gap))
		put(uint64(r.Iters))
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// goldenComms draws n host-to-host commodities with distinct IDs.
func goldenComms(hosts []graph.NodeID, n int, seed int64) []Commodity {
	rng := rand.New(rand.NewSource(seed))
	comms := make([]Commodity, 0, n)
	for len(comms) < n {
		src := hosts[rng.Intn(len(hosts))]
		dst := hosts[rng.Intn(len(hosts))]
		if src == dst {
			continue
		}
		comms = append(comms, Commodity{ID: flow.ID(len(comms)), Src: src, Dst: dst, Demand: 0.25 + 2*rng.Float64()})
	}
	return comms
}

// detourPath is a valid but non-shortest src->dst walk: the hop-count
// shortest path with an out-and-back excursion from its second node. A
// warm start on it makes the first Frank–Wolfe step move all mass off the
// excursion under a linear envelope cost (gamma = 1), shrinking the flow
// support.
func detourPath(t *testing.T, g *graph.Graph, src, dst graph.NodeID) []graph.EdgeID {
	t.Helper()
	sp, err := g.ShortestPath(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	csr := g.CSR()
	first := sp.Edges[0]
	u := csr.EdgeTo[first]
	var out, back graph.EdgeID = -1, -1
	for _, e := range csr.AdjEdge[csr.Start[u]:csr.Start[u+1]] {
		v := csr.EdgeTo[e]
		if v == csr.EdgeFrom[first] || v == csr.EdgeTo[sp.Edges[1]] {
			continue
		}
		for _, r := range csr.AdjEdge[csr.Start[v]:csr.Start[v+1]] {
			if csr.EdgeTo[r] == u {
				out, back = e, r
				break
			}
		}
		if out >= 0 {
			break
		}
	}
	if out < 0 {
		t.Fatal("no detour available")
	}
	walk := []graph.EdgeID{first, out, back}
	return append(walk, sp.Edges[1:]...)
}

// goldenCase is one pinned solve scenario; run performs it on one Solver
// and returns the Results that enter the digest.
type goldenCase struct {
	name string
	topo func() (*topology.Topology, error)
	m    power.Model
	opts Options
	run  func(t *testing.T, s *Solver, topo *topology.Topology) []*Result
}

func solveComms(n int, seed int64) func(*testing.T, *Solver, *topology.Topology) []*Result {
	return func(t *testing.T, s *Solver, topo *topology.Topology) []*Result {
		res, err := s.Solve(goldenComms(topo.Hosts, n, seed))
		if err != nil {
			t.Fatal(err)
		}
		return []*Result{res}
	}
}

func goldenCases() []goldenCase {
	ft4 := func() (*topology.Topology, error) { return topology.FatTree(4, 4) }
	ft8 := func() (*topology.Topology, error) { return topology.FatTree(8, 4) }
	bcube := func() (*topology.Topology, error) { return topology.BCube(4, 1, 4) }
	jelly := func() (*topology.Topology, error) { return topology.Jellyfish(20, 4, 2, 4, 7) }
	opts := Options{MaxIters: 40, Tol: 1e-5}
	return []goldenCase{
		{"ft4-alpha2-dynamic", ft4, power.Model{Mu: 1, Alpha: 2}, Options{Cost: CostDynamic, MaxIters: 40, Tol: 1e-5}, solveComms(8, 1)},
		{"ft4-alpha2.5-envelope", ft4, power.Model{Mu: 1, Alpha: 2.5, C: 4}, opts, solveComms(8, 2)},
		{"ft8-alpha3-envelope", ft8, power.Model{Mu: 1, Alpha: 3, C: 4}, opts, solveComms(16, 3)},
		{"ft8-alpha2-sigma-envelope", ft8, power.Model{Sigma: 1, Mu: 1, Alpha: 2, C: 4}, opts, solveComms(16, 4)},
		{"ft8-alpha2-penalty", ft8, power.Model{Mu: 1, Alpha: 2, C: 1.5}, opts, solveComms(24, 5)},
		{"bcube-alpha2-envelope", bcube, power.Model{Mu: 1, Alpha: 2, C: 4}, opts, solveComms(10, 6)},
		{"bcube-alpha2.5-sigma", bcube, power.Model{Sigma: 0.5, Mu: 1, Alpha: 2.5, C: 4}, opts, solveComms(10, 7)},
		{"jellyfish-alpha2-envelope", jelly, power.Model{Mu: 1, Alpha: 2, C: 4}, opts, solveComms(12, 8)},
		{"jellyfish-alpha3-penalty", jelly, power.Model{Mu: 1, Alpha: 3, C: 1}, opts, solveComms(12, 9)},
		{"ft8-alpha2-absorbing", ft8, power.Model{Mu: 1, Alpha: 2}, opts,
			func(t *testing.T, s *Solver, topo *topology.Topology) []*Result {
				// Demands of ~1e5 put path distances where the 1e-12 hop
				// bias of unloaded links is absorbed by float addition.
				comms := goldenComms(topo.Hosts, 12, 12)
				for i := range comms {
					comms[i].Demand *= 1e5
				}
				res, err := s.Solve(comms)
				if err != nil {
					t.Fatal(err)
				}
				return []*Result{res}
			}},
		{"ft8-alpha2-base", ft8, power.Model{Mu: 1, Alpha: 2, C: 4}, opts,
			func(t *testing.T, s *Solver, topo *topology.Topology) []*Result {
				base := make([]float64, topo.Graph.NumEdges())
				for e := range base {
					if e%3 != 0 {
						base[e] = 0.1 * float64(e%11)
					}
				}
				res, err := s.SolveBaseWarmCtx(context.Background(), goldenComms(topo.Hosts, 12, 10), base, WarmStart{})
				if err != nil {
					t.Fatal(err)
				}
				return []*Result{res}
			}},
		{"ft8-alpha2-warm", ft8, power.Model{Mu: 1, Alpha: 2, C: 4}, opts,
			func(t *testing.T, s *Solver, topo *topology.Topology) []*Result {
				prev := goldenComms(topo.Hosts, 12, 11)
				first, err := s.Solve(prev)
				if err != nil {
					t.Fatal(err)
				}
				// Rescaled demands, one endpoint change (cold fallback) and
				// one new commodity.
				next := append([]Commodity(nil), prev...)
				for i := range next {
					next[i].Demand *= 1 + 0.1*float64(i%4)
				}
				next[3].Dst = next[4].Dst
				if next[3].Dst == next[3].Src {
					next[3].Dst = next[5].Dst
				}
				next = append(next, Commodity{ID: 99, Src: topo.Hosts[0], Dst: topo.Hosts[len(topo.Hosts)-1], Demand: 1})
				second, err := s.SolveWarm(next, WarmStart{Commodities: prev, Result: first})
				if err != nil {
					t.Fatal(err)
				}
				return []*Result{first, second}
			}},
		{"ft4-sigma-warm-gamma1", ft4, power.Model{Sigma: 4, Mu: 1, Alpha: 2, C: 4}, opts,
			func(t *testing.T, s *Solver, topo *topology.Topology) []*Result {
				g := topo.Graph
				src, dst := topo.Hosts[0], topo.Hosts[2]
				walk := detourPath(t, g, src, dst)
				prev := []Commodity{{ID: 1, Src: src, Dst: dst, Demand: 1}, {ID: 2, Src: topo.Hosts[5], Dst: topo.Hosts[9], Demand: 0.5}}
				sp, err := g.ShortestPath(topo.Hosts[5], topo.Hosts[9])
				if err != nil {
					t.Fatal(err)
				}
				warm := &Result{PathsByCommodity: [][]WeightedPath{
					{{Path: graph.Path{Edges: walk}, Weight: 1}},
					{{Path: sp, Weight: 0.5}},
				}}
				res, err := s.SolveWarm(prev, WarmStart{Commodities: prev, Result: warm})
				if err != nil {
					t.Fatal(err)
				}
				for _, wp := range res.PathsByCommodity[0] {
					if len(wp.Path.Edges) == len(walk) {
						t.Fatalf("detour walk kept with weight %v: the first step did not clear it", wp.Weight)
					}
				}
				return []*Result{res}
			}},
	}
}

func readGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, sum, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", goldenFile, line)
		}
		want[name] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestSolveGoldenResults pins the full Result of every golden case — each
// solved on the renumbered and the identity layout at oracle worker counts
// 1 and 2, all four of which must agree — against digests recorded in
// testdata/golden_results.txt. Any change to a Frank–Wolfe trajectory
// (weights, oracle tie-breaks, line search, support bookkeeping) shows up
// as a digest mismatch. Run with -update to re-record after a deliberate
// change.
func TestSolveGoldenResults(t *testing.T) {
	got := map[string]string{}
	for _, gc := range goldenCases() {
		topo, err := gc.topo()
		if err != nil {
			t.Fatal(err)
		}
		layouts := []struct {
			name string
			c    *graph.Compiled
		}{{"renumbered", graph.Compile(topo.Graph)}, {"identity", graph.CompileIdentity(topo.Graph)}}
		for _, lay := range layouts {
			for _, workers := range []int{1, 2} {
				opts := gc.opts
				opts.OracleWorkers = workers
				s, err := NewSolverCompiled(lay.c, gc.m, opts)
				if err != nil {
					t.Fatal(err)
				}
				sum := hashResults(gc.run(t, s, topo)...)
				if prev, ok := got[gc.name]; ok && prev != sum {
					t.Fatalf("%s: %s layout, %d workers: digest %s differs from the first cell's %s", gc.name, lay.name, workers, sum, prev)
				}
				got[gc.name] = sum
			}
		}
	}
	if *updateGolden {
		names := make([]string, 0, len(got))
		for n := range got {
			names = append(names, n)
		}
		sort.Strings(names)
		var b strings.Builder
		b.WriteString("# Digests of full mcfsolve.Results (see TestSolveGoldenResults); regenerate with go test -run TestSolveGoldenResults -update.\n")
		for _, n := range names {
			fmt.Fprintf(&b, "%s %s\n", n, got[n])
		}
		if err := os.WriteFile(goldenFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readGolden(t)
	for name, sum := range got {
		if want[name] != sum {
			t.Errorf("%s: digest %s, golden %q", name, sum, want[name])
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("golden case %s no longer exists", name)
		}
	}
}
