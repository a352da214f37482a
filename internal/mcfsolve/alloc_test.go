package mcfsolve

import (
	"testing"

	"dcnflow/internal/graph"
	"dcnflow/internal/power"
	"dcnflow/internal/topology"
)

// TestOracleSweepZeroAllocsAfterWarmup is the allocation-regression ceiling
// for the solver's linear oracle: once every optimal path has been interned
// (first sweep), a full sweep — Dijkstra tree per distinct source plus path
// extraction and interning for every commodity — must not allocate.
func TestOracleSweepZeroAllocsAfterWarmup(t *testing.T) {
	ft, err := topology.FatTree(4, 100)
	if err != nil {
		t.Fatal(err)
	}
	comms := make([]Commodity, 12)
	for i := range comms {
		comms[i] = Commodity{
			ID:     0,
			Src:    ft.Hosts[(i*3)%len(ft.Hosts)],
			Dst:    ft.Hosts[(i*5+2)%len(ft.Hosts)],
			Demand: 1,
		}
	}
	m := power.Model{Mu: 1, Alpha: 2, C: 100}
	s, err := NewSolver(ft.Graph, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.orc.bind(comms)
	out := make([]graph.PathHandle, len(comms))
	w := s.orc.slotWeights()
	for i := range w {
		w[i] = float64(i%5) + 1
	}
	if err := s.orc.shortestPaths(comms, out, w); err != nil {
		t.Fatal(err) // warm-up: interns every path, sizes buffers
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := s.orc.shortestPaths(comms, out, w); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("oracle sweep allocates %.1f times per run after warm-up, want 0", allocs)
	}
}

// TestWarmSolveZeroAllocsPerIteration pins the support bookkeeping of the
// sparse Frank–Wolfe iteration (support lists, path-edge union, weight
// value set, line-search support) at zero allocations per iteration: on a
// warm Solver, a solve that runs many more iterations than another over
// the same commodities allocates exactly as often — only the per-solve
// result, binding and emitted decomposition allocate.
func TestWarmSolveZeroAllocsPerIteration(t *testing.T) {
	ft, err := topology.FatTree(8, 100)
	if err != nil {
		t.Fatal(err)
	}
	comms := make([]Commodity, 8)
	for i := range comms {
		comms[i] = Commodity{
			ID:     0,
			Src:    ft.Hosts[(i*7)%len(ft.Hosts)],
			Dst:    ft.Hosts[(i*7+64)%len(ft.Hosts)],
			Demand: 1 + float64(i%3),
		}
	}
	m := power.Model{Mu: 1, Alpha: 2, C: 100}
	measure := func(maxIters int) (allocs float64, iters int) {
		s, err := NewSolver(ft.Graph, m, Options{MaxIters: maxIters, Tol: 1e-12})
		if err != nil {
			t.Fatal(err)
		}
		var res *Result
		solve := func() {
			if res, err = s.Solve(comms); err != nil {
				t.Fatal(err)
			}
		}
		solve() // warm-up: interns every path, sizes every buffer
		allocs = testing.AllocsPerRun(5, solve)
		return allocs, res.Iters
	}
	shortA, shortIters := measure(60)
	longA, longIters := measure(240)
	t.Logf("%d iterations: %.0f allocs; %d iterations: %.0f allocs", shortIters, shortA, longIters, longA)
	if longIters <= shortIters {
		t.Fatalf("long solve ran %d iterations, short %d: the pin needs the long one to iterate more", longIters, shortIters)
	}
	if longA != shortA {
		t.Fatalf("%d extra iterations added %.0f allocations, want 0", longIters-shortIters, longA-shortA)
	}
}
