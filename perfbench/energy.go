package main

import (
	"fmt"
	"math"

	"dcnflow/internal/flow"
	"dcnflow/internal/graph"
	"dcnflow/internal/power"
)

// isolatedBound is a lower bound on the energy of any single-path schedule
// of flows under a model without idle power. Alone on a link, a flow costs
// at least μ·D^α·span there: sending at its density D across its span is
// the cheapest way to move its size under a convex f (Jensen). f = μx^α is
// superadditive, so sharing a link only adds energy, and every flow crosses
// at least the links of a min-hop path. Dividing a schedule's energy by it
// gives a quality ratio that, unlike the energy itself, hardly depends on
// how large the seed's flows happen to be.
func isolatedBound(c *graph.Compiled, flows *flow.Set, m power.Model) (float64, error) {
	if m.Sigma != 0 {
		return 0, fmt.Errorf("isolated-flow bound needs a model without idle power, got sigma %v", m.Sigma)
	}
	bound := 0.0
	for _, f := range flows.Flows() {
		p, err := c.ShortestPath(f.Src, f.Dst)
		if err != nil {
			return 0, err
		}
		bound += float64(p.Len()) * m.Mu * math.Pow(f.Density(), m.Alpha) * f.Span()
	}
	return bound, nil
}

// energyRatio divides a simulated energy by the flows' isolated-flow bound
// and records a failed check when the energy undercuts it.
func energyRatio(what string, energy float64, c *graph.Compiled, flows *flow.Set, m power.Model, out *outcome) (float64, error) {
	bound, err := isolatedBound(c, flows, m)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", what, err)
	}
	if energy < bound*(1-1e-9) {
		out.fail("%s: energy %v below the isolated-flow bound %v", what, energy, bound)
	}
	return energy / bound, nil
}
