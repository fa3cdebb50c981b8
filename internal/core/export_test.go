package core

import (
	"testing"

	"vpm/internal/netsim"
	"vpm/internal/packet"
)

// Scenario is buildScenario's Figure 1 world, exported to the external
// tests (adversary_test.go).
type Scenario struct {
	Path  *netsim.Path
	Dep   *Deployment
	Key   packet.PathKey
	Truth *netsim.Result
}

// BuildScenario builds a 400 ms Figure 1 run with lossX loss inside X,
// and X congested when congestX is set.
func BuildScenario(t testing.TB, lossX float64, congestX bool) *Scenario {
	sc := buildScenario(t, scenarioOpt{lossX: lossX, congestX: congestX, durNS: int64(400e6)})
	return &Scenario{Path: sc.path, Dep: sc.dep, Key: sc.key, Truth: sc.truth}
}
