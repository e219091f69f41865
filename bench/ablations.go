package bench

import (
	"fmt"
	"runtime"

	"github.com/cds-suite/cds/cmap"
	"github.com/cds-suite/cds/counter"
	"github.com/cds-suite/cds/stack"
)

// Ablations isolate the design parameters the experiment figures take as
// given: how wide should an elimination array be, how many stripes does a
// striped map need, how many shards a sharded counter. Each runs at full
// GOMAXPROCS and sweeps the parameter on the X axis.
func Ablations() []Experiment {
	th := runtime.GOMAXPROCS(0)
	// elimination drives one elimination stack on the 50/50 push-pop mix
	// and reports its throughput and hit rate from the same run.
	elimination := func(mk func(x int) *stack.Elimination[int]) []ScenarioAlgo {
		return []ScenarioAlgo{{Label: "Elimination", Run: func(cfg Config, x int) Result {
			s := mk(x)
			s.EnableStats(true)
			res := Run(th, cfg.ops(300000)/th+1, stackMixOp(s))
			res.Metrics = []Metric{{Label: "Mops", Value: res.Throughput(), Unit: UnitMops}, hitRate(s)}
			return res
		}}}
	}
	return []Experiment{
		{ID: "A1", Title: "Ablation: elimination array width (X = width)", XLabel: "width", Scenarios: []Scenario{{
			Family: "stack", Name: fmt.Sprintf("A1: elimination width sweep at %d threads, 50/50 push-pop", th),
			Xs: []int{1, 2, 4, 8, 16, 32},
			Algos: elimination(func(width int) *stack.Elimination[int] {
				s := stack.NewElimination[int](width, 128)
				s.PinWidth(width) // sweep true fixed widths, not adaptive caps
				return s
			})}}},
		{ID: "A2", Title: "Ablation: elimination spin budget (X = spins)", XLabel: "spins", Scenarios: []Scenario{{
			Family: "stack", Name: fmt.Sprintf("A2: elimination spin sweep at %d threads, width 8", th),
			Xs: []int{16, 64, 256, 1024, 4096},
			Algos: elimination(func(spins int) *stack.Elimination[int] {
				s := stack.NewElimination[int](8, spins)
				s.PinWidth(8) // hold width fixed while the spin budget sweeps
				return s
			})}}},
		// A3 runs a write-heavy uniform mix: stripe contention is what the
		// parameter buys down.
		{ID: "A3", Title: "Ablation: striped map stripe count (X = stripes)", XLabel: "stripes", Scenarios: []Scenario{{
			Family: "cmap", Name: fmt.Sprintf("A3: striped map stripes sweep at %d threads, 50%% reads", th),
			Xs: []int{1, 4, 16, 64, 256},
			Algos: []ScenarioAlgo{{Label: "Striped", Run: func(cfg Config, stripes int) Result {
				const keyRange = 1 << 16
				m := cmap.NewStriped[int, int](stripes)
				prefillMap(m, keyRange)
				return Run(th, cfg.ops(200000)/th+1, mapMixOp(m, keyRange, 0, 50))
			}}}}}},
		{ID: "A4", Title: "Ablation: sharded counter shard count (X = shards)", XLabel: "shards", Scenarios: []Scenario{{
			Family: "counter", Name: fmt.Sprintf("A4: sharded counter shards sweep at %d threads, inc-only", th),
			Xs: []int{1, 2, 4, 8, 16, 32, 64, 128},
			Algos: []ScenarioAlgo{{Label: "Sharded", Run: func(cfg Config, shards int) Result {
				c := counter.NewSharded(shards)
				return Run(th, cfg.ops(500000)/th+1, func(int) func(int) {
					h := c.Handle()
					return func(int) { h.Inc() }
				})
			}}}}}},
		ablationA5(th),
	}
}
