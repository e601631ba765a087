package main

import (
	"fmt"
	"time"

	"github.com/wasp-stream/wasp/internal/adapt"
	"github.com/wasp-stream/wasp/internal/chaos"
	"github.com/wasp-stream/wasp/internal/ctrlplane"
	"github.com/wasp-stream/wasp/internal/experiment"
	"github.com/wasp-stream/wasp/internal/faults"
	"github.com/wasp-stream/wasp/internal/physical"
	"github.com/wasp-stream/wasp/internal/plan"
	"github.com/wasp-stream/wasp/internal/queries"
	"github.com/wasp-stream/wasp/internal/topology"
	"github.com/wasp-stream/wasp/internal/trace"
)

// A cell is one experiment.Scenario of a workload. The topology is built
// by a separate function so the benchmark can time its generation as the
// topology layer; the scenario is then built on it.
type cell struct {
	name     string
	topology func() (*topology.Topology, error)
	scenario func(top *topology.Topology) experiment.Scenario
	// settles is false when the cell's inputs keep changing until the run
	// ends, so an adaptation launched by one of the last monitoring rounds
	// may still be in flight: the invariants of a settled run end do not
	// apply to it.
	settles bool
}

// A workload is a closed batch of cells run back to back on one goroutine.
type workload struct {
	name  string
	cells func(seed int64) []cell
}

// figureSeed is the seed the repository's figures and sweeps are drawn
// with (golden/all_seed1.txt). testbed-dynamics and planet-scale run on
// exactly those inputs whatever the workload seed: their simulation cost
// moves with every seed-dependent input (the testbed sample, the live
// traces, the scale topology), by more than any bound could absorb.
const figureSeed = 1

// ctrlChaosSeeds is how many consecutive chaos seeds one ctrl-chaos pass
// runs; enough that the seed-to-seed spread of their cost averages out.
const ctrlChaosSeeds = 48

var workloads = []workload{
	// Top-K on the §8.2 16-site testbed: fig10's step traces under four
	// policies, then fig11's live per-link and per-source traces with the
	// resource revocation under three. The engine tick dominates here.
	{"testbed-dynamics", func(int64) []cell { return testbedCells(figureSeed) }},
	// GenerateScale topologies at 256 and 1000 sites under WASP: set-up
	// (topology generation and deploy planning) dominates here.
	{"planet-scale", func(int64) []cell { return planetCells(figureSeed) }},
	// Consecutive chaos seeds over an impaired control plane with 30 s
	// checkpoints: the only workload that loads ctrlplane and recovery.
	// Workload seed n runs chaos seeds [n·ctrlChaosSeeds, (n+1)·ctrlChaosSeeds).
	{"ctrl-chaos", func(seed int64) []cell { return ctrlChaosCells(seed * ctrlChaosSeeds) }},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

func testbed(seed int64) func() (*topology.Topology, error) {
	return func() (*topology.Topology, error) {
		return topology.Generate(topology.DefaultGenConfig(seed)), nil
	}
}

func testbedCells(seed int64) []cell {
	var cells []cell
	const fig10 = 1500 * time.Second
	for _, policy := range []adapt.Policy{adapt.PolicyNone, adapt.PolicyReassign, adapt.PolicyScale, adapt.PolicyReplan} {
		name := fmt.Sprintf("fig10-%s", policy)
		cells = append(cells, cell{name, testbed(seed), func(top *topology.Topology) experiment.Scenario {
			return experiment.Scenario{
				Name:      name,
				Seed:      seed,
				Duration:  fig10,
				Topology:  top,
				Query:     queries.TopKTopics,
				Engine:    experiment.EngineConfig(policy),
				Adapt:     experiment.AdaptConfig(policy),
				Workload:  trace.Steps(fig10/5, 1, 2, 2, 1, 1),
				Bandwidth: trace.Steps(fig10/5, 1, 1, 0.5, 0.5, 1),
			}
		}, true})
	}
	const fig11 = 1800 * time.Second
	for _, policy := range []adapt.Policy{adapt.PolicyNone, adapt.PolicyDegrade, adapt.PolicyWASP} {
		name := fmt.Sprintf("fig11-%s", policy)
		cells = append(cells, cell{name, testbed(seed), func(top *topology.Topology) experiment.Scenario {
			return experiment.Scenario{
				Name:              name,
				Seed:              seed,
				Duration:          fig11,
				Topology:          top,
				Query:             queries.TopKTopics,
				Engine:            experiment.EngineConfig(policy),
				Adapt:             experiment.AdaptConfig(policy),
				PerSourceWorkload: true,
				PerLinkBandwidth:  true,
				FailAt:            fig11 * 3 / 10,
				FailFor:           fig11 / 30,
			}
		}, false}) // live traces vary until the run ends
	}
	return cells
}

func planetCells(seed int64) []cell {
	const duration = 500 * time.Second
	var cells []cell
	for _, shape := range [][2]int{{16, 15}, {50, 19}} {
		regions, edges := shape[0], shape[1]
		name := fmt.Sprintf("scale-%dx%d", regions, edges)
		gen := func() (*topology.Topology, error) {
			return topology.GenerateScale(topology.DefaultScaleConfig(seed, regions, edges))
		}
		cells = append(cells, cell{name, gen, func(top *topology.Topology) experiment.Scenario {
			ingest, rate := experiment.IngestPlan(top)
			acfg := experiment.AdaptConfig(adapt.PolicyWASP)
			acfg.PMax = 4
			return experiment.Scenario{
				Name:              name,
				Seed:              seed,
				Duration:          duration,
				Topology:          top,
				SourceSites:       ingest,
				RateForSite:       func(s topology.SiteID) float64 { return rate[s] },
				Engine:            experiment.EngineConfig(adapt.PolicyWASP),
				Adapt:             acfg,
				MaxVariants:       12,
				ReplanMaxVariants: 12,
				Workload:          trace.Steps(duration/5, 1, 1, 1, 2, 2),
				FaultsFor: func(pp *physical.Plan, _ *topology.Topology) []faults.Fault {
					site, factor := slowTarget(pp)
					return []faults.Fault{{
						Kind: faults.SiteSlow, At: 2 * duration / 5, For: duration / 5,
						Site: site, Factor: factor,
					}}
				},
			}
		}, true})
	}
	return cells
}

// slowTarget picks the host of the busiest movable operator of the
// deployed plan and a capacity factor that leaves it half of that
// operator's expected input, so the slowdown forces adaptation whatever
// the ingest rate of the topology.
func slowTarget(pp *physical.Plan) (topology.SiteID, float64) {
	in, _, _, err := pp.Graph.ExpectedRates(1)
	if err != nil {
		return 0, 0.25
	}
	best := plan.OpID(-1)
	for _, id := range pp.Graph.OperatorIDs() {
		op := pp.Graph.Operator(id)
		if op.Kind == plan.KindSource || op.Kind == plan.KindSink || op.PinnedSite != plan.NoSite {
			continue
		}
		if best < 0 || in[id] > in[best] {
			best = id
		}
	}
	if best < 0 {
		return 0, 0.25
	}
	cost := pp.Graph.Operator(best).CostPerEvent
	if cost <= 0 {
		cost = 1
	}
	f := 0.5 * in[best] * cost / experiment.ExperimentSlotRate
	return pp.Stages[best].Sites[0], min(max(f, 0.001), 0.9)
}

// ctrlChaosCells runs chaos seeds [first, first+ctrlChaosSeeds), each on
// its own testbed sample as the ctrlchaos sweep does.
func ctrlChaosCells(first int64) []cell {
	const duration = 900 * time.Second
	var cells []cell
	for i := int64(0); i < ctrlChaosSeeds; i++ {
		s := first + i
		name := fmt.Sprintf("ctrlchaos-seed-%d", s)
		cells = append(cells, cell{name, testbed(s), func(top *topology.Topology) experiment.Scenario {
			return experiment.Scenario{
				Name:            name,
				Seed:            s,
				Duration:        duration,
				Topology:        top,
				Query:           queries.TopKTopics,
				Engine:          experiment.EngineConfig(adapt.PolicyWASP),
				Adapt:           experiment.AdaptConfig(adapt.PolicyWASP),
				CheckpointEvery: 30 * time.Second,
				Ctrl:            &ctrlplane.Config{},
				FaultsFor: func(_ *physical.Plan, top *topology.Topology) []faults.Fault {
					return chaos.Generate(s, chaos.Config{
						Sites:       top.N(),
						Duration:    duration,
						CtrlRegions: len(ctrlplane.Domains(top, ctrlplane.Config{})),
					})
				},
			}
		}, true})
	}
	return cells
}
