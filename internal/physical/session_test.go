package physical

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"github.com/wasp-stream/wasp/internal/placement"
	"github.com/wasp-stream/wasp/internal/plan"
	"github.com/wasp-stream/wasp/internal/queries"
	"github.com/wasp-stream/wasp/internal/topology"
)

// oracleCandidate is one variant planned the independent way: a fresh
// expansion, a full Schedule and EstimateCost.
type oracleCandidate struct {
	tree              string
	plan              *Plan
	delay, wan, total float64
}

// oraclePlan plans every variant of the search space without a Session:
// no shared prefix, no reused plans or scratch.
func oraclePlan(t *testing.T, base *plan.Graph, spec *plan.CombineSpec, top *topology.Topology, cfg PlannerConfig, admit func(*plan.Variant) bool) []oracleCandidate {
	t.Helper()
	wanWeight := cfg.WANWeight
	if wanWeight == 0 {
		wanWeight = DefaultWANWeight
	}
	var out []oracleCandidate
	for _, tree := range plan.EnumerateTrees(len(spec.Inputs), cfg.MaxVariants) {
		v, err := spec.Expand(base, tree)
		if err != nil {
			t.Fatal(err)
		}
		if admit != nil && !admit(v) {
			continue
		}
		p, err := FromLogical(v.Graph)
		if err != nil {
			t.Fatal(err)
		}
		if err := Schedule(p, top, cfg.ScheduleConfig); err != nil {
			if errors.Is(err, placement.ErrInfeasible) {
				continue
			}
			t.Fatal(err)
		}
		delay, wan, err := EstimateCost(p, top, cfg.RateFactor)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, oracleCandidate{tree: tree.String(), plan: p, delay: delay, wan: wan, total: delay + wanWeight*wan})
	}
	slices.SortStableFunc(out, func(a, b oracleCandidate) int { return cmp.Compare(a.total, b.total) })
	return out
}

// scaledBandwidth returns a Bandwidth function scaling every base link
// capacity by f.
func scaledBandwidth(top *topology.Topology, f float64) func(from, to topology.SiteID) float64 {
	return func(from, to topology.SiteID) float64 { return f * top.BaseBandwidth(from, to).BytesPerSec() }
}

// TestSessionPlanMatchesIndependentSchedule checks that a Session round,
// which places the variant-independent stage prefix once and copies it,
// finds exactly what scheduling each variant on its own finds: the same
// candidates in the same order, the same costs, and the same sites for
// every stage. Each query's cases run in sequence on one Session, so the
// plans and scratch a round reuses from the last one are covered too.
func TestSessionPlanMatchesIndependentSchedule(t *testing.T) {
	type tcase struct {
		name  string
		cfg   PlannerConfig
		admit string // tree whose stateful combine sets candidates must keep; "" admits all
		// prefixInfeasible marks a case whose shared prefix cannot be
		// placed at all.
		prefixInfeasible bool
	}
	type fixture struct {
		name  string
		top   *topology.Topology
		query *queries.Query
		cases func(q *queries.Query, top *topology.Topology) []tcase
	}

	testbed := func(seed int64) *topology.Topology { return topology.Generate(topology.DefaultGenConfig(seed)) }
	scale := func(seed int64) *topology.Topology {
		top, err := topology.GenerateScale(topology.DefaultScaleConfig(seed, 4, 5))
		if err != nil {
			t.Fatal(err)
		}
		return top
	}
	queryOn := func(top *topology.Topology, build func(queries.Config) *queries.Query, sources int) *queries.Query {
		edges := top.SitesOfKind(topology.Edge)
		dcs := top.SitesOfKind(topology.DataCenter)
		return build(queries.Config{SourceSites: edges[:sources], SinkSite: dcs[0]})
	}
	// Every query's base graph is source → chain per input; the chains
	// are the combine inputs.
	chains := func(q *queries.Query) []plan.OpID { return q.Spec.Inputs }

	standard := func(q *queries.Query, top *topology.Topology) []tcase {
		ch := chains(q)
		firstCombine := q.Graph.Len() // Expand numbers combine nodes after the base
		return []tcase{
			{name: "base", cfg: PlannerConfig{}},
			{name: "max-variants-7", cfg: PlannerConfig{MaxVariants: 7}},
			{name: "rate-x2", cfg: PlannerConfig{ScheduleConfig: ScheduleConfig{RateFactor: 2}}},
			{name: "admissible", cfg: PlannerConfig{}, admit: "first"},
			{name: "parallelism", cfg: PlannerConfig{ScheduleConfig: ScheduleConfig{
				DefaultParallelism: 2,
				Parallelism:        map[plan.OpID]int{ch[0]: 3, ch[1]: 1, plan.OpID(firstCombine): 4},
			}}},
			{name: "conservative", cfg: PlannerConfig{ScheduleConfig: ScheduleConfig{Conservative: true, Alpha: 0.5}}},
			// Every prefix chain wants more slots than any edge site has.
			{name: "prefix-infeasible", cfg: PlannerConfig{ScheduleConfig: ScheduleConfig{
				Parallelism: map[plan.OpID]int{ch[0]: 10000},
			}}, prefixInfeasible: true},
			{name: "after-infeasible", cfg: PlannerConfig{}},
		}
	}
	// Shrinking bandwidth turns variants infeasible one by one, so that
	// rounds rank different subsets.
	withBandwidths := func(cases func(*queries.Query, *topology.Topology) []tcase) func(*queries.Query, *topology.Topology) []tcase {
		return func(q *queries.Query, top *topology.Topology) []tcase {
			out := cases(q, top)
			for _, f := range []float64{0.5, 0.3, 0.2, 0.1, 0.05, 0.03, 0.02, 0.01} {
				out = append(out, tcase{
					name: fmt.Sprintf("bandwidth-x%v", f),
					cfg:  PlannerConfig{ScheduleConfig: ScheduleConfig{Bandwidth: scaledBandwidth(top, f)}},
				})
			}
			return out
		}
	}

	var fixtures []fixture
	for _, seed := range []int64{1, 2} {
		top := testbed(seed)
		fixtures = append(fixtures,
			fixture{name: fmt.Sprintf("testbed%d/topk", seed), top: top, query: queryOn(top, queries.TopKTopics, 4), cases: withBandwidths(standard)},
			fixture{name: fmt.Sprintf("testbed%d/ysb", seed), top: top, query: queryOn(top, queries.YSBCampaign, 5), cases: withBandwidths(standard)},
		)
	}
	for _, seed := range []int64{3, 4} {
		top := scale(seed)
		fixtures = append(fixtures,
			fixture{name: fmt.Sprintf("scale%d/eoi", seed), top: top, query: queryOn(top, queries.EventsOfInterest, 5), cases: withBandwidths(standard)},
			fixture{name: fmt.Sprintf("scale%d/topk", seed), top: top, query: queryOn(top, queries.TopKTopics, 4), cases: withBandwidths(standard)},
		)
	}

	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) {
			q, top := fx.query, fx.top
			sessions := map[int]*Session{}
			for _, tc := range fx.cases(q, top) {
				maxV := tc.cfg.MaxVariants
				if maxV == 0 {
					maxV = DefaultMaxVariants
				}
				tc.cfg.MaxVariants = maxV
				s := sessions[maxV]
				if s == nil {
					var err error
					if s, err = NewSession(q.Graph, q.Spec, maxV); err != nil {
						t.Fatal(err)
					}
					if len(s.prefix) == 0 {
						t.Fatal("session found no shared stage prefix")
					}
					sessions[maxV] = s
				}
				var admit func(*plan.Variant) bool
				if tc.admit != "" {
					cur, err := q.Spec.Expand(q.Graph, plan.EnumerateTrees(len(q.Spec.Inputs), 1)[0])
					if err != nil {
						t.Fatal(err)
					}
					admit = func(v *plan.Variant) bool { return v.AdmissibleFrom(cur) }
				}

				want := oraclePlan(t, q.Graph, q.Spec, top, tc.cfg, admit)
				_, got, err := s.Plan(top, tc.cfg, admit)
				if len(want) == 0 {
					if !errors.Is(err, ErrNoCandidate) {
						t.Fatalf("%s: oracle has no candidate, session err = %v", tc.name, err)
					}
					if tc.prefixInfeasible && !errors.Is(s.prefixErr, placement.ErrInfeasible) {
						t.Fatalf("%s: prefix error = %v, want infeasible", tc.name, s.prefixErr)
					}
					continue
				}
				if tc.prefixInfeasible {
					t.Fatalf("%s: oracle found %d candidates, want none", tc.name, len(want))
				}
				if err != nil {
					t.Fatalf("%s: %v", tc.name, err)
				}
				if len(got) != len(want) {
					t.Fatalf("%s: %d candidates, oracle %d", tc.name, len(got), len(want))
				}
				for i, w := range want {
					g := got[i]
					if g.Variant.Tree.String() != w.tree || g.Cost != w.total || g.DelayVolume != w.delay || g.WANBytesPerSec != w.wan {
						t.Fatalf("%s: candidate %d = %v cost %v (delay %v, wan %v), oracle %s cost %v (delay %v, wan %v)",
							tc.name, i, g.Variant.Tree, g.Cost, g.DelayVolume, g.WANBytesPerSec, w.tree, w.total, w.delay, w.wan)
					}
					for _, id := range w.plan.Graph.OperatorIDs() {
						if gs, ws := g.Plan.Stages[id].Sites, w.plan.Stages[id].Sites; !slices.Equal(gs, ws) {
							t.Fatalf("%s: candidate %s stage %d sites %v, oracle %v", tc.name, w.tree, id, gs, ws)
						}
					}
				}
			}
		})
	}
}

// TestSessionPrefixIsBaseChains pins what the shared prefix is for the
// evaluation queries: every source and its chain, and nothing downstream
// of the combine group.
func TestSessionPrefixIsBaseChains(t *testing.T) {
	top := topology.Generate(topology.DefaultGenConfig(1))
	q := queries.TopKTopics(queries.Config{SourceSites: top.SitesOfKind(topology.Edge), SinkSite: top.SitesOfKind(topology.DataCenter)[0]})
	s, err := NewSession(q.Graph, q.Spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := append(slices.Clone(q.SourceOps), q.Spec.Inputs...)
	slices.Sort(want)
	got := slices.Clone(s.prefix)
	slices.Sort(got)
	if !slices.Equal(got, want) {
		var names []string
		for _, id := range s.prefix {
			names = append(names, q.Graph.Operator(id).Name)
		}
		t.Fatalf("prefix = %v (%s), want sources and chains %v", s.prefix, strings.Join(names, ","), want)
	}
}
