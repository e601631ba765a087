// Package plan models logical query plans for WASP: directed acyclic
// graphs of stream operators, plus the logical optimizations the paper's
// Query Planner applies — environment-independent rewrites such as filter
// push-down (§2.1) and the enumeration of alternative aggregation/join
// orders used by query re-planning (§4.3).
package plan

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"github.com/wasp-stream/wasp/internal/topology"
)

// OpID identifies an operator within a Graph.
type OpID int

// NoSite marks an operator as not pinned to any particular site.
const NoSite topology.SiteID = -1

// Kind enumerates the stream operator kinds the engine supports.
type Kind int

// Operator kinds.
const (
	KindSource Kind = iota + 1
	KindFilter
	KindMap
	KindFlatMap
	KindProject
	KindUnion
	KindWindow
	KindAggregate
	KindJoin
	KindTopK
	KindSink
)

var kindNames = map[Kind]string{
	KindSource:    "source",
	KindFilter:    "filter",
	KindMap:       "map",
	KindFlatMap:   "flatmap",
	KindProject:   "project",
	KindUnion:     "union",
	KindWindow:    "window",
	KindAggregate: "aggregate",
	KindJoin:      "join",
	KindTopK:      "topk",
	KindSink:      "sink",
}

// String returns the lower-case kind name.
func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Operator is a logical stream operator. The performance-model fields
// (Selectivity, OutEventBytes, CostPerEvent, StateBytes) drive both the
// flow-mode emulation and the planner's cost estimates.
type Operator struct {
	ID   OpID
	Name string
	Kind Kind

	// Stateful marks operators that maintain processing state which must
	// be preserved across adaptations (§4.3, §5).
	Stateful bool
	// Splittable reports whether the operator can run at parallelism > 1
	// without changing the query plan. Counters and sinks are not
	// splittable without adding a combiner (§6.2).
	Splittable bool
	// CommutesWithFilter marks stateless element-wise operators that a
	// downstream filter can be pushed above (e.g. a map that preserves
	// the filtered attributes).
	CommutesWithFilter bool

	// Selectivity σ is output events per input event (§3.2).
	Selectivity float64
	// OutEventBytes is the average serialized size of an output event.
	OutEventBytes float64
	// CostPerEvent is the relative compute cost to process one input
	// event (1.0 = one unit of slot throughput).
	CostPerEvent float64
	// StateBytes is the steady-state total state size of the operator
	// (summed across its tasks).
	StateBytes float64

	// Window is the window length for KindWindow/KindAggregate/KindTopK
	// operators with tumbling-window semantics; zero means no windowing.
	Window time.Duration

	// PinnedSite fixes the operator at one site. Only sources and sinks
	// may be pinned: sources run where their data is generated, and sinks
	// run where results are consumed (by default site 0, the Job Manager
	// site). Intermediate operators are always scheduler-placed; their
	// PinnedSite is forced to NoSite by AddOperator.
	PinnedSite topology.SiteID
	// SourceRate is the base event rate (events/s) for KindSource.
	SourceRate float64
}

// Graph is a logical plan: a DAG of operators. The zero value is empty and
// ready to use via AddOperator/Connect.
//
// Operator IDs are assigned densely from 0, so the graph is stored in
// slices indexed by OpID. A removed operator leaves a nil hole; IDs are
// never reused.
type Graph struct {
	ops    []*Operator
	down   [][]OpID
	up     [][]OpID
	live   int // non-nil entries of ops
	nextID OpID

	// Structure-derived caches, invalidated by every structural mutation
	// (AddOperator/Connect/RemoveEdge/RemoveOperator). The planner asks
	// for the topological order many times per plan evaluation — per
	// Validate, per Schedule, per cost estimate — on graphs that never
	// change between those calls. Cached slices are returned directly;
	// callers must treat them as read-only.
	topoValid bool
	topoCache []OpID
	topoErr   error
	idsValid  bool
	idsCache  []OpID
}

// mutated drops the structure-derived caches.
func (g *Graph) mutated() {
	g.topoValid = false
	g.idsValid = false
}

// NewGraph returns an empty logical plan.
func NewGraph() *Graph { return &Graph{} }

// AddOperator inserts op into the graph, assigning and returning its ID.
// The operator struct is copied; the caller's value is not retained.
func (g *Graph) AddOperator(op Operator) OpID {
	id := g.nextID
	g.nextID++
	op.ID = id
	if op.Kind != KindSource && op.Kind != KindSink {
		op.PinnedSite = NoSite
	}
	g.ops = append(g.ops, &op)
	g.down = append(g.down, nil)
	g.up = append(g.up, nil)
	g.live++
	g.mutated()
	return id
}

// has reports whether id names a live operator.
func (g *Graph) has(id OpID) bool { return id >= 0 && int(id) < len(g.ops) && g.ops[id] != nil }

// Operator returns the operator with the given ID, or nil.
func (g *Graph) Operator(id OpID) *Operator {
	if id < 0 || int(id) >= len(g.ops) {
		return nil
	}
	return g.ops[id]
}

// Connect adds a dataflow edge from→to. Duplicate edges are rejected.
func (g *Graph) Connect(from, to OpID) error {
	if !g.has(from) || !g.has(to) {
		return fmt.Errorf("plan: connect %d->%d: unknown operator", from, to)
	}
	if slices.Contains(g.down[from], to) {
		return fmt.Errorf("plan: duplicate edge %d->%d", from, to)
	}
	g.down[from] = append(g.down[from], to)
	g.up[to] = append(g.up[to], from)
	g.mutated()
	return nil
}

// MustConnect is Connect that panics on error, for plan construction code
// where the topology is static.
func (g *Graph) MustConnect(from, to OpID) {
	if err := g.Connect(from, to); err != nil {
		panic(err)
	}
}

// Downstream returns the IDs of the operators consuming op's output.
//
//waspvet:ordered edge-insertion order; plan construction is deterministic
func (g *Graph) Downstream(id OpID) []OpID { return append([]OpID(nil), g.DownstreamView(id)...) }

// Upstream returns the IDs of the operators feeding op.
//
//waspvet:ordered edge-insertion order; plan construction is deterministic
func (g *Graph) Upstream(id OpID) []OpID { return append([]OpID(nil), g.UpstreamView(id)...) }

// DownstreamView is Downstream without the defensive copy. The returned
// slice aliases graph internals: read-only, valid until the next mutation.
//
//waspvet:ordered edge-insertion order; plan construction is deterministic
func (g *Graph) DownstreamView(id OpID) []OpID {
	if id < 0 || int(id) >= len(g.down) {
		return nil
	}
	return g.down[id]
}

// UpstreamView is Upstream without the defensive copy. The returned slice
// aliases graph internals: read-only, valid until the next mutation.
//
//waspvet:ordered edge-insertion order; plan construction is deterministic
func (g *Graph) UpstreamView(id OpID) []OpID {
	if id < 0 || int(id) >= len(g.up) {
		return nil
	}
	return g.up[id]
}

// Len returns the number of operators.
func (g *Graph) Len() int { return g.live }

// OperatorIDs returns all operator IDs in ascending order. The returned
// slice is cached; callers must not modify it.
//
//waspvet:ordered ascending operator ID
func (g *Graph) OperatorIDs() []OpID {
	if !g.idsValid {
		ids := make([]OpID, 0, g.live)
		for id, op := range g.ops {
			if op != nil {
				ids = append(ids, OpID(id))
			}
		}
		g.idsCache = ids
		g.idsValid = true
	}
	return g.idsCache
}

// Sources returns the IDs of all KindSource operators, ascending.
//
//waspvet:ordered ascending operator ID
func (g *Graph) Sources() []OpID { return g.byKind(KindSource) }

// Sinks returns the IDs of all KindSink operators, ascending.
//
//waspvet:ordered ascending operator ID
func (g *Graph) Sinks() []OpID { return g.byKind(KindSink) }

func (g *Graph) byKind(k Kind) []OpID {
	var out []OpID
	for _, id := range g.OperatorIDs() {
		if g.ops[id].Kind == k {
			out = append(out, id)
		}
	}
	return out
}

// TopoOrder returns the operators in a deterministic topological order
// (ties broken by ascending ID). It returns an error if the graph has a
// cycle. The returned slice is cached; callers must not modify it.
func (g *Graph) TopoOrder() ([]OpID, error) {
	if !g.topoValid {
		g.topoCache, g.topoErr = g.computeTopo()
		g.topoValid = true
	}
	return g.topoCache, g.topoErr
}

// computeTopo is Kahn's algorithm that always emits the smallest ready ID
// next. The ready list is kept sorted in descending order, so the next ID
// pops off its end.
func (g *Graph) computeTopo() ([]OpID, error) {
	indeg := make([]int, len(g.ops))
	var ready []OpID
	for id := len(g.ops) - 1; id >= 0; id-- {
		if g.ops[id] == nil {
			continue
		}
		indeg[id] = len(g.up[id])
		if indeg[id] == 0 {
			ready = append(ready, OpID(id))
		}
	}

	order := make([]OpID, 0, g.live)
	for len(ready) > 0 {
		id := ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		order = append(order, id)
		for _, d := range g.down[id] {
			indeg[d]--
			if indeg[d] == 0 {
				i, _ := slices.BinarySearchFunc(ready, d, func(x, t OpID) int { return cmp.Compare(t, x) })
				ready = slices.Insert(ready, i, d)
			}
		}
	}
	if len(order) != g.live {
		return nil, fmt.Errorf("plan: graph has a cycle (%d of %d ordered)", len(order), g.live)
	}
	return order, nil
}

// Validate checks structural invariants: acyclic; sources have no inputs
// and at least one output; sinks have no outputs and at least one input;
// every other operator has at least one input and one output; sources are
// pinned to a site; selectivities and sizes are non-negative.
func (g *Graph) Validate() error {
	if g.live == 0 {
		return fmt.Errorf("plan: empty graph")
	}
	if _, err := g.TopoOrder(); err != nil {
		return err
	}
	for _, id := range g.OperatorIDs() {
		op := g.ops[id]
		nUp, nDown := len(g.up[id]), len(g.down[id])
		switch op.Kind {
		case KindSource:
			if nUp != 0 {
				return fmt.Errorf("plan: source %q has inputs", op.Name)
			}
			if nDown == 0 {
				return fmt.Errorf("plan: source %q has no outputs", op.Name)
			}
			if op.PinnedSite == NoSite {
				return fmt.Errorf("plan: source %q not pinned to a site", op.Name)
			}
			if op.SourceRate < 0 {
				return fmt.Errorf("plan: source %q has negative rate", op.Name)
			}
		case KindSink:
			if nDown != 0 {
				return fmt.Errorf("plan: sink %q has outputs", op.Name)
			}
			if nUp == 0 {
				return fmt.Errorf("plan: sink %q has no inputs", op.Name)
			}
		default:
			if nUp == 0 || nDown == 0 {
				return fmt.Errorf("plan: operator %q (%v) is dangling", op.Name, op.Kind)
			}
		}
		if op.Selectivity < 0 || op.OutEventBytes < 0 || op.CostPerEvent < 0 || op.StateBytes < 0 {
			return fmt.Errorf("plan: operator %q has negative model parameters", op.Name)
		}
	}
	return nil
}

// Clone returns a deep copy of the graph. Operator IDs are preserved.
// The copied operators share one block, and so do the copied edge lists;
// each edge list is capped at its length, so a later Connect reallocates
// it rather than writing into its neighbour's.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		ops:    make([]*Operator, len(g.ops)),
		down:   make([][]OpID, len(g.down)),
		up:     make([][]OpID, len(g.up)),
		live:   g.live,
		nextID: g.nextID,
	}
	edges := 0
	for id, op := range g.ops {
		if op != nil {
			edges += len(g.down[id]) + len(g.up[id])
		}
	}
	opBuf := make([]Operator, 0, g.live)
	edgeBuf := make([]OpID, 0, edges)
	for id, op := range g.ops {
		if op == nil {
			continue
		}
		opBuf = append(opBuf, *op)
		c.ops[id] = &opBuf[len(opBuf)-1]
		c.down[id], edgeBuf = cloneEdges(edgeBuf, g.down[id])
		c.up[id], edgeBuf = cloneEdges(edgeBuf, g.up[id])
	}
	return c
}

// cloneEdges appends ids to buf and returns the copy, capped at its
// length, and the grown buf. An empty list copies to nil.
func cloneEdges(buf, ids []OpID) (cp, rest []OpID) {
	if len(ids) == 0 {
		return nil, buf
	}
	n := len(buf)
	buf = append(buf, ids...)
	return buf[n:len(buf):len(buf)], buf
}

// RemoveEdge deletes the from→to edge if present.
func (g *Graph) RemoveEdge(from, to OpID) {
	if g.has(from) && g.has(to) {
		g.down[from] = removeID(g.down[from], to)
		g.up[to] = removeID(g.up[to], from)
	}
	g.mutated()
}

// RemoveOperator deletes an operator and all its edges, leaving a hole at
// its ID.
func (g *Graph) RemoveOperator(id OpID) {
	if !g.has(id) {
		return
	}
	for _, d := range g.down[id] {
		g.up[d] = removeID(g.up[d], id)
	}
	for _, u := range g.up[id] {
		g.down[u] = removeID(g.down[u], id)
	}
	g.ops[id], g.down[id], g.up[id] = nil, nil, nil
	g.live--
	g.mutated()
}

func removeID(ids []OpID, id OpID) []OpID {
	out := ids[:0]
	for _, x := range ids {
		if x != id {
			out = append(out, x)
		}
	}
	return out
}

// StatefulOperators returns the IDs of all stateful operators, ascending.
func (g *Graph) StatefulOperators() []OpID {
	var out []OpID
	for _, id := range g.OperatorIDs() {
		if g.ops[id].Stateful {
			out = append(out, id)
		}
	}
	return out
}

// ExpectedRates computes the steady-state expected input/output event rate
// and output byte rate of every operator from the source rates and
// per-operator selectivities — the λ̂ model of §3.3 applied to the logical
// plan. rateFactor scales all source rates (workload dynamics).
func (g *Graph) ExpectedRates(rateFactor float64) (inRate, outRate, outBytes map[OpID]float64, err error) {
	order, err := g.TopoOrder()
	if err != nil {
		return nil, nil, nil, err
	}
	inRate = make(map[OpID]float64, len(order))
	outRate = make(map[OpID]float64, len(order))
	outBytes = make(map[OpID]float64, len(order))
	for _, id := range order {
		op := g.ops[id]
		var in float64
		if op.Kind == KindSource {
			in = op.SourceRate * rateFactor
		} else {
			for _, u := range g.up[id] {
				in += outRate[u]
			}
		}
		inRate[id] = in
		sigma := op.Selectivity
		if op.Kind == KindSource {
			sigma = 1
		}
		outRate[id] = in * sigma
		outBytes[id] = outRate[id] * op.OutEventBytes
	}
	return inRate, outRate, outBytes, nil
}

// RateBuf holds reusable output buffers for ExpectedRatesBuf. The slices
// are indexed by OpID (the graph's ID space is dense, so IDs of removed
// operators simply leave zero entries).
type RateBuf struct {
	In, Out, Bytes []float64
}

// ExpectedRatesBuf is ExpectedRates computing into caller-owned buffers,
// resized and zeroed as needed — the planner evaluates ~10^2 variants per
// re-planning round and the per-variant rate maps dominated its allocation
// profile. The accumulation order matches ExpectedRates exactly, so the
// computed values are bit-identical.
func (g *Graph) ExpectedRatesBuf(rateFactor float64, buf *RateBuf) error {
	order, err := g.TopoOrder()
	if err != nil {
		return err
	}
	n := int(g.nextID)
	buf.In = growZero(buf.In, n)
	buf.Out = growZero(buf.Out, n)
	buf.Bytes = growZero(buf.Bytes, n)
	for _, id := range order {
		op := g.ops[id]
		var in float64
		if op.Kind == KindSource {
			in = op.SourceRate * rateFactor
		} else {
			for _, u := range g.up[id] {
				in += buf.Out[u]
			}
		}
		buf.In[id] = in
		sigma := op.Selectivity
		if op.Kind == KindSource {
			sigma = 1
		}
		buf.Out[id] = in * sigma
		buf.Bytes[id] = buf.Out[id] * op.OutEventBytes
	}
	return nil
}

// growZero returns s resized to length n with every element zeroed.
func growZero(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}
