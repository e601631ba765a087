package plan

import (
	"fmt"
	"slices"
	"testing"

	"github.com/wasp-stream/wasp/internal/detutil"
)

// mapTopoOrder is the map-based Kahn's algorithm computeTopo replaced,
// kept as the reference: it sorts the whole ready list after every step,
// so the smallest ready ID always comes next.
func mapTopoOrder(g *Graph) ([]OpID, error) {
	ids := g.OperatorIDs()
	indeg := make(map[OpID]int, len(ids))
	for _, id := range ids {
		indeg[id] = len(g.UpstreamView(id))
	}
	var ready []OpID
	for _, id := range detutil.SortedKeys(indeg) {
		if indeg[id] == 0 {
			ready = append(ready, id)
		}
	}
	order := make([]OpID, 0, len(ids))
	for len(ready) > 0 {
		id := ready[0]
		ready = ready[1:]
		order = append(order, id)
		var unlocked []OpID
		for _, d := range g.DownstreamView(id) {
			indeg[d]--
			if indeg[d] == 0 {
				unlocked = append(unlocked, d)
			}
		}
		ready = append(ready, unlocked...)
		slices.Sort(ready)
	}
	if len(order) != len(ids) {
		return nil, fmt.Errorf("plan: graph has a cycle (%d of %d ordered)", len(order), len(ids))
	}
	return order, nil
}

// decodeGraph builds a graph from fuzz bytes. data[0] sets the initial
// operator count (1–32); every following byte pair is one step:
//
//	0xff, x  remove operator x mod the IDs assigned so far
//	0xfe, _  add an operator
//	a, b     connect a → b (mod the IDs assigned so far); rejected edges
//	         (duplicates, removed endpoints) are skipped
//
// Edges may point backwards, so the graph may have cycles.
func decodeGraph(data []byte) *Graph {
	g := NewGraph()
	if len(data) == 0 {
		return g
	}
	for i := 0; i < int(data[0]%32)+1; i++ {
		g.AddOperator(Operator{Kind: KindMap})
	}
	for i := 1; i+1 < len(data); i += 2 {
		n := int(g.nextID)
		switch a, b := int(data[i]), int(data[i+1]); a {
		case 0xff:
			g.RemoveOperator(OpID(b % n))
		case 0xfe:
			g.AddOperator(Operator{Kind: KindMap})
		default:
			_ = g.Connect(OpID(a%n), OpID(b%n))
		}
		// Interleave reads with mutations, as the planner does, so the
		// caches are invalidated mid-construction.
		if data[i]&1 == 0 {
			_, _ = g.TopoOrder()
		}
	}
	return g
}

// FuzzTopoOrder checks the slice-based topological sort against the
// map-based reference on arbitrary graphs with removals and cycles: the
// same order, or the same cycle error. Plain `go test` replays the seeds
// below and the corpus in testdata/fuzz/FuzzTopoOrder.
func FuzzTopoOrder(f *testing.F) {
	f.Add([]byte{3, 0, 1, 1, 2})                         // chain
	f.Add([]byte{3, 2, 1, 1, 0})                         // reverse chain
	f.Add([]byte{2, 0, 1, 1, 0})                         // 2-cycle
	f.Add([]byte{0, 0, 0})                               // self-loop
	f.Add([]byte{5, 4, 0, 3, 0, 0, 2, 2, 1, 0xff, 2})    // removal inside a DAG
	f.Add([]byte{4, 0xfe, 0, 4, 0, 0xff, 0, 1, 2, 3, 4}) // add after remove
	f.Fuzz(func(t *testing.T, data []byte) {
		g := decodeGraph(data)
		got, gotErr := g.TopoOrder()
		want, wantErr := mapTopoOrder(g)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("TopoOrder error %v, reference %v", gotErr, wantErr)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("TopoOrder = %v, reference %v", got, want)
		}
		// A clone orders the same way.
		cgot, cerr := g.Clone().TopoOrder()
		if fmt.Sprint(cerr) != fmt.Sprint(wantErr) || !slices.Equal(cgot, want) {
			t.Fatalf("clone TopoOrder = %v, %v; reference %v, %v", cgot, cerr, want, wantErr)
		}
	})
}
