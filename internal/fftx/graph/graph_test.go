package graph

import "testing"

func testPipeline(t *testing.T, gamma bool) *Graph {
	t.Helper()
	k := NewKernel(Spec{Ecut: 6, Alat: 6, Ranks: 2, Gamma: gamma, InstrPerFlop: 1, InstrPerByte: 1})
	return k.Pipeline(gamma)
}

// Segments is the task decomposition of the segmented engines: the
// pipeline's compute stages in order, cut at each scatter edge, with one
// more segment than scatters and every stage accounted for exactly once.
func TestSegmentsSplitAtScatters(t *testing.T) {
	for _, gamma := range []bool{false, true} {
		g := testPipeline(t, gamma)
		segs, scatters := g.Segments()
		if len(scatters) == 0 || len(segs) != len(scatters)+1 {
			t.Fatalf("gamma=%v: %d segments for %d scatters", gamma, len(segs), len(scatters))
		}
		// Walking segs[0], scatters[0], segs[1], ... must replay the stage
		// list in execution order.
		i := 0
		next := func() *Stage {
			if i >= len(g.Stages) {
				t.Fatalf("gamma=%v: decomposition has more stages than the graph", gamma)
			}
			i++
			return &g.Stages[i-1]
		}
		for k, seg := range segs {
			if len(seg) == 0 {
				t.Errorf("gamma=%v: segment %d is empty", gamma, k)
			}
			for _, st := range seg {
				if st.Kind != Compute {
					t.Errorf("gamma=%v: segment %d holds a %v stage %q", gamma, k, st.Kind, st.Name)
				}
				if st != next() {
					t.Errorf("gamma=%v: segment %d stage %q out of order", gamma, k, st.Name)
				}
			}
			if k < len(scatters) {
				if sc := scatters[k]; sc.Kind != Scatter || sc != next() {
					t.Errorf("gamma=%v: scatter %d is not the stage after segment %d", gamma, k, k)
				}
			}
		}
		if i != len(g.Stages) {
			t.Errorf("gamma=%v: decomposition covers %d of %d stages", gamma, i, len(g.Stages))
		}
	}
}
