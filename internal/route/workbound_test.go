package route_test

import (
	"fmt"
	"testing"

	"gdsiiguard/internal/benchdesigns"
	"gdsiiguard/internal/layout"
	"gdsiiguard/internal/obs"
	"gdsiiguard/internal/route"
)

// specNets reads the parallel router's speculation counter from the
// process metrics registry, as /metrics exposes it.
func specNets(t *testing.T) (accepted, reexecuted, sequential float64) {
	t.Helper()
	for _, m := range obs.Default().Snapshot() {
		if m.Name != "gdsiiguard_route_spec_nets_total" {
			continue
		}
		for _, s := range m.Series {
			switch s.Labels["outcome"] {
			case "accepted":
				accepted = s.Value
			case "reexecuted":
				reexecuted = s.Value
			case "sequential":
				sequential = s.Value
			}
		}
	}
	return accepted, reexecuted, sequential
}

// TestParallelWorkBounded is the work bound of parallel routing on congested
// fixtures: at 2 and 4 workers the result is bit-identical to sequential
// routing (usage grid, every NetRoute, victims, overflow), and every net of
// a parallel routing pass is committed exactly once — applied from its one
// speculation, re-executed once after it, or routed sequentially in a
// chunk that was not speculated. The requeue-until-fixpoint protocol this
// replaced speculated each net of these fixtures on the order of a hundred
// times.
func TestParallelWorkBounded(t *testing.T) {
	t.Cleanup(func() { route.SetWorkers(0) })
	fixtures := []struct {
		name string
		l    func(t *testing.T) *layout.Layout
	}{
		{"pressureMesh", func(t *testing.T) *layout.Layout { return route.PressureMesh(t) }},
		{"localMesh@ndr2.5", func(t *testing.T) *layout.Layout { return route.CongestedLocalMesh(t) }},
		{"openMSP430_1@ndr2", func(t *testing.T) *layout.Layout {
			if testing.Short() {
				t.Skip("builds a benchmark design")
			}
			d, err := benchdesigns.Build("openMSP430_1")
			if err != nil {
				t.Fatal(err)
			}
			for i := range d.Layout.NDR.Scale {
				d.Layout.NDR.Scale[i] = 2.0
			}
			return d.Layout
		}},
	}
	var accepted, reexecuted float64
	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) {
			l := fx.l(t)
			geo := route.BuildGeometry(l)
			routable := 0
			for _, c := range geo.Conns {
				if len(c) > 0 {
					routable++
				}
			}
			route.SetWorkers(1)
			want, err := route.RouteWithGeometry(l, route.Options{Seed: 4}, geo)
			if err != nil {
				t.Fatal(err)
			}
			if want.Victims == 0 {
				t.Fatal("fixture is not congested: no rip-up victims")
			}
			t.Logf("%d routable nets, %d victims, overflow %.1f", routable, want.Victims, want.Overflow)

			for _, w := range []int{2, 4} {
				route.SetWorkers(w)
				if got := route.ResolvedWorkers(len(geo.Order)); got != w {
					t.Fatalf("workers %d: main pass resolves to %d workers", w, got)
				}
				acc0, re0, seq0 := specNets(t)
				got, err := route.RouteWithGeometry(l, route.Options{Seed: 4}, geo)
				if err != nil {
					t.Fatal(err)
				}
				acc1, re1, seq1 := specNets(t)
				route.SameResults(t, fmt.Sprintf("%s@%d workers", fx.name, w), got, want)
				if got.Overflow != want.Overflow || got.OverflowGCells != want.OverflowGCells {
					t.Errorf("workers %d: overflow %g/%d != %g/%d", w,
						got.Overflow, got.OverflowGCells, want.Overflow, want.OverflowGCells)
				}

				// Each parallel pass — the main pass, plus the victim pass
				// when it is large enough to run in parallel — commits each
				// of its nets exactly once.
				wantNets := routable
				if route.ResolvedWorkers(want.Victims) > 1 {
					wantNets += want.Victims
				}
				acc, re, seq := acc1-acc0, re1-re0, seq1-seq0
				t.Logf("workers %d: %v accepted, %v re-executed, %v sequential", w, acc, re, seq)
				if int(acc+re+seq) != wantNets {
					t.Errorf("workers %d: %v nets committed, want exactly %d", w, acc+re+seq, wantNets)
				}
				accepted += acc
				reexecuted += re
			}
		})
	}
	// Both commit paths of a speculated chunk must have been exercised.
	if accepted == 0 || reexecuted == 0 {
		t.Errorf("speculation not exercised: %v accepted, %v re-executed", accepted, reexecuted)
	}
}
