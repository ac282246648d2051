package route

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"gdsiiguard/internal/layout"
)

// withWorkers forces the parallel-routing worker count for the duration of the
// test and restores auto-selection afterwards. The test machine may have a
// single CPU, so parallelism is always forced explicitly rather than
// inherited from GOMAXPROCS.
func withWorkers(t testing.TB, n int) {
	t.Helper()
	SetWorkers(n)
	t.Cleanup(func() { SetWorkers(0) })
}

func TestResolvedWorkers(t *testing.T) {
	withWorkers(t, 4)
	if got := ResolvedWorkers(parallelMinNets - 1); got != 1 {
		t.Errorf("below threshold: %d workers, want 1", got)
	}
	if got := ResolvedWorkers(10 * parallelMinNets); got != 4 {
		t.Errorf("large batch: %d workers, want 4", got)
	}
	// The per-worker floor keeps speculation chunks from getting uselessly
	// small: a batch never resolves to more workers than it fills one chunk
	// (w × minNetsPerWorker nets) for.
	SetWorkers(64)
	for n := parallelMinNets; n < 4*parallelMinNets; n++ {
		if w := ResolvedWorkers(n); w < 2 || w*minNetsPerWorker > n {
			t.Fatalf("%d nets resolved to %d workers (chunk of %d nets)", n, w, w*minNetsPerWorker)
		}
	}
	SetWorkers(1)
	if got := ResolvedWorkers(10 * parallelMinNets); got != 1 {
		t.Errorf("SetWorkers(1): %d workers, want 1", got)
	}
}

// TestNetOrderHashSelfContained pins the tie-break key down: it must be
// deterministic, seed-sensitive, and collision-free over realistic net-ID
// ranges, because the rip-up victim order (and therefore every routed
// result) follows from it.
func TestNetOrderHashSelfContained(t *testing.T) {
	if netOrderHash(1, 42) != netOrderHash(1, 42) {
		t.Fatal("hash is not deterministic")
	}
	if netOrderHash(1, 42) == netOrderHash(2, 42) {
		t.Error("hash ignores the seed")
	}
	for _, seed := range []int64{0, 1, -7, 1 << 40} {
		seen := make(map[uint64]int32, 1<<14)
		for id := int32(0); id < 1<<14; id++ {
			h := netOrderHash(seed, id)
			if prev, dup := seen[h]; dup {
				t.Fatalf("seed %d: ids %d and %d collide", seed, prev, id)
			}
			seen[h] = id
		}
	}
}

// routeForced routes l with an explicitly forced worker count and asserts
// the batch was large enough for the setting to actually bind (so a silent
// fall-through to the sequential path cannot fake a pass).
func routeForced(t *testing.T, l *layout.Layout, seed int64, workers int) *Result {
	t.Helper()
	SetWorkers(workers)
	if workers > 1 {
		if got := ResolvedWorkers(len(l.Netlist.Nets)); got < 2 {
			t.Fatalf("fixture too small: %d nets resolve to %d workers", len(l.Netlist.Nets), got)
		}
	}
	res, err := Route(l, Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestParallelMatchesSequential is the parallel-routing equivalence gate:
// routing with any worker count must be bit-identical — routes, usage grid,
// wirelength, victims — to the sequential loop, across seeds and fixtures.
// Worker counts also move the speculation chunk boundaries, so this doubles
// as the chunk-order regression test.
func TestParallelMatchesSequential(t *testing.T) {
	t.Cleanup(func() { SetWorkers(0) })
	fixtures := map[string]*layout.Layout{
		"globalMesh": placedMesh(t, 8, 30, 0.6),
		"localMesh":  placedLocalMesh(t, 8, 60, 40, 160),
	}
	for name, l := range fixtures {
		for _, seed := range []int64{1, 2, 9} {
			want := routeForced(t, l, seed, 1)
			for _, w := range []int{2, 3, 4, 8} {
				got := routeForced(t, l, seed, w)
				sameResults(t, name, got, want)
				if got.Victims != want.Victims {
					t.Errorf("%s seed %d workers %d: victims %d != %d",
						name, seed, w, got.Victims, want.Victims)
				}
			}
		}
	}
}

// TestParallelIndependentOfGOMAXPROCS pins scheduler independence: the same
// forced worker count must produce the same bits whether the runtime runs
// goroutines one at a time or genuinely in parallel.
func TestParallelIndependentOfGOMAXPROCS(t *testing.T) {
	withWorkers(t, 8)
	l := placedLocalMesh(t, 8, 60, 40, 160)

	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	serial, err := Route(l, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	runtime.GOMAXPROCS(8)
	parallel, err := Route(l, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "gomaxprocs", parallel, serial)
}

// pressureMesh is the congested fixture: a dense mesh under a 1.5× wide NDR,
// which forces rip-up.
func pressureMesh(t testing.TB) *layout.Layout {
	t.Helper()
	l := placedMesh(t, 10, 30, 0.75)
	for i := range l.NDR.Scale {
		l.NDR.Scale[i] = 1.5
	}
	return l
}

// congestedLocalMesh is a serpentine mesh under a 2.5× wide NDR: congested
// enough for rip-up, but its nets are local, so speculation mostly pays.
func congestedLocalMesh(t testing.TB) *layout.Layout {
	t.Helper()
	l := placedLocalMesh(t, 8, 60, 40, 160)
	for i := range l.NDR.Scale {
		l.NDR.Scale[i] = 2.5
	}
	return l
}

// TestParallelUnderPressure forces rip-up so the hashed victim ordering and
// the parallel reroute of the victim batch are both exercised and stay
// bit-identical to the sequential run.
func TestParallelUnderPressure(t *testing.T) {
	t.Cleanup(func() { SetWorkers(0) })
	l := pressureMesh(t)
	want := routeForced(t, l, 4, 1)
	t.Logf("pressure fixture: victims=%d overflow=%.1f", want.Victims, want.Overflow)
	for _, w := range []int{2, 4} {
		got := routeForced(t, l, 4, w)
		sameResults(t, "pressure", got, want)
		if got.Victims != want.Victims {
			t.Errorf("workers %d: victims %d != %d", w, got.Victims, want.Victims)
		}
	}
}

// TestParallelRouteConcurrentCallers routes the same layout from several
// goroutines at once, each with parallel workers enabled — the
// exploration loop's shape (concurrent arenas, shared geometry) — and
// checks every result. Run under -race this is the router's data-race gate.
func TestParallelRouteConcurrentCallers(t *testing.T) {
	withWorkers(t, 4)
	l := placedLocalMesh(t, 8, 60, 40, 160)
	geo := BuildGeometry(l)
	want, err := RouteWithGeometry(l, Options{Seed: 5}, geo)
	if err != nil {
		t.Fatal(err)
	}

	const callers = 4
	results := make([]*Result, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := RouteWithGeometry(l, Options{Seed: 5}, geo)
			if err != nil {
				t.Errorf("caller %d: %v", c, err)
				return
			}
			results[c] = res
		}()
	}
	wg.Wait()
	for _, res := range results {
		if res != nil {
			sameResults(t, "concurrent", res, want)
		}
	}
}

// BenchmarkRouteWorkers routes the congested fixtures at 1, 2 and 4
// workers. Besides time it reports the parallel router's speculation volume
// per route: at most one speculation per net per routing pass, so a return
// to requeue-style repeated speculation shows up as spec-nets/op far above
// the fixture's net count. The pressure mesh overlaps too much for
// speculation to pay off and routes almost entirely sequentially; the local
// mesh speculates.
func BenchmarkRouteWorkers(b *testing.B) {
	fixtures := []struct {
		name string
		l    *layout.Layout
	}{
		{"pressure", pressureMesh(b)},
		{"local", congestedLocalMesh(b)},
	}
	for _, fx := range fixtures {
		geo := BuildGeometry(fx.l)
		for _, w := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%s/workers=%d", fx.name, w), func(b *testing.B) {
				withWorkers(b, w)
				acc0, re0 := specNetsAccepted.Value(), specNetsReexecuted.Value()
				for i := 0; i < b.N; i++ {
					if _, err := RouteWithGeometry(fx.l, Options{Seed: 4}, geo); err != nil {
						b.Fatal(err)
					}
				}
				acc, re := specNetsAccepted.Value()-acc0, specNetsReexecuted.Value()-re0
				b.ReportMetric((acc+re)/float64(b.N), "spec-nets/op")
				b.ReportMetric(re/float64(b.N), "reexec-nets/op")
			})
		}
	}
}
