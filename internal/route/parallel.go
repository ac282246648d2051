package route

// Speculative parallel routing in one pass. The canonical net order
// (geo.Order, or the victim list during rip-up) is walked once in
// contiguous chunks of w × minNetsPerWorker nets. Workers route every net
// of a chunk speculatively, each net on its own against the committed usage
// snapshot (a private overlay absorbs only that net's writes). A commit
// pass then walks the chunk in canonical order on the live grid: a net
// whose connection read rectangles miss every GCell written so far in this
// chunk has its speculative route applied; any other net is routed again right there, on
// the live grid. Either way the net's segments are painted into the chunk's
// conflict mask, which is un-painted before the next chunk. Nothing is
// requeued: every net is speculated at most once and re-executed at most
// once, so total work stays within twice the sequential router's at any
// worker count — and chunks where speculation would not pay off are not
// speculated at all (see routeChunks).
//
// Bit-identity to the sequential loop follows from three facts:
//
//   - Nets commit one at a time in canonical order, each onto the live grid,
//     so every net's turn sees exactly the usage state the sequential loop
//     would show it. A re-executed net is routed by the sequential code path
//     itself on that state.
//   - The router's reads and writes for a net are confined to the GCells
//     inside its per-connection read rectangles (the same containment
//     touchesDelta relies on for warm starts). An applied net's rectangles
//     miss every cell written earlier in its chunk, so over its whole read
//     set the snapshot it speculated against equals the live grid at its
//     turn, and it decides identically.
//   - The overlay stores effective values seeded from the snapshot, and
//     applySpec books the increments segment by segment in commit order, so
//     the floating-point additions associate exactly as in the sequential
//     run, both within the net and across nets sharing a GCell.
//
// Tie-breaking needs no coordination: candidate selection is strict-less
// cost comparison (first-best wins deterministically) and rip-up victim
// ordering is a per-net hash of the seed, so no shared rand stream exists
// to race on. Speculation is a pure function of (snapshot, net), so which
// worker speculates which net does not matter either.

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// routeWorkersSetting is the configured worker count; 0 means auto
// (GOMAXPROCS).
var routeWorkersSetting atomic.Int32

// SetWorkers sets the number of workers parallel routing uses. 0 (the
// default) selects GOMAXPROCS; 1 forces the sequential path. The setting is
// process-wide and safe to change between route invocations.
func SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	routeWorkersSetting.Store(int32(n))
}

// Workers returns the configured worker count (0 = auto).
func Workers() int { return int(routeWorkersSetting.Load()) }

const (
	// parallelMinNets is the batch size below which the sequential loop
	// always wins (goroutine + overlay overhead beats the speculation).
	parallelMinNets = 192
	// minNetsPerWorker is each worker's share of a speculation chunk: a
	// chunk holds w × minNetsPerWorker nets, and no batch resolves to more
	// workers than it has such shares.
	minNetsPerWorker = 24
)

// ResolvedWorkers reports how many workers the router will actually use for
// a batch of numNets nets under the current setting — 1 means the
// sequential path (single CPU, small batch, or an explicit SetWorkers(1)).
func ResolvedWorkers(numNets int) int {
	if numNets < parallelMinNets {
		return 1
	}
	n := int(routeWorkersSetting.Load())
	if n == 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if limit := numNets / minNetsPerWorker; n > limit {
		n = limit
	}
	if n < 1 {
		n = 1
	}
	return n
}

// netOrderHash is a splitmix64-style mix of (seed, net ID): the
// self-contained per-net tie-break key used to order rip-up victims.
func netOrderHash(seed int64, id int32) uint64 {
	x := uint64(seed) ^ (uint64(uint32(id))+1)*0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

const (
	overlayPageBits = 8
	overlayPageSize = 1 << overlayPageBits
	// overlayPoolMax bounds the detached pages an overlay keeps for reuse;
	// pages beyond it (after a net that wrote an unusually wide region, such
	// as a clock tree) go back to the garbage collector.
	overlayPoolMax = 64
)

// overlayPage holds effective usage values for overlayPageSize consecutive
// GCells of one layer. A value is live only while its stamp equals the
// overlay's epoch, so a page never needs clearing before reuse.
type overlayPage struct {
	stamp [overlayPageSize]uint32
	val   [overlayPageSize]float64
}

// usageOverlay is a worker's private view of track usage while it
// speculates one net: the *effective* usage value at every (layer, GCell)
// the net has written, seeded from the committed snapshot on first write.
// Storing effective values rather than deltas keeps the floating-point
// addition order within a net identical to committing against the live
// grid: base + s1 + s2 associates left-to-right in both.
//
// Values live in epoch-stamped pages attached on first write and detached
// again by reset, so memory follows the region one net writes, not the
// grid; only the page table (one pointer per overlayPageSize GCells and
// layer) is sized by the grid.
type usageOverlay struct {
	pages    [][]*overlayPage
	attached []overlayPageRef
	free     []*overlayPage
	// epoch advances once per speculated net. An overlay lives for one
	// routing pass, which has fewer nets than int32 IDs allow, so it never
	// wraps back to a stamp a pooled page still carries.
	epoch uint32
}

type overlayPageRef struct{ li, pi int32 }

func newUsageOverlay(layers, cells int) *usageOverlay {
	o := &usageOverlay{pages: make([][]*overlayPage, layers), epoch: 1}
	for li := range o.pages {
		o.pages[li] = make([]*overlayPage, (cells+overlayPageSize-1)/overlayPageSize)
	}
	return o
}

// reset discards every value in O(pages written): the pages are detached
// into the reuse pool and the epoch advances, which invalidates their
// stamps.
func (o *usageOverlay) reset() {
	for _, ref := range o.attached {
		pg := o.pages[ref.li][ref.pi]
		o.pages[ref.li][ref.pi] = nil
		if len(o.free) < overlayPoolMax {
			o.free = append(o.free, pg)
		}
	}
	o.attached = o.attached[:0]
	o.epoch++
}

func (o *usageOverlay) get(li, idx int) (float64, bool) {
	pg := o.pages[li][idx>>overlayPageBits]
	if pg == nil {
		return 0, false
	}
	off := idx & (overlayPageSize - 1)
	if pg.stamp[off] != o.epoch {
		return 0, false
	}
	return pg.val[off], true
}

// add books scale at (li, idx), seeding the effective value from base (the
// committed snapshot) on first touch.
func (o *usageOverlay) add(li, idx int, base, scale float64) {
	pi := idx >> overlayPageBits
	pg := o.pages[li][pi]
	if pg == nil {
		if n := len(o.free); n > 0 {
			pg = o.free[n-1]
			o.free = o.free[:n-1]
		} else {
			pg = new(overlayPage)
		}
		o.pages[li][pi] = pg
		o.attached = append(o.attached, overlayPageRef{li: int32(li), pi: int32(pi)})
	}
	off := idx & (overlayPageSize - 1)
	if pg.stamp[off] == o.epoch {
		pg.val[off] += scale
	} else {
		pg.stamp[off] = o.epoch
		pg.val[off] = base + scale
	}
}

// applySpec commits a speculatively routed net: usage is booked along every
// segment exactly as the sequential commit would, and the route is
// recorded.
func (r *router) applySpec(nr *NetRoute) {
	for _, s := range nr.Segments {
		scale := r.l.NDR.LayerScale(s.Metal)
		r.walk(s.A, s.B, func(idx int) {
			r.res.Usage[s.Metal-1][idx] += scale
		})
	}
	r.res.NetRoutes[nr.Net.ID] = nr
}

// routeChunks routes the given nets (canonical order) in one pass of
// speculate-then-commit chunks with w workers.
//
// A chunk is speculated only if speculation would have paid off on the
// chunk before: at least half its nets' read rectangles missed the earlier
// commits of their chunk. Otherwise the chunk routes sequentially on the
// live grid, and the same rectangle test still runs on it, so the decision
// for the next chunk always rests on the exact acceptance rate speculation
// would have had. Canonical order is descending HPWL, so the first chunks
// (long, overlapping nets that almost all conflict) route sequentially
// instead of being routed twice, and speculation resumes once the nets get
// short enough to be independent. The decision depends only on routed
// geometry, never on timing, and both paths commit identically.
func (r *router) routeChunks(order []int32, w int) {
	workers := make([]*router, w)
	for i := range workers {
		workers[i] = &router{l: r.l, res: r.res, geo: r.geo, seed: r.seed,
			spec: newUsageOverlay(len(r.res.Usage), r.res.Grid.Cols*r.res.Grid.Rows)}
	}
	size := w * minNetsPerWorker
	specs := make([]*NetRoute, size)
	committed := make([]*NetRoute, 0, size)
	conflict := newDeltaMask(r.res.Grid)
	var accepted, reexecuted, sequential int
	speculating := false // the first chunk holds the longest nets

	for lo := 0; lo < len(order); lo += size {
		chunk := order[lo:min(lo+size, len(order))]
		sp := specs[:len(chunk)]
		if speculating {
			speculate(workers, chunk, sp)
		}

		// Commit in canonical order on the live grid.
		independent := 0
		for i, oi := range chunk {
			if len(r.geo.Conns[oi]) == 0 {
				continue // routes nothing, conflicts with nothing
			}
			miss := len(committed) == 0 || !r.touchesDelta(conflict, oi)
			nr := sp[i]
			sp[i] = nil
			if speculating && miss {
				r.applySpec(nr)
				accepted++
			} else {
				nr = r.buildGeoNet(int(oi))
				r.res.NetRoutes[nr.Net.ID] = nr
				if speculating {
					reexecuted++
				} else {
					sequential++
				}
			}
			if miss {
				independent++
			}
			conflict.addSegments(nr.Segments)
			committed = append(committed, nr)
		}
		speculating = 2*independent >= len(committed)
		// Un-paint what this chunk painted: no per-chunk work proportional
		// to the grid.
		for _, nr := range committed {
			conflict.clearSegments(nr.Segments)
		}
		committed = committed[:0]
	}
	specNetsAccepted.Add(float64(accepted))
	specNetsReexecuted.Add(float64(reexecuted))
	specNetsSequential.Add(float64(sequential))
}

// speculate routes every net of the chunk against the committed snapshot
// (res.Usage is not written during this phase), storing each route at the
// net's chunk position. Workers claim nets dynamically; the calling
// goroutine runs the first worker.
func speculate(workers []*router, chunk []int32, sp []*NetRoute) {
	var next atomic.Int64
	run := func(rw *router) {
		for {
			i := int(next.Add(1) - 1)
			if i >= len(chunk) {
				return
			}
			rw.spec.reset()
			sp[i] = rw.buildGeoNet(int(chunk[i]))
		}
	}
	var wg sync.WaitGroup
	for _, rw := range workers[1:] {
		wg.Add(1)
		go func(rw *router) {
			defer wg.Done()
			run(rw)
		}(rw)
	}
	run(workers[0])
	wg.Wait()
}
