package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"gdsiiguard"
	"gdsiiguard/internal/benchdesigns"
	"gdsiiguard/internal/core"
	"gdsiiguard/internal/route"
	"gdsiiguard/internal/sta"
)

// explore-congested: the paper's optimizer loop on a congested design. One
// caller, closed loop: load openMSP430_1 (untimed set-up), run Design.Explore
// at the default Parallelism (timed), check the front, repeat until the
// measurement time is used.
const (
	exploreDesign = "openMSP430_1"
	explorePop    = 4
	exploreGens   = 1
	exploreMin    = 3  // explores per run at least (each on a fresh load)
	exploreMax    = 16 // explore seeds drawn per run; a run uses the first few
	exploreServed = 1  // knees per traced run hardened again through guardd

	// Hypervolume reference point: the unhardened baseline's security score
	// (1.0 by definition) and a TNS floor of -1000 ps.
	hvRefSecurity = 1.0
	hvRefTNS      = -1000.0
)

func runExplore(r *run) error {
	if r.guardd == "" {
		return fmt.Errorf("-guardd names no binary (the served knee check needs one)")
	}
	// Every input is drawn from the seed before timing starts.
	rng := rand.New(rand.NewSource(r.seed))
	seeds := make([]int64, exploreMax)
	for i := range seeds {
		seeds[i] = rng.Int63n(1<<31) + 1
	}
	var (
		setups, setupCPU         []float64
		baselines, builds        []float64
		exploreMS, evalMS, cpuMS []float64
		evals                    int
		exploreSecs, exploreCPU  float64
		hvs                      []float64
		acc                      = promSnap{}
		reuse, reuseOf           int
		knees                    []gdsiiguard.ParetoPoint
	)
	for i := 0; i < len(seeds) && (i < exploreMin || time.Duration(exploreSecs*float64(time.Second)) < r.seconds); i++ {
		exploreSeed := seeds[i]
		trace := fmt.Sprintf("explore-%d", i)

		before := localProm()
		sp := r.tr.begin("gdsiiguard.LoadBenchmark", trace, 0)
		t0, c0 := time.Now(), cpuTime()
		d, err := gdsiiguard.LoadBenchmark(exploreDesign)
		setup := time.Since(t0).Seconds()
		setupCPU = append(setupCPU, (cpuTime() - c0).Seconds())
		r.tr.end(sp)
		if err != nil {
			return fmt.Errorf("load %s: %w", exploreDesign, err)
		}
		mid := localProm()
		base := stageSum(before, mid, "route", "timing", "power", "security", "drc")
		setups = append(setups, setup)
		baselines = append(baselines, base)
		builds = append(builds, setup-base)

		r.attempted++
		// The previous explore's garbage is collected here, untimed, not
		// in this explore's CPU time.
		runtime.GC()
		sp = r.tr.begin("gdsiiguard.Design.Explore", trace, 0)
		t0, c0 = time.Now(), cpuTime()
		ex, err := d.Explore(gdsiiguard.ExploreOptions{PopSize: explorePop, Generations: exploreGens, Seed: exploreSeed})
		el, cpu := time.Since(t0), cpuTime()-c0
		r.tr.end(sp)
		after := localProm()
		accumulate(acc, mid, after)
		if err != nil {
			r.failed++
			fmt.Fprintf(os.Stderr, "explore %d (seed %d): %v\n", i, exploreSeed, err)
			exploreSecs += el.Seconds()
			continue
		}
		exploreMS = append(exploreMS, ms(el))
		evalMS = append(evalMS, ms(el)/float64(max(1, ex.Evaluations)))
		cpuMS = append(cpuMS, ms(cpu)/float64(max(1, ex.Evaluations)))
		exploreSecs += el.Seconds()
		exploreCPU += cpu.Seconds()
		evals += ex.Evaluations
		reuse += ex.Delta.OpMemoHits + ex.Delta.OpArenaHits
		reuseOf += ex.Delta.OpRuns + ex.Delta.OpMemoHits + ex.Delta.OpArenaHits

		sec := make([]float64, len(ex.Front))
		tns := make([]float64, len(ex.Front))
		for j, p := range ex.Front {
			sec[j], tns[j] = p.Metrics.Security, p.Metrics.TNS
		}
		hvs = append(hvs, hypervolume(sec, tns, hvRefSecurity, hvRefTNS))
		fmt.Fprintf(os.Stderr, "explore %d (seed %d): load %.2fs (%.2f CPU-s), explore %.2fs (%.2f CPU-s), %d evaluations, front %d, hv %.4g, delta %+v\n",
			i, exploreSeed, setup, setupCPU[len(setupCPU)-1], el.Seconds(), cpu.Seconds(), ex.Evaluations, len(ex.Front), hvs[len(hvs)-1], ex.Delta)

		if checkFront(r, d, ex, trace) {
			knees = append(knees, ex.Front[ex.Knee])
		}
	}

	r.set("setup_s", median(setupCPU))
	r.set("bench.setup_wall_s", median(setups))
	// The unit of work is one flow evaluation. work_cpu_ms pools every
	// explore of the run: their CPU time over their evaluations. How many
	// evaluations an explore needs, and what they cost, depends on its
	// trajectory (duplicate chromosomes are cache hits, ScaleM sets the
	// route's congestion), so pooling beats a median over a few explores.
	// Wall-time figures, and the raw explore wall time (nsga2.explore_s),
	// are per layer.
	if evals > 0 {
		r.set("work_cpu_ms", 1000*exploreCPU/float64(evals))
	}
	r.set("bench.work_cpu_p50_ms", median(cpuMS))
	r.set("bench.work_p50_ms", median(evalMS))
	r.set("bench.work_p99_ms", percentile(evalMS, 99))
	r.set("nsga2.explore_s", median(exploreMS)/1000)
	if exploreSecs > 0 {
		r.set("bench.work_per_s", float64(evals)/exploreSecs)
	}
	r.samples["explores"] = len(exploreMS)
	r.samples["setups"] = len(setups)

	counterLayers(r, promSnap{}, acc)
	r.set("core.baseline_s", median(baselines))
	r.set("benchdesigns.build_s", median(builds))
	r.set("nsga2.front_hypervolume", median(hvs))
	if reuseOf > 0 {
		r.set("core.op_reuse_frac", float64(reuse)/float64(reuseOf))
	}

	bd, err := benchdesigns.Build(exploreDesign)
	if err != nil {
		return err
	}
	resolvedEnv(r, len(bd.Layout.Netlist.Nets), len(bd.Layout.Netlist.Insts), bd.Layout.NumRows)
	// The served knee is checked, and the service and gdsii layers read, in
	// traced runs only: untraced runs report no per-layer metrics, and a
	// guardd start plus a harden job would add about 6 s to each of them.
	if r.tr == nil {
		return nil
	}
	cells := 0
	for _, in := range bd.Layout.Netlist.Insts {
		if bd.Layout.PlacementOf(in).Placed {
			cells++
		}
	}
	return servedKnees(r, knees[:min(exploreServed, len(knees))], cells)
}

// servedKnees hands explored knees to a guardd on loopback as harden jobs
// and downloads their GDSII. The served path must reproduce the explored
// metrics exactly, and each GDSII must hold the design's cells. It runs
// after the timed explores, as a check; it is also where this workload
// reads the service and gdsii layers.
func servedKnees(r *run, knees []gdsiiguard.ParetoPoint, cells int) error {
	srv, err := startServer(r.guardd)
	if err != nil {
		return err
	}
	defer srv.stop()
	before, err := srv.metrics()
	if err != nil {
		return err
	}
	jobs := make([]jobOutcome, len(knees))
	for i, k := range knees {
		trace := fmt.Sprintf("served-%d", i)
		root := r.tr.begin("job", trace, 0)
		sent := time.Now()
		if id, err := srv.send(r, trace, root, jobInput{Design: exploreDesign, Params: k.Params}, &jobs[i]); err == nil {
			srv.follow(r, trace, root, id, sent, &jobs[i])
		}
		r.tr.end(root)
	}
	after, err := srv.metrics()
	if err != nil {
		return err
	}
	if err := srv.stop(); err != nil {
		return err
	}
	serviceLayers(r, before, after, jobs)
	for i, o := range jobs {
		if o.err != nil {
			r.checkFail("served knee %d: %v", i, o.err)
			continue
		}
		ok := checkGDSII(r, jobs[i:i+1], map[string]int{exploreDesign: cells})
		if want := toMetricsJSON(knees[i].Metrics); len(ok) == 1 && *o.hardened != want {
			r.checkFail("served knee %d %+v != explored %+v", i, *o.hardened, want)
		}
	}
	return nil
}

// checkFront verifies one exploration outside the timed region: the front
// is non-empty and mutually non-dominated, and the knee re-run through a
// plain from-scratch Design.Harden reproduces its metrics exactly. It
// reports whether every check passed.
func checkFront(r *run, d *gdsiiguard.Design, ex *gdsiiguard.Exploration, trace string) bool {
	if len(ex.Front) == 0 || ex.Knee < 0 {
		r.checkFail("%s: empty front (knee %d)", trace, ex.Knee)
		return false
	}
	for i, a := range ex.Front {
		for j, b := range ex.Front {
			if i != j && dominates(b.Metrics, a.Metrics) {
				r.checkFail("%s: front point %d is dominated by point %d", trace, i, j)
				return false
			}
		}
	}
	knee := ex.Front[ex.Knee]
	var h *gdsiiguard.Hardened
	err := sequentialReference(func() error {
		sp := r.tr.begin("check.Design.Harden", trace, 0)
		defer r.tr.end(sp)
		var err error
		h, err = d.Harden(&knee.Params)
		return err
	})
	if err != nil {
		r.checkFail("%s: knee re-run: %v", trace, err)
		return false
	}
	if !sameMetrics(h.Metrics, knee.Metrics) {
		r.checkFail("%s: knee re-run %+v != explored %+v", trace, h.Metrics, knee.Metrics)
		return false
	}
	return true
}

// dominates reports whether a is at least as good as b in security and TNS
// and strictly better in one.
func dominates(a, b gdsiiguard.Metrics) bool {
	return a.Security <= b.Security && a.TNS >= b.TNS && (a.Security < b.Security || a.TNS > b.TNS)
}

// sameMetrics compares every evaluated metric exactly (Runtime excluded).
func sameMetrics(a, b gdsiiguard.Metrics) bool {
	a.Runtime, b.Runtime = 0, 0
	return a == b
}

// sequentialReference runs a check's reference computation on the
// sequential router and STA. The parallel paths are bit-identical to the
// sequential ones by construction; running the reference sequentially keeps
// the checks cheap and makes them compare against an independent code path.
// Nothing measured runs while it holds, and the defaults are restored after.
func sequentialReference(f func() error) error {
	route.SetWorkers(1)
	sta.SetWorkers(1)
	defer func() {
		route.SetWorkers(0)
		sta.SetWorkers(0)
	}()
	return f()
}

// accumulate adds the after-before deltas of every series into acc; peak
// gauges keep their maximum instead.
func accumulate(acc, before, after promSnap) {
	for k, v := range after {
		if len(k) > 5 && k[len(k)-5:] == "_peak" {
			acc[k] = max(acc[k], v)
			continue
		}
		acc[k] += v - before[k]
	}
}

// resolvedEnv records the worker counts the program resolves for a design
// of the given size.
func resolvedEnv(r *run, nets, items, rows int) {
	r.env.RouteWorkers = route.ResolvedWorkers(nets)
	r.env.STAWorkers = sta.ResolvedWorkers(items)
	r.env.BandWorkers = core.ResolvedOperatorBandWorkers(rows)
}
