package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"gdsiiguard/internal/benchdesigns"
	"gdsiiguard/internal/core"
	"gdsiiguard/internal/drc"
	"gdsiiguard/internal/layout"
	"gdsiiguard/internal/power"
	"gdsiiguard/internal/route"
	"gdsiiguard/internal/security"
	"gdsiiguard/internal/sta"
)

// soc-eco-session: the interactive design-session regime. Set-up stamps a
// 4×4-tile SoC from the SoC_100k spec and pins its evaluated baseline; then
// one client, closed loop, sends independent tile-local ECOs (up to 48 cell
// relocations in one seeded-random tile) and each is evaluated against the
// pinned baseline through clone → geometry → warm route → delta STA →
// power → security → DRC.
const (
	socTiles       = 4
	socSetups      = 2  // set-ups per run; setup_s is their median
	socECOsPerTile = 16 // distinct move sets generated per logic tile, cycled
	socECOMoves    = 48
	socMaxFanout   = 64 // cells on wider nets (clock trees) are never moved
	socMoveRows    = 2  // a relocation stays within this many rows ...
	socMoveSites   = 32 // ... and this many sites of the cell's old slot
	socCheckSample = 3  // ECOs per run re-evaluated cold and compared
)

// ecoMove relocates one instance (by netlist index) to a row and site.
type ecoMove struct {
	inst      int
	row, site int
}

// ecoInput is one generated ECO request.
type ecoInput struct {
	moves []ecoMove
}

// ecoOut is everything the ECO evaluation reports back.
type ecoOut struct {
	TNS, WNS, PowerMW float64
	ERSites           int
	ERTracks          float64
	DRC               int
	WirelengthDBU     int64
}

// ecoStats are the per-ECO layer counts the traced run reports.
type ecoStats struct {
	warm               bool
	replayed, rerouted int
	delta              bool
	coneInsts          int
}

func runSoC(r *run) error {
	spec, err := benchdesigns.SoCSpecOf("SoC_100k")
	if err != nil {
		return err
	}
	spec.Name = "SoC_eco_session"
	spec.TilesX, spec.TilesY = socTiles, socTiles

	var (
		d                      *benchdesigns.SoCDesign
		base                   *core.Baseline
		setups, setupCPU       []float64
		builds, evals          []float64
		setupBefore, setupDone promSnap
	)
	for i := 0; i < socSetups; i++ {
		trace := fmt.Sprintf("setup-%d", i)
		setupBefore = localProm()
		root := r.tr.begin("setup", trace, 0)
		t0, c0 := time.Now(), cpuTime()
		sp := r.tr.begin("benchdesigns.SoCSpec.Build", trace, root)
		d, err = spec.Build()
		r.tr.end(sp)
		if err != nil {
			return fmt.Errorf("build SoC: %w", err)
		}
		tb := time.Now()
		sp = r.tr.begin("core.EvalBaseline", trace, root)
		base, err = core.EvalBaseline(d.Layout, core.FlowConfig{
			Constraints: d.Cons,
			Activity:    d.Spec.Tile.Activity,
			Seed:        1,
		})
		r.tr.end(sp)
		r.tr.end(root)
		if err != nil {
			return fmt.Errorf("SoC baseline: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		setupCPU = append(setupCPU, (cpuTime() - c0).Seconds())
		builds = append(builds, tb.Sub(t0).Seconds())
		evals = append(evals, time.Since(tb).Seconds())
		setupDone = localProm()
	}
	nl := base.Layout.Netlist
	resolvedEnv(r, len(nl.Nets), len(nl.Insts), base.Layout.NumRows)
	fmt.Fprintf(os.Stderr, "soc: %d cells, %d nets, set-up %.2fs (%.2f CPU-s)\n", len(nl.Insts), len(nl.Nets), median(setups), median(setupCPU))

	inputs, err := genECOs(rand.New(rand.NewSource(r.seed)), base.Layout)
	if err != nil {
		return err
	}

	var (
		lat, cpuLat []float64
		outs        []ecoOut
		done        []ecoInput // the input behind each entry of outs
		replayed    int
		rerouted    int
		warm, delta int
		cone        int
	)
	runtime.GC() // set-up's garbage is not the first ECO's
	start, cpuStart := time.Now(), cpuTime()
	for k := 0; k == 0 || time.Since(start) < r.seconds; k++ {
		in := inputs[k%len(inputs)]
		r.attempted++
		t0, c0 := time.Now(), cpuTime()
		out, st, err := evalECO(r, base, in, fmt.Sprintf("eco-%d", k), false)
		el, cpu := time.Since(t0), cpuTime()-c0
		if err != nil {
			r.failed++
			fmt.Fprintf(os.Stderr, "eco %d: %v\n", k, err)
			continue
		}
		lat = append(lat, ms(el))
		cpuLat = append(cpuLat, ms(cpu))
		outs = append(outs, out)
		done = append(done, in)
		if st.warm {
			warm++
			replayed += st.replayed
			rerouted += st.rerouted
		}
		if st.delta {
			delta++
			cone += st.coneInsts
		}
	}
	loop, loopCPU := time.Since(start).Seconds(), (cpuTime() - cpuStart).Seconds()

	// Checks: a seeded sample of the ECOs, re-evaluated cold (full route,
	// full STA) on the sequential reference path, must match exactly.
	crng := rand.New(rand.NewSource(r.seed ^ 0x5eed))
	for i := 0; i < socCheckSample && len(outs) > 0; i++ {
		k := crng.Intn(len(outs))
		var ref ecoOut
		err := sequentialReference(func() error {
			var err error
			ref, _, err = evalECO(r, base, done[k], fmt.Sprintf("check-%d", k), true)
			return err
		})
		switch {
		case err != nil:
			r.checkFail("eco %d cold re-evaluation: %v", k, err)
		case ref != outs[k]:
			r.checkFail("eco %d: warm/delta %+v != cold %+v", k, outs[k], ref)
		}
	}

	r.set("setup_s", median(setupCPU))
	r.set("bench.setup_wall_s", median(setups))
	if n := len(lat); n > 0 {
		r.set("work_cpu_ms", 1000*loopCPU/float64(n))
	}
	r.set("bench.work_cpu_p50_ms", median(cpuLat))
	r.set("bench.work_p50_ms", median(lat))
	r.set("bench.work_p99_ms", percentile(lat, 99))
	r.set("bench.work_per_s", float64(len(lat))/loop)
	r.samples["ecos"] = len(lat)
	r.samples["setups"] = len(setups)

	// Per-layer: set-up layers from the program's counters over the last
	// set-up, ECO layers from the spans around each timed ECO's calls.
	counterLayers(r, setupBefore, setupDone)
	r.set("benchdesigns.build_s", median(builds))
	r.set("core.baseline_s", median(evals))
	r.set("route.warm_calls", float64(warm))
	if replayed+rerouted > 0 {
		r.set("route.warm_replay_frac", float64(replayed)/float64(replayed+rerouted))
	}
	if n := len(lat); n > 0 {
		r.set("route.warm_decline_frac", float64(n-warm)/float64(n))
	}
	r.set("sta.delta_calls", float64(delta))
	if delta > 0 {
		r.set("sta.cone_frac", float64(cone)/float64(delta)/float64(len(nl.Insts)))
	}
	if r.tr != nil {
		for metric, name := range map[string]string{
			"layout.clone_ms":        "layout.Layout.Clone",
			"route.geometry_ms":      "route.BuildGeometry",
			"route.warm_ms_per_call": "route.Warm",
			"sta.delta_ms_per_call":  "sta.AnalyzeDelta",
			"power.ms_per_call":      "power.Analyze",
			"security.ms_per_call":   "security.Assess",
			"drc.ms_per_call":        "drc.Check",
		} {
			r.set(metric, mean(r.tr.spanTimes(name, "eco-")))
		}
	}
	return nil
}

// genECOs draws socECOsPerTile tile-local move sets per logic tile from
// rng. The tiles take turns in a seeded order, so any prefix of the sets a
// run gets through covers the tiles evenly. Each set is generated on a
// scratch clone of the baseline layout (so its moves are legal in sequence)
// and undone before the next.
func genECOs(rng *rand.Rand, base *layout.Layout) ([]ecoInput, error) {
	l := base.Clone()
	byTile := map[string][]int{}
	var tiles []string
	for i, in := range l.Netlist.Insts {
		if in.Fixed || !l.PlacementOf(in).Placed || len(in.Name) < 7 || in.Name[0] != 't' || in.Name[6] != '/' {
			continue
		}
		huge := false
		for _, c := range in.Conns {
			if c.Net.NumTerms() > socMaxFanout {
				huge = true
				break
			}
		}
		if huge {
			continue
		}
		tile := in.Name[:7]
		if byTile[tile] == nil {
			tiles = append(tiles, tile)
		}
		byTile[tile] = append(byTile[tile], i)
	}
	if len(tiles) == 0 {
		return nil, fmt.Errorf("SoC has no movable tile cells")
	}

	order := rng.Perm(len(tiles))
	out := make([]ecoInput, 0, socECOsPerTile*len(tiles))
	for k := 0; len(out) < cap(out); k++ {
		if k == 10*cap(out) {
			return nil, fmt.Errorf("SoC tiles offer no free slots for ECO moves")
		}
		tile := tiles[order[k%len(tiles)]]
		cand := byTile[tile]
		var eco ecoInput
		var undo []ecoMove
		for _, p := range rng.Perm(len(cand)) {
			if len(eco.moves) == socECOMoves {
				break
			}
			in := l.Netlist.Insts[cand[p]]
			from := l.PlacementOf(in)
			w := in.Master.WidthSites
			// A free slot within a few rows and sites: ECO operators move
			// cells locally, which keeps the change region tile-sized.
			type slot struct{ row, site int }
			var slots []slot
			for r := from.Row - socMoveRows; r <= from.Row+socMoveRows; r++ {
				if r < 0 || r >= l.NumRows {
					continue
				}
				for _, run := range l.FreeRuns(r) {
					lo := max(run.Start, from.Site-socMoveSites)
					hi := min(run.Start+run.Len, from.Site+w+socMoveSites)
					if hi-lo >= w {
						slots = append(slots, slot{r, lo + rng.Intn(hi-lo-w+1)})
					}
				}
			}
			if len(slots) == 0 {
				continue
			}
			s := slots[rng.Intn(len(slots))]
			l.Unplace(in)
			if err := l.Place(in, s.row, s.site); err != nil {
				return nil, fmt.Errorf("generate ECO move %s: %w", in.Name, err)
			}
			eco.moves = append(eco.moves, ecoMove{cand[p], s.row, s.site})
			undo = append(undo, ecoMove{cand[p], from.Row, from.Site})
		}
		for i := len(undo) - 1; i >= 0; i-- {
			in := l.Netlist.Insts[undo[i].inst]
			l.Unplace(in)
			if err := l.Place(in, undo[i].row, undo[i].site); err != nil {
				return nil, fmt.Errorf("undo ECO move %s: %w", in.Name, err)
			}
		}
		if len(eco.moves) > 0 {
			out = append(out, eco)
		}
	}
	return out, nil
}

// evalECO applies one ECO to a clone of the pinned baseline and evaluates
// it. The session path (cold false) warm-starts routing from the baseline
// donor and delta-analyzes timing, falling back to a cold route or full STA
// only when the program declines; the check path (cold true) routes and
// analyzes from scratch.
func evalECO(r *run, base *core.Baseline, eco ecoInput, trace string, cold bool) (ecoOut, ecoStats, error) {
	var (
		out ecoOut
		st  ecoStats
		err error
	)
	tr := r.tr
	root := tr.begin("eco", trace, 0)
	defer tr.end(root)
	cfg := base.Config

	sp := tr.begin("layout.Layout.Clone", trace, root)
	l := base.Layout.Clone()
	tr.end(sp)

	sp = tr.begin("layout.Place", trace, root)
	dirty := make([]bool, len(l.Netlist.Nets))
	for _, m := range eco.moves {
		in := l.Netlist.Insts[m.inst]
		l.Unplace(in)
		if err := l.Place(in, m.row, m.site); err != nil {
			tr.end(sp)
			return out, st, fmt.Errorf("place %s: %w", in.Name, err)
		}
		for _, c := range in.Conns {
			dirty[c.Net.ID] = true
		}
	}
	tr.end(sp)

	var routes *route.Result
	var changed []bool
	if !cold {
		sp = tr.begin("route.BuildGeometry", trace, root)
		geo := route.BuildGeometry(l)
		tr.end(sp)
		sp = tr.begin("route.Warm", trace, root)
		var wst route.WarmStats
		routes, wst, err = route.Warm(l, cfg.RouteOpts, geo, base.Routes, dirty)
		tr.end(sp)
		if err != nil {
			return out, st, fmt.Errorf("warm route: %w", err)
		}
		if routes != nil {
			st.warm, st.replayed, st.rerouted = true, wst.Replayed, wst.Rerouted
			// The STA change mask is the warm route's ChangedNets plus the
			// dirty nets: a moved terminal shifts a net's estimated RC even
			// where its route record is unchanged.
			changed = wst.ChangedNets
			for id, dt := range dirty {
				changed[id] = changed[id] || dt
			}
		}
	}
	if routes == nil {
		sp = tr.begin("route.Route", trace, root)
		routes, err = route.Route(l, cfg.RouteOpts)
		tr.end(sp)
		if err != nil {
			return out, st, fmt.Errorf("cold route: %w", err)
		}
	}

	staOpt := sta.Options{Constraints: cfg.Constraints, Routes: routes}
	var timing *sta.Result
	if changed != nil {
		sp = tr.begin("sta.AnalyzeDelta", trace, root)
		var ds sta.DeltaStats
		timing, ds, err = sta.AnalyzeDelta(l, staOpt, base.Timing, changed)
		tr.end(sp)
		if err != nil {
			return out, st, fmt.Errorf("delta STA: %w", err)
		}
		if timing != nil {
			st.delta, st.coneInsts = true, ds.ConeInsts
		}
	}
	if timing == nil {
		sp = tr.begin("sta.Analyze", trace, root)
		timing, err = sta.Analyze(l, staOpt)
		tr.end(sp)
		if err != nil {
			return out, st, fmt.Errorf("STA: %w", err)
		}
	}

	sp = tr.begin("power.Analyze", trace, root)
	pw, err := power.Analyze(l, power.Options{Constraints: cfg.Constraints, Routes: routes, Activity: cfg.Activity})
	tr.end(sp)
	if err != nil {
		return out, st, fmt.Errorf("power: %w", err)
	}
	sp = tr.begin("security.Assess", trace, root)
	as, err := security.Assess(l, routes, timing, cfg.Security)
	tr.end(sp)
	if err != nil {
		return out, st, fmt.Errorf("security: %w", err)
	}
	sp = tr.begin("drc.Check", trace, root)
	checks := drc.Check(l, routes)
	tr.end(sp)

	out = ecoOut{
		TNS: timing.TNS, WNS: timing.WNS, PowerMW: pw.TotalMW,
		ERSites: as.ERSites, ERTracks: as.ERTracks,
		DRC: checks.Violations, WirelengthDBU: routes.TotalWL,
	}
	return out, st, nil
}
