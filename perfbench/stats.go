package main

import (
	"bufio"
	"bytes"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"gdsiiguard/internal/obs"
)

// percentile is the nearest-rank p-th percentile (0 < p ≤ 100) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[max(0, min(k, len(s)-1))]
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median is the middle value of xs (mean of the middle two for even n).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// promSnap is one reading of the program's Prometheus exposition, keyed by
// series as printed: `name{label="v"}` (histograms as name_sum / name_count).
type promSnap map[string]float64

func parseProm(r io.Reader) (promSnap, error) {
	out := promSnap{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// localProm reads this process's own counters through the same exposition
// guardd serves, so in-process and served layers are read identically.
func localProm() promSnap {
	var buf bytes.Buffer
	_ = obs.Default().WritePrometheus(&buf) // a bytes.Buffer write cannot fail
	s, _ := parseProm(&buf)
	return s
}

// counterLayers fills the per-layer metrics that the program's own counters
// carry, from before/after readings around the measured window: flow-stage,
// route and STA histograms, the warm-decline counter and the nsga2 gauges.
func counterLayers(r *run, before, after promSnap) {
	d := func(k string) float64 { return after[k] - before[k] }
	perCall := func(fam, labels string) (calls, ms float64) {
		n := d(fam + "_count" + labels)
		if n == 0 {
			return 0, 0
		}
		return n, 1000 * d(fam+"_sum"+labels) / n
	}
	stage := func(s string) string { return `{stage="` + s + `"}` }

	// gdsiiguard_route_seconds times cold and warm calls alike; the delta
	// route counter says how many of them were warm.
	warm := d(`gdsiiguard_delta_route_total{mode="warm"}`)
	if n, ms := perCall("gdsiiguard_route_seconds", ""); warm == 0 {
		r.set("route.cold_calls", n)
		r.set("route.cold_ms_per_call", ms)
	}
	var declines float64
	for _, reason := range []string{"no_donor", "dirty_frac", "victims", "netlist", "ndr", "grid", "layers"} {
		v := d(`gdsiiguard_route_warm_decline_total{reason="` + reason + `"}`)
		r.set("route.warm_decline."+reason, v)
		declines += v
	}
	if routeStages := d(`gdsiiguard_delta_route_total{mode="warm"}`) + d(`gdsiiguard_delta_route_total{mode="cold"}`); routeStages > 0 {
		r.set("route.warm_calls", warm)
		r.set("route.warm_decline_frac", declines/routeStages)
		if replayed, rerouted := d(`gdsiiguard_delta_route_nets_total{kind="replayed"}`), d(`gdsiiguard_delta_route_nets_total{kind="rerouted"}`); replayed+rerouted > 0 && warm > 0 {
			r.set("route.warm_replay_frac", replayed/(replayed+rerouted))
		}
	}
	n, ms := perCall("gdsiiguard_sta_seconds", "")
	r.set("sta.full_calls", n)
	r.set("sta.full_ms_per_call", ms)
	n, ms = perCall("gdsiiguard_sta_delta_seconds", "")
	r.set("sta.delta_calls", n)
	r.set("sta.delta_ms_per_call", ms)

	for _, s := range []string{"operator", "route", "timing", "power", "security", "drc"} {
		r.set("core.stage."+s+"_s", d("gdsiiguard_flow_stage_seconds_sum"+stage(s)))
	}
	r.set("core.operator_s", r.vals["core.stage.operator_s"])
	for _, s := range []string{"power", "security", "drc"} {
		_, ms := perCall("gdsiiguard_flow_stage_seconds", stage(s))
		r.set(s+".ms_per_call", ms)
	}

	r.set("nsga2.evals", d(`gdsiiguard_nsga2_evaluations_total{result="fresh"}`))
	r.set("nsga2.cache_hits", d(`gdsiiguard_nsga2_evaluations_total{result="cache_hit"}`))
	r.set("nsga2.inflight_peak", after["gdsiiguard_nsga2_eval_budget_inflight_peak"])
}

// stageSum is the total flow-stage time between two readings.
func stageSum(before, after promSnap, stages ...string) float64 {
	var s float64
	for _, st := range stages {
		k := `gdsiiguard_flow_stage_seconds_sum{stage="` + st + `"}`
		s += after[k] - before[k]
	}
	return s
}

// hypervolume is the area dominated by a (security, TNS) front — security
// minimized, TNS (≤ 0 ps) maximized — inside the box bounded by the
// reference point. Points outside the box contribute nothing.
func hypervolume(sec, tns []float64, refSec, refTNS float64) float64 {
	type pt struct{ s, t float64 }
	pts := make([]pt, 0, len(sec))
	for i := range sec {
		if sec[i] < refSec && tns[i] > refTNS {
			pts = append(pts, pt{sec[i], tns[i]})
		}
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].s < pts[j].s })
	// Sweep in ascending security; each point that improves on the best TNS
	// seen so far adds the strip between that TNS and its own.
	var hv float64
	bestT := refTNS
	for _, p := range pts {
		if p.t > bestT {
			hv += (refSec - p.s) * (p.t - bestT)
			bestT = p.t
		}
	}
	return hv
}
