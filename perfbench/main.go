// Command perfbench is the repository benchmark. It runs one named workload
// at the shipped defaults (no worker pinning: GOMAXPROCS, route/STA workers
// and pool sizes are whatever the program resolves), checks the program's
// outputs outside the timed regions, and prints one JSON result line:
//
//	perfbench -workload <name> -seed <n> -seconds <s> -trace <0|1>
//
// With -trace 0 the result carries the end-to-end metrics; with -trace 1 it
// records spans around every layer call the benchmark makes and carries the
// per-layer metrics instead. Each run also writes a full report (environment,
// every metric, sample counts, per-span self times and, when traced, the
// spans themselves) under -out.
//
//	perfbench compare <a.json> <b.json>
//
// diffs two reports and refuses (exit 3) when their environments differ.
// run.sh builds the benchmark and guardd and supplies -guardd and -out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricDef is one reported metric. The names, units and directions match
// BENCHMARK.json; e2e metrics print with -trace 0, the rest with -trace 1.
type metricDef struct {
	Name, Unit string
	E2E        bool
}

var metricDefs = []metricDef{
	// End to end: every workload reports every one of these.
	{"setup_s", "s", true},
	{"peak_rss_mb", "MB", true},
	{"success_frac", "fraction", true},
	{"work_cpu_ms", "ms", true},

	// route
	{"route.cold_calls", "count", false},
	{"route.cold_ms_per_call", "ms", false},
	{"route.warm_calls", "count", false},
	{"route.warm_ms_per_call", "ms", false},
	{"route.warm_replay_frac", "fraction", false},
	{"route.geometry_ms", "ms", false},
	{"route.warm_decline_frac", "fraction", false},
	{"route.warm_decline.no_donor", "count", false},
	{"route.warm_decline.dirty_frac", "count", false},
	{"route.warm_decline.victims", "count", false},
	{"route.warm_decline.netlist", "count", false},
	{"route.warm_decline.ndr", "count", false},
	{"route.warm_decline.grid", "count", false},
	{"route.warm_decline.layers", "count", false},
	// sta
	{"sta.full_calls", "count", false},
	{"sta.full_ms_per_call", "ms", false},
	{"sta.delta_calls", "count", false},
	{"sta.delta_ms_per_call", "ms", false},
	{"sta.cone_frac", "fraction", false},
	// core
	{"core.operator_s", "s", false},
	{"core.op_reuse_frac", "fraction", false},
	{"core.stage.operator_s", "s", false},
	{"core.stage.route_s", "s", false},
	{"core.stage.timing_s", "s", false},
	{"core.stage.power_s", "s", false},
	{"core.stage.security_s", "s", false},
	{"core.stage.drc_s", "s", false},
	{"core.baseline_s", "s", false},
	// power, security, drc
	{"power.ms_per_call", "ms", false},
	{"security.ms_per_call", "ms", false},
	{"drc.ms_per_call", "ms", false},
	// layout, benchdesigns
	{"layout.clone_ms", "ms", false},
	{"benchdesigns.build_s", "s", false},
	// nsga2
	{"nsga2.evals", "count", false},
	{"nsga2.cache_hits", "count", false},
	{"nsga2.inflight_peak", "count", false},
	{"nsga2.front_hypervolume", "ps", false},
	{"nsga2.explore_s", "s", false},
	// service (guardd)
	{"service.queue_wait_p50_s", "s", false},
	{"service.queue_wait_p99_s", "s", false},
	{"service.exec_p50_s", "s", false},
	{"service.cache_hit_frac", "fraction", false},
	{"service.workers_busy_peak", "count", false},
	// gdsii
	{"gdsii.download_ms", "ms", false},
	{"gdsii.mb_per_s", "MB/s", false},
	// the benchmark itself
	{"bench.setup_wall_s", "s", false},
	{"bench.work_cpu_p50_ms", "ms", false},
	{"bench.work_p50_ms", "ms", false},
	{"bench.work_p99_ms", "ms", false},
	{"bench.work_per_s", "1/s", false},
	{"bench.steal_frac", "fraction", false},
	{"bench.fail_frac", "fraction", false},
	{"bench.trace_overhead_frac", "fraction", false},
}

// reportDefs are metrics only the ungated guardd-harden-traffic workload
// produces. They go to the report file, never to the result line.
var reportDefs = []metricDef{
	{"loadgen.lag_p99_ms", "ms", false},
	{"bench.open_p50_ms", "ms", false},
	{"bench.open_p99_ms", "ms", false},
}

// envRecord is what must match before two results may be compared. Worker
// counts are recorded as the program resolves them, never pinned.
type envRecord struct {
	NumCPU       int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	GoVersion    string `json:"go_version"`
	RouteWorkers int    `json:"route_workers"`
	STAWorkers   int    `json:"sta_workers"`
	BandWorkers  int    `json:"band_workers"`
	Workload     string `json:"workload"`
	Seed         int64  `json:"seed"`
}

// run is the state of one benchmark invocation.
type run struct {
	workload string
	seed     int64
	seconds  time.Duration
	guardd   string
	tr       *tracer // nil unless -trace 1

	env       envRecord
	vals      map[string]float64
	samples   map[string]int // sample count behind each percentile metric
	attempted int
	failed    int
	checkErrs []string
}

func (r *run) set(name string, v float64) { r.vals[name] = v }

// checkFail records one failed output check; it counts as a failed
// operation and makes the run incorrect.
func (r *run) checkFail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
	r.checkErrs = append(r.checkErrs, msg)
	r.failed++
}

var workloads = map[string]func(*run) error{
	"explore-congested":     runExplore,
	"soc-eco-session":       runSoC,
	"guardd-harden-traffic": runGuardd,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compare(os.Args[2:]))
	}
	var (
		workload = flag.String("workload", "", "workload name")
		seed     = flag.Int64("seed", 1, "workload seed; every input is generated from it")
		seconds  = flag.Float64("seconds", 10, "measurement time per run")
		trace    = flag.Int("trace", 0, "1: record spans and report per-layer metrics")
		guardd   = flag.String("guardd", "", "guardd binary (guardd-harden-traffic)")
		out      = flag.String("out", "", "directory for the full per-run report (empty: none)")
	)
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (explore-congested, soc-eco-session, guardd-harden-traffic), -seconds > 0, -trace 0|1\n")
		os.Exit(2)
	}
	r := &run{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		guardd:   *guardd,
		vals:     map[string]float64{},
		samples:  map[string]int{},
	}
	if *trace == 1 {
		r.tr = newTracer()
	}
	r.env = envRecord{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Workload:   *workload,
		Seed:       *seed,
	}
	steal0 := hostSteal()
	if err := fn(r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	if r.attempted < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: %s attempted no operations\n", *workload)
		os.Exit(1)
	}
	// Several checks can fail on one operation; an operation fails once.
	r.failed = min(r.failed, r.attempted)
	failFrac := float64(r.failed) / float64(r.attempted)
	r.set("success_frac", 1-failFrac)
	r.set("bench.fail_frac", failFrac)
	r.set("bench.steal_frac", hostSteal().fracSince(steal0))
	if _, ok := r.vals["peak_rss_mb"]; !ok {
		r.set("peak_rss_mb", selfPeakRSSMB())
	}
	if r.tr != nil {
		r.set("bench.trace_overhead_frac", r.tr.overheadFrac())
	}
	if *out != "" {
		if err := r.writeReport(*out, *trace); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: report: %v\n", err)
			os.Exit(1)
		}
	}
	line, err := json.Marshal(r.result(*trace == 1))
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result builds the printed line: the end-to-end metrics, or with traced
// the per-layer ones. A per-layer metric the workload does not exercise
// reads 0.
func (r *run) result(traced bool) result {
	res := result{
		Correct:   len(r.checkErrs) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range metricDefs {
		if d.E2E != traced {
			res.Metrics[d.Name] = metricValue{r.vals[d.Name], d.Unit}
		}
	}
	return res
}

// report is the full per-run record written under -out.
type report struct {
	Env       envRecord              `json:"env"`
	Seconds   float64                `json:"seconds"`
	Trace     int                    `json:"trace"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	CheckErrs []string               `json:"check_errors,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	Samples   map[string]int         `json:"samples"`
	Layers    []layerTime            `json:"layers,omitempty"`
	Spans     []span                 `json:"spans,omitempty"`
}

func (r *run) writeReport(dir string, trace int) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	rep := report{
		Env:       r.env,
		Seconds:   r.seconds.Seconds(),
		Trace:     trace,
		Correct:   len(r.checkErrs) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		CheckErrs: r.checkErrs,
		Metrics:   map[string]metricValue{},
		Samples:   r.samples,
	}
	for _, d := range append(metricDefs[:len(metricDefs):len(metricDefs)], reportDefs...) {
		if v, ok := r.vals[d.Name]; ok {
			rep.Metrics[d.Name] = metricValue{v, d.Unit}
		}
	}
	if r.tr != nil {
		rep.Layers = r.tr.layers()
		rep.Spans = r.tr.spans
	}
	blob, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", r.workload, r.seed, trace)
	return os.WriteFile(filepath.Join(dir, name), blob, 0o644)
}

// compare prints the metric deltas between two reports. Results measured
// in different environments (CPU count, GOMAXPROCS, Go version, resolved
// worker counts, workload) are refused: the router's cost depends on its
// worker count, so such a diff would not say anything about the code.
func compare(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare <a.json> <b.json>")
		return 2
	}
	var reps [2]report
	for i, p := range args {
		blob, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(blob, &reps[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", p, err)
			return 2
		}
	}
	a, b := reps[0].Env, reps[1].Env
	a.Seed, b.Seed = 0, 0
	if a != b {
		fmt.Fprintf(os.Stderr, "perfbench: refusing to compare: environments differ\n  %s: %+v\n  %s: %+v\n",
			args[0], reps[0].Env, args[1], reps[1].Env)
		return 3
	}
	names := make([]string, 0, len(reps[0].Metrics))
	for n := range reps[0].Metrics {
		if _, ok := reps[1].Metrics[n]; ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		va, vb := reps[0].Metrics[n], reps[1].Metrics[n]
		delta := ""
		if va.Value != 0 {
			delta = fmt.Sprintf("%+.1f%%", 100*(vb.Value-va.Value)/va.Value)
		}
		fmt.Printf("%-34s %14.6g %14.6g %-8s %s\n", n, va.Value, vb.Value, va.Unit, delta)
	}
	return 0
}

// selfPeakRSSMB is this process's peak resident set size.
func selfPeakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuTime is this process's CPU time so far: user plus system, every
// thread. With paravirtual steal accounting (CONFIG_PARAVIRT_TIME_ACCOUNTING)
// the kernel leaves out the time the host gave the VM's CPUs to someone
// else, so unlike wall time it does not count the waits of a busy host;
// it still grows when the host runs the VM's instructions more slowly.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procCPUTime reads another process's CPU time (user plus system) from
// /proc/<pid>/stat, in clock ticks of 10 ms (USER_HZ is 100 on Linux).
func procCPUTime(pid int) (time.Duration, error) {
	blob, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; the fields after it are fixed.
	s := string(blob)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	var utime, stime int64
	if _, err := fmt.Sscan(f[11], &utime); err != nil {
		return 0, err
	}
	if _, err := fmt.Sscan(f[12], &stime); err != nil {
		return 0, err
	}
	return time.Duration(utime+stime) * 10 * time.Millisecond, nil
}

// stealReading is the machine-wide steal and total CPU time, in ticks,
// from the first line of /proc/stat.
type stealReading struct{ steal, total int64 }

func hostSteal() stealReading {
	blob, err := os.ReadFile("/proc/stat")
	if err != nil {
		return stealReading{}
	}
	line, _, _ := strings.Cut(string(blob), "\n")
	var rd stealReading
	// user nice system idle iowait irq softirq steal; guest time that
	// follows is already counted in user.
	for i, f := range strings.Fields(line)[1:] {
		if i == 8 {
			break
		}
		var v int64
		fmt.Sscan(f, &v)
		rd.total += v
		if i == 7 {
			rd.steal = v
		}
	}
	return rd
}

// fracSince is the share of the machine's CPU time since before that the
// host stole from it (0 when /proc/stat says nothing).
func (now stealReading) fracSince(before stealReading) float64 {
	if dt := now.total - before.total; dt > 0 {
		return float64(now.steal-before.steal) / float64(dt)
	}
	return 0
}

// procPeakRSSMB reads another process's peak resident set size (VmHWM).
func procPeakRSSMB(pid int) (float64, error) {
	blob, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
