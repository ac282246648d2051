package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"sort"
	"sync"
	"syscall"
	"time"

	"gdsiiguard"
	"gdsiiguard/internal/benchdesigns"
	"gdsiiguard/internal/gdsii"
	"gdsiiguard/internal/opencell45"
)

// guardd-harden-traffic: the serving path. It is runnable but not in
// BENCHMARK.json: at today's job cost a run holds too few jobs for its
// figures to be steady (see NOTES.md). A guardd runs on loopback with
// its default worker pool and queue; one load generator with at most nproc
// connections sends harden jobs with seeded FlowParams on a PRESENT /
// openMSP430_1 mix and downloads each job's GDSII. Each job is timed from
// its send (for the open loop: its scheduled send) until its GDSII is fully
// received. Two phases per run:
//   - open loop: guarddOpenJobs seeded Poisson arrivals at guarddOpenRate,
//     about half of the closed-loop throughput when the benchmark was
//     defined. It measures queueing and the generator's lag; with a handful
//     of jobs its percentiles are reported per layer, not gated;
//   - closed loop: guarddConns clients each send their next job as soon as
//     the previous GDSII arrives, for guarddClosedFactor × -seconds. The
//     pool never idles, so the completion rate is the rate the server
//     sustains without a growing backlog (bench.work_per_s), and the median
//     job latency is the one a saturated server gives (bench.work_p50_ms).
const (
	guarddSetups       = 2   // server starts per run; setup_s is their median
	guarddOpenRate     = 0.5 // jobs/s
	guarddOpenJobs     = 6
	guarddClosedFactor = 2.0
	guarddDeck         = 64   // closed-loop inputs drawn per run; a phase uses fewer
	guarddPresentFrac  = 0.75 // share of PRESENT jobs; the rest are openMSP430_1
	guarddCheckSample  = 2    // jobs per run re-run through a direct Design.Harden
	guarddPoll         = 25 * time.Millisecond
	guarddConns        = 2 // client connections and closed-loop clients (nproc)
)

var guarddDesigns = []string{"PRESENT", "openMSP430_1"}

// jobInput is one generated harden request, with its send offset from the
// start of the open-loop phase.
type jobInput struct {
	Design string
	Params gdsiiguard.FlowParams
	At     time.Duration
}

// jobOutcome is what the client observed for one job.
type jobOutcome struct {
	in        jobInput
	err       error
	latency   time.Duration // (scheduled) send → GDSII received
	lag       time.Duration // actual send − scheduled send
	queueWait time.Duration
	exec      time.Duration
	download  time.Duration
	gds       []byte
	hardened  *metricsJSON
}

// metricsJSON mirrors guardd's metrics object.
type metricsJSON struct {
	Security float64 `json:"security"`
	ERSites  int     `json:"er_sites"`
	ERTracks float64 `json:"er_tracks"`
	TNS      float64 `json:"tns_ps"`
	WNS      float64 `json:"wns_ps"`
	PowerMW  float64 `json:"power_mw"`
	DRC      int     `json:"drc"`
}

type jobJSON struct {
	ID        string       `json:"id"`
	State     string       `json:"state"`
	Error     string       `json:"error"`
	Submitted time.Time    `json:"submitted"`
	Started   time.Time    `json:"started"`
	Finished  time.Time    `json:"finished"`
	Hardened  *metricsJSON `json:"hardened"`
}

// server is one guardd subprocess.
type server struct {
	cmd     *exec.Cmd
	base    string
	http    *http.Client
	done    chan struct{} // closed once the process has exited
	waitErr error         // the process's exit status, set before done closes
}

func runGuardd(r *run) error {
	if r.guardd == "" {
		return fmt.Errorf("-guardd names no binary")
	}
	// Every input is drawn from the seed before the first server starts.
	rng := rand.New(rand.NewSource(r.seed))
	numLayers := opencell45.MustLoad().NumLayers()
	open := genJobs(rng, guarddOpenJobs, guarddOpenRate, numLayers)
	closed := genJobs(rng, guarddDeck, 0, numLayers)
	// The closed loop opens with one openMSP430_1 job per client, so every
	// run's peak memory includes the two largest jobs running together.
	for i, j := 0, 0; i < guarddConns; i++ {
		for closed[j].Design != guarddDesigns[1] {
			j++
		}
		closed[i], closed[j] = closed[j], closed[i]
		j++
	}

	var (
		setups, setupCPU []float64
		srv              *server
		err              error
	)
	for i := 0; i < guarddSetups; i++ {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return err
			}
		}
		sp := r.tr.begin("setup", fmt.Sprintf("setup-%d", i), 0)
		t0 := time.Now()
		srv, err = startServer(r.guardd)
		if err == nil {
			err = srv.fillCache()
		}
		r.tr.end(sp)
		if err != nil {
			if srv != nil {
				srv.stop()
			}
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		// A fresh server: all the CPU time it has used is set-up.
		cpu, err := procCPUTime(srv.cmd.Process.Pid)
		if err != nil {
			srv.stop()
			return err
		}
		setupCPU = append(setupCPU, cpu.Seconds())
	}
	defer srv.stop()
	afterSetup, err := srv.metrics()
	if err != nil {
		return err
	}

	opened := srv.openLoop(r, open)
	if err := srv.drained(); err != nil {
		return err
	}
	cpu0, err := procCPUTime(srv.cmd.Process.Pid)
	if err != nil {
		return err
	}
	closedOut, closedFor := srv.closedLoop(r, closed, time.Duration(guarddClosedFactor*float64(r.seconds)))
	cpu1, err := procCPUTime(srv.cmd.Process.Pid)
	if err != nil {
		return err
	}
	after, err := srv.metrics()
	if err != nil {
		return err
	}
	rss, err := procPeakRSSMB(srv.cmd.Process.Pid)
	if err != nil {
		return err
	}
	if err := srv.stop(); err != nil {
		return err
	}
	all := append(append([]jobOutcome(nil), opened...), closedOut...)
	r.attempted += len(all)
	for _, o := range all {
		if o.err != nil {
			r.failed++
			fmt.Fprintf(os.Stderr, "guardd job (%s): %v\n", o.in.Design, o.err)
		}
	}

	var closedLat, openLat, lag []float64
	for _, o := range closedOut {
		if o.err == nil {
			closedLat = append(closedLat, ms(o.latency))
		}
	}
	for _, o := range opened {
		if o.err == nil {
			openLat = append(openLat, ms(o.latency))
		}
		lag = append(lag, ms(o.lag))
	}
	r.set("setup_s", median(setupCPU))
	r.set("bench.setup_wall_s", median(setups))
	r.set("peak_rss_mb", rss)
	// guardd's CPU time is read per phase, not per job (jobs overlap).
	if n := len(closedLat); n > 0 {
		r.set("work_cpu_ms", ms(cpu1-cpu0)/float64(n))
	}
	r.set("bench.work_p50_ms", median(closedLat))
	r.set("bench.work_per_s", float64(len(closedLat))/closedFor.Seconds())
	r.set("bench.work_p99_ms", percentile(closedLat, 99))
	r.set("bench.open_p50_ms", median(openLat))
	r.set("bench.open_p99_ms", percentile(openLat, 99))
	r.set("loadgen.lag_p99_ms", percentile(lag, 99))
	r.samples["closed_jobs"] = len(closedLat)
	r.samples["open_jobs"] = len(openLat)
	r.samples["setups"] = len(setups)

	counterLayers(r, afterSetup, after)
	r.set("core.baseline_s", stageSum(promSnap{}, afterSetup, "route", "timing", "power", "security", "drc"))
	serviceLayers(r, afterSetup, after, all)

	cells, err := designShapes(r)
	if err != nil {
		return err
	}
	checkJobs(r, rand.New(rand.NewSource(r.seed^0x5eed)), checkGDSII(r, all, cells))
	return nil
}

// serviceLayers fills the service and gdsii layers from the jobs' server
// timestamps, the client's downloads and guardd's counters between two
// /metrics readings.
func serviceLayers(r *run, before, after promSnap, jobs []jobOutcome) {
	var qw, ex, dl []float64
	var bytesDown int
	for _, o := range jobs {
		if o.err == nil {
			qw = append(qw, o.queueWait.Seconds())
			ex = append(ex, o.exec.Seconds())
			dl = append(dl, ms(o.download))
			bytesDown += len(o.gds)
		}
	}
	r.set("service.queue_wait_p50_s", median(qw))
	r.set("service.queue_wait_p99_s", percentile(qw, 99))
	r.set("service.exec_p50_s", median(ex))
	hit, miss := `gdsiiguard_design_cache_lookups_total{result="hit"}`, `gdsiiguard_design_cache_lookups_total{result="miss"}`
	if hits, misses := after[hit]-before[hit], after[miss]-before[miss]; hits+misses > 0 {
		r.set("service.cache_hit_frac", hits/(hits+misses))
	}
	r.set("service.workers_busy_peak", after["gdsiiguard_service_workers_busy_peak"])
	r.set("gdsii.download_ms", mean(dl))
	if total := mean(dl) * float64(len(dl)); total > 0 {
		r.set("gdsii.mb_per_s", float64(bytesDown)/(1<<20)/(total/1000))
	}
}

// openLoop sends the jobs in order on their schedule from one sender,
// follows each sent job to its GDSII concurrently, and returns every
// outcome.
func (s *server) openLoop(r *run, jobs []jobInput) []jobOutcome {
	out := make([]jobOutcome, len(jobs))
	t0 := time.Now()
	var wg sync.WaitGroup
	for i, in := range jobs {
		due := t0.Add(in.At)
		time.Sleep(time.Until(due))
		o := &out[i]
		o.lag = time.Since(due)
		trace := fmt.Sprintf("open-%d", i)
		root := r.tr.begin("job", trace, 0)
		id, err := s.send(r, trace, root, in, o)
		if err != nil {
			r.tr.end(root)
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer r.tr.end(root)
			s.follow(r, trace, root, id, due, o)
		}()
	}
	wg.Wait()
	return out
}

// closedLoop runs guarddConns clients that each send their next job as
// soon as the previous one's GDSII arrived, until d has passed. It returns
// the outcomes and the time until the last job finished.
func (s *server) closedLoop(r *run, jobs []jobInput, d time.Duration) ([]jobOutcome, time.Duration) {
	out := make([]jobOutcome, len(jobs))
	t0 := time.Now()
	var (
		mu   sync.Mutex
		next int
		wg   sync.WaitGroup
	)
	for c := 0; c < guarddConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(t0) < d {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(jobs) {
					return
				}
				o := &out[i]
				trace := fmt.Sprintf("closed-%d", i)
				root := r.tr.begin("job", trace, 0)
				sent := time.Now()
				if id, err := s.send(r, trace, root, jobs[i], o); err == nil {
					s.follow(r, trace, root, id, sent, o)
				}
				r.tr.end(root)
			}
		}()
	}
	wg.Wait()
	return out[:min(next, len(jobs))], time.Since(t0)
}

// send submits one harden job and returns its ID; a refusal is recorded in
// o.
func (s *server) send(r *run, trace string, root int, in jobInput, o *jobOutcome) (string, error) {
	o.in = in
	sp := r.tr.begin("guardd.submit", trace, root)
	defer r.tr.end(sp)
	id, err := s.submit(map[string]any{
		"kind":      "harden",
		"benchmark": in.Design,
		"params": map[string]any{
			"op": in.Params.Op, "lda_grid_n": in.Params.LDAGridN,
			"lda_iters": in.Params.LDAIters, "scale_m": in.Params.ScaleM,
		},
	})
	o.err = err
	return id, err
}

// follow polls one sent job until it is done and downloads its GDSII; the
// job's latency runs from due.
func (s *server) follow(r *run, trace string, root int, id string, due time.Time, o *jobOutcome) {
	sp := r.tr.begin("guardd.job", trace, root)
	j, err := s.wait(id)
	r.tr.end(sp)
	if err != nil {
		o.err = err
		return
	}
	o.queueWait = j.Started.Sub(j.Submitted)
	o.exec = j.Finished.Sub(j.Started)
	o.hardened = j.Hardened

	sp = r.tr.begin("guardd.gdsii", trace, root)
	d0 := time.Now()
	o.gds, err = s.get("/v1/jobs/" + id + "/gdsii")
	o.download = time.Since(d0)
	r.tr.end(sp)
	if err != nil {
		o.err = fmt.Errorf("gdsii download: %w", err)
		return
	}
	o.latency = time.Since(due)
}

// designShapes builds the served designs for their cell counts (what each
// GDSII must hold) and records the worker counts resolved for them.
func designShapes(r *run) (map[string]int, error) {
	cells := map[string]int{}
	for _, name := range guarddDesigns {
		d, err := benchdesigns.Build(name)
		if err != nil {
			return nil, err
		}
		n := 0
		for _, in := range d.Layout.Netlist.Insts {
			if d.Layout.PlacementOf(in).Placed {
				n++
			}
		}
		cells[name] = n
		resolvedEnv(r, len(d.Layout.Netlist.Nets), len(d.Layout.Netlist.Insts), d.Layout.NumRows)
	}
	return cells, nil
}

// genJobs draws n harden requests. Every parameter is drawn from a
// balanced deck — the PRESENT / openMSP430_1 and CS / LDA shares are fixed,
// and each ScaleM level, LDA grid and LDA iteration count comes up equally
// often — so seeds differ in which job gets what and when, not in how much
// work a run holds. rate > 0 places the sends as a Poisson process
// conditioned on n arrivals in n/rate seconds (sorted uniform times); 0
// sends them all at once.
func genJobs(rng *rand.Rand, n int, rate float64, numLayers int) []jobInput {
	nPresent := int(math.Round(guarddPresentFrac * float64(n)))
	designs := rng.Perm(n)
	ops := rng.Perm(n)
	grids := deck(rng, n, []int{2, 4, 8, 16, 32})
	iters := deck(rng, n, []int{1, 2, 3})
	scales := make([][]float64, numLayers)
	for k := range scales {
		scales[k] = deck(rng, n, []float64{1.0, 1.2, 1.5})
	}
	jobs := make([]jobInput, n)
	for i := range jobs {
		j := &jobs[i]
		j.Design = guarddDesigns[0]
		if designs[i] >= nPresent {
			j.Design = guarddDesigns[1]
		}
		j.Params.Op = gdsiiguard.CellShift
		if ops[i]%2 == 1 {
			j.Params.Op = gdsiiguard.LocalDensityAdjust
			j.Params.LDAGridN, j.Params.LDAIters = grids[i], iters[i]
		}
		j.Params.ScaleM = make([]float64, numLayers)
		for k := range j.Params.ScaleM {
			j.Params.ScaleM[k] = scales[k][i]
		}
	}
	if rate > 0 {
		at := make([]float64, n)
		for i := range at {
			at[i] = rng.Float64() * float64(n) / rate
		}
		sort.Float64s(at)
		for i := range jobs {
			jobs[i].At = time.Duration(at[i] * float64(time.Second))
		}
	}
	return jobs
}

// deck returns n draws that cycle through vals in a shuffled order, so every
// value comes up n/len(vals) times (±1).
func deck[T any](rng *rand.Rand, n int, vals []T) []T {
	out := make([]T, n)
	for i, p := range rng.Perm(n) {
		out[p] = vals[i%len(vals)]
	}
	return out
}

// startServer starts guardd on a free loopback port and waits until it is
// ready.
func startServer(bin string) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()

	cmd := exec.Command(bin, "-addr", addr, "-log-level", "warn")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start guardd: %w", err)
	}
	s := &server{
		cmd:  cmd,
		base: "http://" + addr,
		http: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     guarddConns,
			MaxIdleConnsPerHost: guarddConns,
		}},
		done: make(chan struct{}),
	}
	go func() {
		s.waitErr = cmd.Wait()
		close(s.done)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := s.http.Get(s.base + "/v1/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case <-s.done:
			return nil, fmt.Errorf("guardd exited before ready: %v", s.waitErr)
		case <-time.After(20 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("guardd not ready after 30s")
		}
	}
}

// stop sends SIGTERM (guardd drains and exits) and waits for the process;
// it kills it if the drain takes too long. Stopping twice is harmless.
func (s *server) stop() error {
	select {
	case <-s.done:
		return nil
	default:
	}
	s.http.CloseIdleConnections()
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // it may have exited meanwhile
	select {
	case <-s.done:
		return nil
	case <-time.After(30 * time.Second):
		_ = s.cmd.Process.Kill() // it may have exited meanwhile
		<-s.done
		return fmt.Errorf("guardd did not drain within 30s")
	}
}

// fillCache is the first cache fill: one attack job per served design, so
// each design is built and its baseline evaluated before traffic starts.
func (s *server) fillCache() error {
	errs := make(chan error, len(guarddDesigns))
	for _, name := range guarddDesigns {
		go func(name string) {
			id, err := s.submit(map[string]any{"kind": "attack", "benchmark": name})
			if err == nil {
				_, err = s.wait(id)
			}
			errs <- err
		}(name)
	}
	var first error
	for range guarddDesigns {
		if err := <-errs; err != nil && first == nil {
			first = fmt.Errorf("cache fill: %w", err)
		}
	}
	return first
}

func (s *server) submit(body map[string]any) (string, error) {
	blob, err := json.Marshal(body)
	if err != nil {
		return "", err
	}
	resp, err := s.http.Post(s.base+"/v1/jobs", "application/json", bytes.NewReader(blob))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		msg, _ := io.ReadAll(resp.Body)
		return "", fmt.Errorf("submit refused: %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	var j jobJSON
	if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
		return "", err
	}
	return j.ID, nil
}

// wait polls the job until it reaches a terminal state.
func (s *server) wait(id string) (*jobJSON, error) {
	for {
		blob, err := s.get("/v1/jobs/" + id)
		if err != nil {
			return nil, err
		}
		var j jobJSON
		if err := json.Unmarshal(blob, &j); err != nil {
			return nil, err
		}
		switch j.State {
		case "done":
			return &j, nil
		case "failed", "cancelled":
			return nil, fmt.Errorf("job %s %s: %s", id, j.State, j.Error)
		}
		time.Sleep(guarddPoll)
	}
}

func (s *server) get(path string) ([]byte, error) {
	resp, err := s.http.Get(s.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", path, resp.Status, bytes.TrimSpace(blob))
	}
	return blob, nil
}

func (s *server) metrics() (promSnap, error) {
	blob, err := s.get("/metrics")
	if err != nil {
		return nil, err
	}
	return parseProm(bytes.NewReader(blob))
}

// drained waits until no job is queued or running, so the burst starts on
// an idle pool.
func (s *server) drained() error {
	for {
		m, err := s.metrics()
		if err != nil {
			return err
		}
		if m["gdsiiguard_service_workers_busy"] == 0 {
			return nil
		}
		time.Sleep(guarddPoll)
	}
}

// checkGDSII verifies that every downloaded GDSII parses with
// gdsii.StreamStats to its design's placed cell count (one SREF per cell)
// and returns the jobs that passed.
func checkGDSII(r *run, jobs []jobOutcome, cells map[string]int) []jobOutcome {
	var ok []jobOutcome
	for i, o := range jobs {
		if o.err != nil {
			continue
		}
		st, _, err := gdsii.StreamStats(bytes.NewReader(o.gds))
		switch {
		case err != nil:
			r.checkFail("job %d GDSII: %v", i, err)
		case st.SRefs != cells[o.in.Design]:
			r.checkFail("job %d GDSII holds %d cells, %s has %d", i, st.SRefs, o.in.Design, cells[o.in.Design])
		case o.hardened == nil:
			r.checkFail("job %d reported no hardened metrics", i)
		default:
			ok = append(ok, o)
		}
	}
	return ok
}

// checkJobs re-runs a seeded sample of the jobs through a direct
// Design.Harden with the same FlowParams; the served metrics must match.
func checkJobs(r *run, rng *rand.Rand, ok []jobOutcome) {
	designs := map[string]*gdsiiguard.Design{}
	for i := 0; i < guarddCheckSample && len(ok) > 0; i++ {
		o := ok[rng.Intn(len(ok))]
		err := sequentialReference(func() error {
			d := designs[o.in.Design]
			if d == nil {
				var err error
				if d, err = gdsiiguard.LoadBenchmark(o.in.Design); err != nil {
					return err
				}
				designs[o.in.Design] = d
			}
			h, err := d.Harden(&o.in.Params)
			if err != nil {
				return err
			}
			if want := toMetricsJSON(h.Metrics); *o.hardened != want {
				return fmt.Errorf("served %+v != direct %+v", *o.hardened, want)
			}
			return nil
		})
		if err != nil {
			r.checkFail("job %s %+v: %v", o.in.Design, o.in.Params, err)
		}
	}
}

func toMetricsJSON(m gdsiiguard.Metrics) metricsJSON {
	return metricsJSON{m.Security, m.ERSites, m.ERTracks, m.TNS, m.WNS, m.PowerMW, m.DRC}
}
