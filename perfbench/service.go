package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"denovogpu"
	"denovogpu/internal/resultcache"
	"denovogpu/internal/sweepd"
)

// Service workload settings.
const (
	// warmSubmits is the closed loop after each cold sweep: one client,
	// each resubmit waits for done. It is a count, not a duration, so
	// the coordinator's job store (which keeps every job) holds the same
	// amount however fast the service answers.
	warmSubmits = 200
	checkShards = 4
	leaseTTL    = 2 * time.Second
	idlePoll    = 10 * time.Millisecond
)

// serviceCheck is the catalog check cell the cold sweep also runs,
// sharded, and whose merged verdict must equal the serial one.
var serviceCheck = denovogpu.CheckCellSpec{Config: denovogpu.ConfigSpec{Name: "DD"}, Program: "MP+preload"}

// routeStat aggregates one HTTP route as seen by routeRecorder.
type routeStat struct {
	ms       []float64
	statuses map[int]int
}

// routeRecorder records, per route of the coordinator's API, the count,
// duration and status of every request its wrapped handlers serve.
type routeRecorder struct {
	tr   *tracer
	mu   sync.Mutex
	byRt map[string]*routeStat
}

func newRouteRecorder(tr *tracer) *routeRecorder {
	return &routeRecorder{tr: tr, byRt: map[string]*routeStat{}}
}

// wrap returns next with every request recorded.
func (rr *routeRecorder) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		t0 := time.Now()
		next.ServeHTTP(sw, r)
		t1 := time.Now()
		route := r.Pattern // set by the coordinator's ServeMux while routing
		if route == "" {
			route = r.Method + " (unrouted)"
		}
		rr.tr.record(rr.tr.newID(), 0, 0, "http "+route, t0, t1)
		rr.mu.Lock()
		defer rr.mu.Unlock()
		st := rr.byRt[route]
		if st == nil {
			st = &routeStat{statuses: map[int]int{}}
			rr.byRt[route] = st
		}
		st.ms = append(st.ms, t1.Sub(t0).Seconds()*1e3)
		st.statuses[sw.code]++
	})
}

// route returns one route's aggregate; read it once the servers that
// record into it are stopped.
func (rr *routeRecorder) route(name string) routeStat {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	if st := rr.byRt[name]; st != nil {
		return *st
	}
	return routeStat{}
}

// statusWriter captures the response status and keeps streaming
// (Flush) working for the event endpoint.
type statusWriter struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.code, w.wrote = code, true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// service is one in-process deployment: a result cache on a fresh
// directory, a coordinator behind a loopback HTTP server, and pull
// workers. Workers plus the one client stay within nproc connections.
type service struct {
	dir    string
	cache  *resultcache.Cache
	coord  *sweepd.Coordinator
	srv    *http.Server
	url    string
	client *sweepd.Client
	cancel context.CancelFunc
	wg     sync.WaitGroup
	wtrans *http.Transport
}

func serviceWorkers() int { return max(1, runtime.NumCPU()-1) }

// startService brings a deployment up and waits until it answers its
// health probe. A non-nil routes records every request.
func startService(workdir string, routes *routeRecorder) (*service, error) {
	dir, err := os.MkdirTemp(workdir, "cache-")
	if err != nil {
		return nil, err
	}
	s := &service{dir: dir}
	s.cache, err = resultcache.Open(dir, 0)
	if err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("opening result cache: %w", err)
	}
	s.coord = sweepd.New(sweepd.Options{Cache: s.cache, LeaseTTL: leaseTTL})
	handler := s.coord.Handler()
	if routes != nil {
		handler = routes.wrap(handler)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	s.url = "http://" + ln.Addr().String()
	s.srv = &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed at stop
	}()
	s.client = &sweepd.Client{Base: s.url, HTTP: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}}

	n := serviceWorkers()
	s.wtrans = &http.Transport{MaxConnsPerHost: n}
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	for i := 0; i < n; i++ {
		w := &sweepd.Worker{Server: s.url, Name: fmt.Sprintf("w%d", i), Client: &http.Client{Transport: s.wtrans}, IdlePoll: idlePoll}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			_ = w.Run(ctx) // nil once ctx is canceled
		}()
	}
	if _, err := s.client.CacheStats(ctx); err != nil {
		s.stop()
		return nil, fmt.Errorf("service health probe: %w", err)
	}
	return s, nil
}

// stop cancels the workers, shuts the server down, waits for every
// goroutine it started and removes the cache directory.
func (s *service) stop() {
	s.cancel()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.srv.Shutdown(ctx) // a timeout leaves only idle streams, closed below
	_ = s.srv.Close()
	s.wg.Wait()
	s.wtrans.CloseIdleConnections()
	s.client.HTTP.CloseIdleConnections()
	os.RemoveAll(s.dir)
}

// coldJob is the cold sweep's spec: the golden-pinned cells, then the
// shard units of serviceCheck.
type coldJob struct {
	spec      denovogpu.MatrixSpec
	pinned    int
	checkBase denovogpu.CheckReport
	goldens   [][]byte
	splitMS   float64
}

func newColdJob(root string) (*coldJob, error) {
	pinned := denovogpu.PinnedCells()
	j := &coldJob{pinned: len(pinned)}
	for _, c := range pinned {
		g, err := os.ReadFile(filepath.Join(root, goldenDir, denovogpu.ReportFileName(c.Workload, c.Config.Name)))
		if err != nil {
			return nil, fmt.Errorf("loading golden report: %w", err)
		}
		j.goldens = append(j.goldens, g)
	}
	t0 := time.Now()
	units, base, err := denovogpu.SplitCheckCell(serviceCheck, checkShards)
	if err != nil {
		return nil, err
	}
	j.splitMS = since(t0) * 1e3
	j.checkBase = base
	cells := append([]denovogpu.CellSpec(nil), pinned...)
	for i := range units {
		cells = append(cells, denovogpu.CellSpec{Check: &units[i]})
	}
	j.spec = denovogpu.MatrixSpec{Cells: cells}
	return j, nil
}

// shuffle reorders the pinned cells, with their goldens, by the seed.
func (j *coldJob) shuffle(seed uint64) {
	perm := make([]int, j.pinned)
	for i := range perm {
		perm[i] = i
	}
	shuffle(perm, seed)
	cells := append([]denovogpu.CellSpec(nil), j.spec.Cells...)
	goldens := append([][]byte(nil), j.goldens...)
	for i, p := range perm {
		j.spec.Cells[i], j.goldens[i] = cells[p], goldens[p]
	}
}

// serialVerdict is the reference the sharded verdict must equal.
func serialVerdict() ([]byte, error) {
	data, _, err := denovogpu.RunCheckCell(serviceCheck)
	if err != nil {
		return nil, err
	}
	r, err := denovogpu.UnmarshalCheckReport(data)
	if err != nil {
		return nil, err
	}
	v, err := denovogpu.MergeCheckVerdict([]denovogpu.CheckReport{r})
	if err != nil {
		return nil, err
	}
	return denovogpu.MarshalCheckVerdict(v)
}

// roundStats is what one cold sweep and its warm loop measured.
type roundStats struct {
	coldS       float64
	coldNorm    float64 // coldS normalized by the probes around it
	warmMS      []float64
	warmNormMS  []float64 // warmMS normalized by the latest probe
	warmCells   int
	cycles      float64
	queueWaitMS []float64
	leaseDoneMS []float64
	shardS      float64
	events      float64
	nodes       float64
	getUS       []float64
	putUS       []float64
	hitRatio    float64
}

// runRound deploys a fresh service, runs the cold sweep and the warm
// loop, gates every answer, and tears the service down.
func runRound(o options, job *coldJob, verdict []byte, res *result, probe *hostProbe, tr *tracer, routes *routeRecorder) (*roundStats, error) {
	s, err := startService(o.workdir, routes)
	if err != nil {
		return nil, err
	}
	defer s.stop()
	rs := &roundStats{}
	ctx := context.Background()

	// Cold sweep: submit, then follow the event stream to done,
	// timestamping each cell's transitions as the client sees them.
	jobSpan := tr.newID()
	type times struct{ queued, running, done time.Time }
	seen := make([]times, len(job.spec.Cells))
	p0 := probe.run()
	t0 := time.Now()
	sr, err := s.client.Submit(ctx, job.spec)
	if err != nil {
		return nil, fmt.Errorf("cold submit: %w", err)
	}
	t1 := tr.child(jobSpan, "sweepd.Client.Submit", t0)
	err = s.client.StreamEvents(ctx, sr.Status.ID, func(ev sweepd.Event) error {
		now := time.Now()
		if ev.Cell < 0 || ev.Cell >= len(seen) {
			return fmt.Errorf("event for unknown cell %d", ev.Cell)
		}
		switch ev.State {
		case sweepd.StateQueued:
			seen[ev.Cell].queued = now
		case sweepd.StateRunning:
			seen[ev.Cell].running = now
		case sweepd.StateDone:
			seen[ev.Cell].done = now
			if !ev.CacheHit && ev.Cell >= job.pinned {
				rs.shardS += ev.WallMS / 1e3
				rs.nodes += float64(ev.Events)
			} else if !ev.CacheHit {
				rs.events += float64(ev.Events)
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cold event stream: %w", err)
	}
	rs.coldS = since(t0)
	t2 := tr.child(jobSpan, "sweepd.Client.StreamEvents", t1)
	rs.coldNorm = normalize(rs.coldS, (p0+probe.run())/2)
	tr.record(jobSpan, 0, jobSpan, "cold sweep", t0, t2)
	for _, t := range seen {
		if !t.running.IsZero() && !t.queued.IsZero() {
			rs.queueWaitMS = append(rs.queueWaitMS, t.running.Sub(t.queued).Seconds()*1e3)
		}
		if !t.done.IsZero() && !t.running.IsZero() {
			rs.leaseDoneMS = append(rs.leaseDoneMS, t.done.Sub(t.running).Seconds()*1e3)
		}
	}

	// Gate the cold answers: pinned reports against the goldens, the
	// merged sharded verdict against the serial one.
	if err := gateCold(ctx, s, sr.Status.ID, job, verdict, rs, res); err != nil {
		return nil, err
	}

	// Warm loop: every resubmit is answered from the cache.
	var pt float64
	for k := 0; k < warmSubmits; k++ {
		if k%20 == 0 {
			pt = probe.run()
		}
		res.attempted++
		id := tr.newID()
		t0 := time.Now()
		wr, err := s.client.Submit(ctx, job.spec)
		st := wr.Status
		if err == nil && st.State == "running" {
			st, err = s.client.Wait(ctx, st.ID, time.Millisecond)
		}
		t1 := tr.child(id, "sweepd.Client.Submit", t0)
		tr.record(id, 0, id, "warm resubmit", t0, t1)
		d := t1.Sub(t0)
		switch {
		case err != nil:
			res.fail("warm resubmit %d: %v", k, err)
			continue
		case st.State != "done" || st.Done != st.Cells || st.CacheHits != st.Cells:
			res.fail("warm resubmit %d: state %s, %d/%d done, %d cache hits", k, st.State, st.Done, st.Cells, st.CacheHits)
			continue
		}
		rs.warmMS = append(rs.warmMS, d.Seconds()*1e3)
		rs.warmNormMS = append(rs.warmNormMS, normalize(d.Seconds(), pt)*1e3)
		rs.warmCells += st.Cells
	}

	cs, err := s.client.CacheStats(ctx)
	if err != nil {
		return nil, fmt.Errorf("cache stats: %w", err)
	}
	if cs.Hits+cs.Misses > 0 {
		rs.hitRatio = float64(cs.Hits) / float64(cs.Hits+cs.Misses)
	}
	if tr != nil {
		if err := timeCache(s, job, rs); err != nil {
			return nil, err
		}
	}
	return rs, nil
}

// gateCold checks every cold answer; each pinned report and the check
// verdict is one attempted operation.
func gateCold(ctx context.Context, s *service, jobID string, job *coldJob, verdict []byte, rs *roundStats, res *result) error {
	st, err := s.client.Job(ctx, jobID)
	if err != nil {
		return fmt.Errorf("cold job status: %w", err)
	}
	if st.State != "done" {
		res.attempted++
		res.fail("cold sweep ended %s: %s", st.State, st.Error)
		return nil
	}
	for i := 0; i < job.pinned; i++ {
		res.attempted++
		data, err := s.client.CellReport(ctx, jobID, i)
		if err != nil {
			res.fail("cold cell %d report: %v", i, err)
			continue
		}
		if !bytes.Equal(data, job.goldens[i]) {
			c := job.spec.Cells[i]
			res.fail("cold cell %s/%s: report differs from its golden file", c.Workload, c.Config.Name)
			continue
		}
		rep, err := denovogpu.UnmarshalReport(data)
		if err != nil {
			res.fail("cold cell %d: %v", i, err)
			continue
		}
		rs.cycles += float64(rep.Cycles)
	}
	res.attempted++
	reports := []denovogpu.CheckReport{job.checkBase}
	for i := job.pinned; i < len(job.spec.Cells); i++ {
		data, err := s.client.CellReport(ctx, jobID, i)
		if err != nil {
			res.fail("check unit %d report: %v", i, err)
			return nil
		}
		r, err := denovogpu.UnmarshalCheckReport(data)
		if err != nil {
			res.fail("check unit %d: %v", i, err)
			return nil
		}
		reports = append(reports, r)
	}
	v, err := denovogpu.MergeCheckVerdict(reports)
	if err == nil {
		var got []byte
		got, err = denovogpu.MarshalCheckVerdict(v)
		if err == nil && !bytes.Equal(got, verdict) {
			err = errors.New("sharded verdict differs from the serial verdict")
		}
	}
	if err != nil {
		res.fail("%s: %v", serviceCheck.DisplayName(), err)
	}
	return nil
}

// timeCache times the benchmark's own Get of every cold cell's entry
// and Put of the same payloads into a scratch cache.
func timeCache(s *service, job *coldJob, rs *roundStats) error {
	scratch, err := resultcache.Open(filepath.Join(s.dir, "put"), 0)
	if err != nil {
		return err
	}
	for _, c := range job.spec.Cells {
		var key string
		if c.Check != nil {
			key, err = denovogpu.CheckKey(s.coord.Version(), *c.Check)
		} else {
			key, err = denovogpu.CellKey(s.coord.Version(), c)
		}
		if err != nil {
			return err
		}
		t0 := time.Now()
		data, ok, err := s.cache.Get(key)
		rs.getUS = append(rs.getUS, since(t0)*1e6)
		if err != nil || !ok {
			return fmt.Errorf("result cache lost a cold entry (ok=%t): %v", ok, err)
		}
		t0 = time.Now()
		if err := scratch.Put(key, data); err != nil {
			return err
		}
		rs.putUS = append(rs.putUS, since(t0)*1e6)
	}
	return nil
}

// runService measures the service workload: rounds of set-up, cold
// sweep and warm loop, each on a fresh deployment.
func runService(o options, tr *tracer) (*result, error) {
	res := &result{metrics: map[string]float64{}}

	// Set-up: build the cold job (goldens, check split), compute the
	// serial reference verdict, and bring a deployment up until it
	// answers (then tear it down; every round deploys afresh).
	probe := newHostProbe()
	var job *coldJob
	var verdict []byte
	setup, err := timeSetup(probe, 0.2, 5, func() (err error) {
		if job, err = newColdJob(o.root); err != nil {
			return err
		}
		if verdict, err = serialVerdict(); err != nil {
			return fmt.Errorf("serial reference verdict: %w", err)
		}
		s, err := startService(o.workdir, nil)
		if err != nil {
			return err
		}
		s.stop()
		return nil
	})
	if err != nil {
		return nil, err
	}
	// The seed orders the cold job's cells, and so the order in which
	// the workers meet them.
	job.shuffle(o.seed)

	mem := startMemSampler()
	// Untraced rounds: the whole run, or the reference half of a traced
	// run.
	budget, minRounds := o.seconds, 3
	if o.trace {
		budget, minRounds = o.seconds/2, 1
	}
	rounds, err := serviceRounds(o, job, verdict, res, probe, nil, nil, budget, minRounds)
	if err != nil {
		return nil, err
	}
	peakHeap, peakRSS := mem.peaksMB()
	var cold, coldNorm, warm, warmNorm []float64
	var warmCells int
	for _, r := range rounds {
		cold = append(cold, r.coldS)
		coldNorm = append(coldNorm, r.coldNorm)
		warm = append(warm, r.warmMS...)
		warmNorm = append(warmNorm, r.warmNormMS...)
		warmCells += r.warmCells
	}
	sum := func(xs []float64) float64 {
		var t float64
		for _, x := range xs {
			t += x
		}
		return t
	}

	if !o.trace {
		p90, ok := percentile(warm, 90)
		note := fmt.Sprintf("n=%d", len(warm))
		if !ok {
			note += ", too few samples beyond p90"
		}
		res.metrics["setup_s"] = setup
		res.metrics["wall_norm_s"] = median(coldNorm)
		res.metrics["work_per_norm_s"] = float64(warmCells) / (sum(warmNorm) / 1e3)
		res.metrics["peak_rss_mb"] = peakRSS
		res.metrics["peak_heap_mb"] = peakHeap
		res.metrics["pass_ratio"] = passRatio(res)
		res.metrics["modeled_work"] = rounds[0].cycles
		res.info = []infoLine{
			{"cold_sweep_s", median(cold), "s", fmt.Sprintf("median of %d cold sweeps, %d cells each, host wall clock", len(cold), len(job.spec.Cells))},
			{"warm_cells_per_s", float64(warmCells) / (sum(warm) / 1e3), "1/s", "host wall clock"},
			{"warm_submit_p50_ms", median(warm), "ms", note},
			{"warm_submit_p90_ms", p90, "ms", note},
			{"fail_ratio", 1 - passRatio(res), "ratio", fmt.Sprintf("%d failed of %d", len(res.failures), res.attempted)},
			{"cache_hit_ratio", rounds[len(rounds)-1].hitRatio, "ratio", "result cache, after the warm loop"},
		}
		return res, nil
	}

	// Traced rounds: profile, spans and the route recorder on.
	prof := newProfiler()
	rc0 := readRuntimeCounters()
	if err := prof.start(); err != nil {
		return nil, err
	}
	routes := newRouteRecorder(tr)
	traced, err := serviceRounds(o, job, verdict, res, probe, tr, routes, o.seconds/2, 1)
	if err != nil {
		return nil, err
	}
	if err := prof.stop(); err != nil {
		return nil, err
	}
	rc1 := readRuntimeCounters()
	n := float64(len(traced))
	for k, v := range prof.selfSeconds(n) {
		res.metrics[k] = v
	}
	var tWarmNorm, qWait, leaseDone, get, put []float64
	var shardS, nodes, tEvents float64
	for _, r := range traced {
		tWarmNorm = append(tWarmNorm, r.warmNormMS...)
		qWait = append(qWait, r.queueWaitMS...)
		leaseDone = append(leaseDone, r.leaseDoneMS...)
		get = append(get, r.getUS...)
		put = append(put, r.putUS...)
		shardS += r.shardS
		nodes += r.nodes
		tEvents += r.events
	}
	submit := routes.route("POST /api/v1/jobs")
	lease := routes.route("POST /api/v1/lease")
	leases := 0
	for _, c := range lease.statuses {
		leases += c
	}
	if leases > 0 {
		res.metrics["sweepd.lease_empty_ratio"] = float64(lease.statuses[http.StatusNoContent]) / float64(leases)
	}
	p90, _ := percentile(warm, 90)
	res.metrics["sweepd.submit_ms"] = median(submit.ms)
	res.metrics["sweepd.cache_hit_ratio"] = traced[len(traced)-1].hitRatio
	res.metrics["sweepd.queue_wait_ms"] = median(qWait)
	res.metrics["sweepd.lease_to_complete_ms"] = median(leaseDone)
	res.metrics["sweepd.warm_submit_p90_ms"] = p90
	res.metrics["resultcache.get_us"] = median(get)
	res.metrics["resultcache.put_us"] = median(put)
	res.metrics["mcheck.split_ms"] = job.splitMS
	res.metrics["mcheck.shard_s"] = shardS / n
	res.metrics["mcheck.nodes"] = nodes / n
	res.metrics["sim.events"] = tEvents / n
	res.metrics["runtime.gc_s"] = (rc1.gcCPU - rc0.gcCPU) / n
	res.metrics["trace.overhead_pct"] = 100 * (median(tWarmNorm)/median(warmNorm) - 1)
	fillZero(res.metrics)
	return res, nil
}

// serviceRounds runs whole rounds, recording requests into routes
// when it is non-nil, until at least minRounds are done and budget
// seconds have elapsed.
func serviceRounds(o options, job *coldJob, verdict []byte, res *result, probe *hostProbe, tr *tracer, routes *routeRecorder, budget float64, minRounds int) ([]*roundStats, error) {
	var out []*roundStats
	t0 := time.Now()
	for len(out) < minRounds || since(t0) < budget {
		rs, err := runRound(o, job, verdict, res, probe, tr, routes)
		if err != nil {
			return nil, err
		}
		out = append(out, rs)
	}
	return out, nil
}
