package main

import (
	"runtime"
	"time"
)

// passRunner runs a batch of cells pass after pass, in a fixed order,
// and keeps every run's result and wall time per cell, with the time of
// the host probe run just before it.
type passRunner[R any] struct {
	res   *result
	n     int
	run   func(i int, tr *tracer) (R, float64, error)
	probe *hostProbe
	runs  [][]R       // per cell, each successful run
	wall  [][]float64 // per cell, wall seconds of each successful run
	norm  [][]float64 // the same, normalized by the probe
}

func newPassRunner[R any](res *result, probe *hostProbe, n int, run func(i int, tr *tracer) (R, float64, error)) *passRunner[R] {
	return &passRunner[R]{res: res, n: n, run: run, probe: probe,
		runs: make([][]R, n), wall: make([][]float64, n), norm: make([][]float64, n)}
}

// runPasses runs whole passes until at least minPasses are done and
// budget seconds have elapsed, and returns the number of passes. Each
// cell run is one attempted operation; an error is one failure. After
// each cell the runner collects its garbage, so no cell pays for
// another's (sweepd workers do the same), and runs the host probe; a
// cell's normalized time uses the probes on either side of it.
func (p *passRunner[R]) runPasses(budget float64, minPasses int, tr *tracer) int {
	t0 := time.Now()
	runtime.GC()
	before := p.probe.run()
	passes := 0
	for passes < minPasses || since(t0) < budget {
		for i := 0; i < p.n; i++ {
			p.res.attempted++
			r, wall, err := p.run(i, tr)
			runtime.GC()
			after := p.probe.run()
			if err != nil {
				p.res.fail("%v", err)
			} else {
				p.runs[i] = append(p.runs[i], r)
				p.wall[i] = append(p.wall[i], wall)
				p.norm[i] = append(p.norm[i], normalize(wall, (before+after)/2))
			}
			before = after
		}
		passes++
	}
	return passes
}

// passTime sums each cell's median wall time: a pass time robust to one
// slow run. Every pass counts: each cell builds a fresh machine or
// model, so there is no warm-up to skip. normalized selects the
// probe-normalized times.
func (p *passRunner[R]) passTime(normalized bool) float64 {
	samples := p.wall
	if normalized {
		samples = p.norm
	}
	var t float64
	for _, w := range samples {
		t += median(w)
	}
	return t
}

// perPass sums f over each cell's last run: one pass of a quantity that
// repeats exactly from pass to pass.
func (p *passRunner[R]) perPass(f func(R) float64) float64 {
	var t float64
	for _, rs := range p.runs {
		if len(rs) > 0 {
			t += f(rs[len(rs)-1])
		}
	}
	return t
}

// total sums f over every run.
func (p *passRunner[R]) total(f func(R) float64) float64 {
	var t float64
	for _, rs := range p.runs {
		for _, r := range rs {
			t += f(r)
		}
	}
	return t
}

// details lists each cell's wall and normalized samples with one pass of its work and
// modeled quantities.
func (p *passRunner[R]) details(label func(i int) string, work, modeled func(R) float64) []cellDetail {
	out := make([]cellDetail, p.n)
	for i := range out {
		out[i] = cellDetail{Cell: label(i), WallS: p.wall[i], NormS: p.norm[i]}
		if rs := p.runs[i]; len(rs) > 0 {
			out[i].Work, out[i].Modeled = work(rs[len(rs)-1]), modeled(rs[len(rs)-1])
		}
	}
	return out
}

// profiledPasses runs at least one pass with spans on under the CPU
// profile, for budget seconds, and sets in m every layer's self time and
// the GC CPU time per pass. It returns the pass count and the runtime
// counters' growth over the passes.
func (p *passRunner[R]) profiledPasses(budget float64, tr *tracer, m map[string]float64) (float64, runtimeCounters, error) {
	prof := newProfiler()
	rc0 := readRuntimeCounters()
	if err := prof.start(); err != nil {
		return 0, runtimeCounters{}, err
	}
	passes := float64(p.runPasses(budget, 1, tr))
	if err := prof.stop(); err != nil {
		return 0, runtimeCounters{}, err
	}
	rc1 := readRuntimeCounters()
	for k, v := range prof.selfSeconds(passes) {
		m[k] = v
	}
	m["runtime.gc_s"] = (rc1.gcCPU - rc0.gcCPU) / passes
	return passes, runtimeCounters{
		allocObjects: rc1.allocObjects - rc0.allocObjects,
		allocBytes:   rc1.allocBytes - rc0.allocBytes,
		gcCPU:        rc1.gcCPU - rc0.gcCPU,
	}, nil
}

// timeSetup runs setup at least minReps times and until budget seconds
// have passed (at most 1001 times), with a probe run before each of the
// first 20 repetitions and every tenth after, and returns the median
// duration normalized by the median probe.
func timeSetup(probe *hostProbe, budget float64, minReps int, setup func() error) (float64, error) {
	var ds, ps []float64
	t0 := time.Now()
	for len(ds) < minReps || (since(t0) < budget && len(ds) < 1001) {
		if len(ds) < 20 || len(ds)%10 == 0 {
			ps = append(ps, probe.run())
		}
		t := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		ds = append(ds, since(t))
	}
	return normalize(median(ds), median(ps)), nil
}
