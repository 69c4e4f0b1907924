package main

import (
	"errors"
	"fmt"
	"time"

	"denovogpu"
	"denovogpu/internal/litmus"
	"denovogpu/internal/machine"
	"denovogpu/internal/mcheck"
)

// checkCell is one model-checking cell. Catalog cells run at the
// default budget and must complete. Generated programs run under a
// small node budget: reaching it is a recorded skip, as in
// `litmus check`, never a failure; a violation always is.
type checkCell struct {
	label  string
	cfg    machine.Config
	p      *litmus.Program
	budget int
	capped bool
}

// checkRun is what one exploration measured.
type checkRun struct {
	nodes   int
	skipped bool
}

// Generated programs: few and small, so the seed varies the inputs
// without swinging the pass time.
const (
	genPrograms = 8
	genBudget   = 10_000
)

var genParams = litmus.GenParams{MaxThreads: 3, MaxOps: 2, MaxTotalOps: 4, MaxVars: 2, NumCUs: 15, ThreadsPerCU: 2}

// checkCells is the check batch: catalog cells that complete at the
// default budget, then seeded generated programs under the two DRF
// configurations.
func checkCells(seed uint64) ([]checkCell, error) {
	var cells []checkCell
	for _, c := range []struct{ prog, cfg string }{
		{"ISA2+transitive", "DH"},
		{"IRIW+scoped", "GH"},
		{"IRIW+scoped", "GD"},
		{"MP+preload", "DD"},
		{"MP+preload", "DD+RO"},
		{"MP+preload", "DH"},
		{"MP+local-samecu", "DD"},
	} {
		p, err := denovogpu.LitmusProgramByName(c.prog)
		if err != nil {
			return nil, err
		}
		cfg, err := denovogpu.ConfigByName(c.cfg)
		if err != nil {
			return nil, err
		}
		cells = append(cells, checkCell{label: c.prog + "/" + c.cfg, cfg: cfg, p: p})
	}
	for i := uint64(0); i < genPrograms; i++ {
		p := litmus.Generate(seed, i, genParams)
		if err := p.Validate(); err != nil {
			return nil, err
		}
		for _, cfg := range []machine.Config{machine.GD(), machine.DD()} {
			cells = append(cells, checkCell{label: p.Name + "/" + cfg.Name(), cfg: cfg, p: p, budget: genBudget, capped: true})
		}
	}
	return cells, nil
}

// runCheck explores one cell, timing the benchmark's call into
// mcheck.Check.
func runCheck(c checkCell, tr *tracer) (checkRun, float64, error) {
	id := tr.newID()
	t0 := time.Now()
	r, err := mcheck.Check(c.cfg, c.p, mcheck.Options{Budget: c.budget})
	t1 := tr.child(id, "mcheck.Check", t0)
	tr.record(id, 0, id, "check "+c.label, t0, t1)
	wall := t1.Sub(t0).Seconds()
	var be *mcheck.BudgetError
	switch {
	case c.capped && errors.As(err, &be):
		return checkRun{nodes: be.States, skipped: true}, wall, nil
	case err != nil:
		return checkRun{}, wall, fmt.Errorf("%s: %w", c.label, err)
	case r.Violation != nil:
		return checkRun{}, wall, fmt.Errorf("%s: %w", c.label, r.Violation)
	}
	return checkRun{nodes: r.States}, wall, nil
}

// runCheckWorkload measures the check workload.
func runCheckWorkload(o options, tr *tracer) (*result, error) {
	res := &result{metrics: map[string]float64{}}

	// Set-up: resolve the catalog cells and generate the seeded programs.
	probe := newHostProbe()
	var cells []checkCell
	setup, err := timeSetup(probe, 0.2, 5, func() (err error) {
		cells, err = checkCells(o.seed)
		return err
	})
	if err != nil {
		return nil, err
	}
	shuffle(cells, o.seed)
	runner := func() *passRunner[checkRun] {
		return newPassRunner(res, probe, len(cells), func(i int, tr *tracer) (checkRun, float64, error) {
			return runCheck(cells[i], tr)
		})
	}
	nodesOf := func(r checkRun) float64 { return float64(r.nodes) }

	mem := startMemSampler()
	pr := runner()
	// Untraced passes: the whole run, or the reference half of a traced
	// run (which needs no second sample per cell).
	budget, minPasses := o.seconds, 2
	if o.trace {
		budget, minPasses = o.seconds/2, 1
	}
	pr.runPasses(budget, minPasses, nil)
	wall, raw := pr.passTime(true), pr.passTime(false)
	nodes := pr.perPass(nodesOf)
	peakHeap, peakRSS := mem.peaksMB()

	if !o.trace {
		skips := pr.perPass(func(r checkRun) float64 {
			if r.skipped {
				return 1
			}
			return 0
		})
		res.metrics["setup_s"] = setup
		res.metrics["wall_norm_s"] = wall
		res.metrics["work_per_norm_s"] = nodes / wall
		res.metrics["peak_rss_mb"] = peakRSS
		res.metrics["peak_heap_mb"] = peakHeap
		res.metrics["pass_ratio"] = passRatio(res)
		res.metrics["modeled_work"] = nodes
		res.info = []infoLine{
			{"wall_s", raw, "s", "one pass, host wall clock"},
			{"check_nodes_per_s", nodes / raw, "1/s", "DPOR nodes per host second"},
			{"peak_heap_mb", peakHeap, "MB", "peak live heap"},
			{"fail_ratio", 1 - passRatio(res), "ratio", fmt.Sprintf("%d failed of %d", len(res.failures), res.attempted)},
			{"budget_skips", skips, "count", fmt.Sprintf("generated cells per pass stopped at %d nodes", genBudget)},
			{"passes", float64(len(pr.wall[0])), "count", fmt.Sprintf("%d cells per pass", len(cells))},
		}
		res.cells = pr.details(func(i int) string { return cells[i].label }, nodesOf, nodesOf)
		return res, nil
	}

	traced := runner()
	_, grew, err := traced.profiledPasses(o.seconds/2, tr, res.metrics)
	if err != nil {
		return nil, err
	}
	allNodes := traced.total(nodesOf)
	res.metrics["mcheck.nodes"] = traced.perPass(nodesOf)
	res.metrics["mcheck.allocs_per_node"] = float64(grew.allocObjects) / allNodes
	res.metrics["mcheck.bytes_per_node"] = float64(grew.allocBytes) / allNodes
	res.metrics["trace.overhead_pct"] = 100 * (traced.passTime(true)/wall - 1)
	fillZero(res.metrics)
	return res, nil
}
