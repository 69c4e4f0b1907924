package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"time"

	"denovogpu"
	"denovogpu/internal/machine"
	"denovogpu/internal/stats"
	"denovogpu/internal/workload/graph"
)

// goldenDir holds the committed canonical reports of the pinned cells,
// relative to the repository root.
var goldenDir = filepath.Join("internal", "machine", "testdata", "golden")

// simCell is one simulator cell: a configuration and a workload, plus
// the committed report bytes when the cell is golden-pinned.
type simCell struct {
	label  string
	cfg    denovogpu.Config
	w      denovogpu.Workload
	golden []byte
}

// cellRun is what one simulation of a cell measured.
type cellRun struct {
	wall, newS, hostS, verifyS float64
	events, cycles             uint64
	flits                      [stats.NumTrafficClasses]uint64
	counters                   map[string]uint64 // device prefixes folded away
}

// cellSet resolves cells and loads their goldens. A graph workload is
// built from the workload seed; everything else is the registered
// benchmark.
type cellSet struct {
	root   string
	seed   uint64
	pinned map[string]bool
	cells  []simCell
	err    error
}

func newCellSet(root string, seed uint64) *cellSet {
	pinned := map[string]bool{}
	for _, s := range denovogpu.PinnedCells() {
		pinned[s.Workload+"/"+s.Config.Name] = true
	}
	return &cellSet{root: root, seed: seed, pinned: pinned}
}

// add appends workload under each named config on the given device
// count (0 keeps the configuration's own).
func (s *cellSet) add(workload string, devices int, configs ...string) {
	for _, name := range configs {
		if s.err != nil {
			return
		}
		cfg, err := denovogpu.ConfigByName(name)
		if err != nil {
			s.err = err
			return
		}
		if devices > 0 {
			cfg.Devices = devices
		}
		w, seeded, err := s.workload(workload)
		if err != nil {
			s.err = err
			return
		}
		c := simCell{label: workload + "/" + cfg.Name(), cfg: cfg, w: w}
		if seeded {
			c.label = fmt.Sprintf("%s(seed %d)/%s", workload, graphSeed(s.seed), cfg.Name())
		} else if devices == 0 && s.pinned[workload+"/"+name] {
			c.golden, err = os.ReadFile(filepath.Join(s.root, goldenDir, denovogpu.ReportFileName(workload, cfg.Name())))
			if err != nil {
				s.err = fmt.Errorf("loading golden report: %w", err)
				return
			}
		}
		s.cells = append(s.cells, c)
	}
}

func (s *cellSet) workload(name string) (denovogpu.Workload, bool, error) {
	p := graph.DefaultParams()
	p.Seed = graphSeed(s.seed)
	switch name {
	case "BFS":
		return graph.BFS(p), true, nil
	case "PR":
		return graph.PageRank(p), true, nil
	case "SSSP":
		return graph.SSSP(p), true, nil
	}
	w, err := denovogpu.WorkloadByName(name)
	return w, false, err
}

// graphSeed derives a non-zero graph seed from the workload seed.
func graphSeed(seed uint64) uint64 {
	return rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15)).Uint64()>>1 | 1
}

// simAppsCells is the sim-apps batch: the ten Fig. 2 no-sync apps under
// GD and DD, and BFS/PR/SSSP over a graph built from the seed under GD,
// DD and SPEC.
func simAppsCells(root string, seed uint64) ([]simCell, error) {
	s := newCellSet(root, seed)
	for _, w := range []string{"BP", "ST", "LAVA", "SGEMM", "HS", "LUD", "NW", "PF", "SRAD", "NN"} {
		s.add(w, 0, "GD", "DD")
	}
	for _, w := range []string{"BFS", "PR", "SSSP"} {
		s.add(w, 0, "GD", "DD", "SPEC")
	}
	return s.cells, s.err
}

// simSyncCells is the sim-sync batch: global-scope, local/hybrid-scope
// and 2-device synchronization cells.
func simSyncCells(root string, seed uint64) ([]simCell, error) {
	s := newCellSet(root, seed)
	s.add("SPM_G", 0, "GD", "DD")
	s.add("SPM_L", 0, "GD", "GH", "DD", "DH")
	s.add("TB_LG", 0, "GH", "DH")
	s.add("UTS", 0, "GD", "DH")
	s.add("SLM_Gx2", 2, "DD")
	s.add("SPM_Lx2", 2, "GD", "DH")
	s.add("UTSx2", 2, "GD", "DD")
	return s.cells, s.err
}

// runCell simulates one cell on a fresh machine (so the modeled caches
// start empty), timing the benchmark's calls into machine.New,
// Workload.Host and Workload.Verify, and builds the cell's report the
// way denovogpu.Run does.
func runCell(c simCell, tr *tracer) (cellRun, denovogpu.Report, error) {
	id := tr.newID()
	t0 := time.Now()
	m := machine.New(c.cfg)
	t1 := tr.child(id, "machine.New", t0)
	c.w.Host(m)
	err := m.Err()
	t2 := tr.child(id, "workload.Host", t1)
	if err == nil && c.w.Verify != nil {
		if verr := c.w.Verify(m); verr != nil {
			err = fmt.Errorf("verification failed: %w", verr)
		}
	}
	t3 := tr.child(id, "workload.Verify", t2)
	tr.record(id, 0, id, "cell "+c.label, t0, t3)
	if err != nil {
		return cellRun{}, denovogpu.Report{}, fmt.Errorf("%s: %w", c.label, err)
	}
	st := m.Stats()
	rep := denovogpu.Report{
		Config: c.cfg.Name(), Workload: c.w.Name,
		Cycles: st.Cycles, Events: m.Engine().Fired(),
		EnergyPJ: st.EnergyPJ, Flits: st.Flits, Stats: st,
	}
	r := cellRun{
		wall: t3.Sub(t0).Seconds(), newS: t1.Sub(t0).Seconds(), hostS: t2.Sub(t1).Seconds(), verifyS: t3.Sub(t2).Seconds(),
		events: rep.Events, cycles: rep.Cycles, flits: rep.Flits, counters: foldDevices(st),
	}
	return r, rep, nil
}

// foldDevices sums each counter over its per-device views ("d1.l1.x"
// counts as "l1.x").
func foldDevices(st *stats.Stats) map[string]uint64 {
	out := map[string]uint64{}
	for _, n := range st.Names() {
		key := n
		if rest, ok := strings.CutPrefix(n, "d"); ok {
			if i := strings.IndexByte(rest, '.'); i > 0 && strings.Trim(rest[:i], "0123456789") == "" {
				key = rest[i+1:]
			}
		}
		out[key] += st.Get(n)
	}
	return out
}

// checkGolden is the report half of the correctness gate: a pinned
// cell's canonical report must equal its committed file byte for byte.
func checkGolden(label string, rep denovogpu.Report, golden []byte) error {
	if golden == nil {
		return nil
	}
	got, err := denovogpu.MarshalReport(rep)
	if err != nil {
		return fmt.Errorf("%s: %w", label, err)
	}
	if !bytes.Equal(got, golden) {
		return fmt.Errorf("%s: report differs from its golden file %s", label, denovogpu.ReportFileName(rep.Workload, rep.Config))
	}
	return nil
}

// simRunner runs sim cells with the golden check folded in.
func simRunner(res *result, probe *hostProbe, cells []simCell) *passRunner[cellRun] {
	return newPassRunner(res, probe, len(cells), func(i int, tr *tracer) (cellRun, float64, error) {
		r, rep, err := runCell(cells[i], tr)
		if err == nil {
			err = checkGolden(cells[i].label, rep, cells[i].golden)
		}
		return r, r.wall, err
	})
}

// runSim measures one simulator workload.
func runSim(o options, tr *tracer, build func(root string, seed uint64) ([]simCell, error)) (*result, error) {
	res := &result{metrics: map[string]float64{}}

	// Set-up: resolve every cell, generate the seeded graphs and load
	// the goldens.
	probe := newHostProbe()
	var cells []simCell
	setup, err := timeSetup(probe, 0.2, 5, func() (err error) {
		cells, err = build(o.root, o.seed)
		return err
	})
	if err != nil {
		return nil, err
	}
	shuffle(cells, o.seed)

	mem := startMemSampler()
	pr := simRunner(res, probe, cells)
	// Untraced passes: the whole run, or the reference half of a traced
	// run (which needs no second sample per cell).
	budget, minPasses := o.seconds, 2
	if o.trace {
		budget, minPasses = o.seconds/2, 1
	}
	pr.runPasses(budget, minPasses, nil)
	wall, raw := pr.passTime(true), pr.passTime(false)
	events := pr.perPass(func(r cellRun) float64 { return float64(r.events) })
	peakHeap, peakRSS := mem.peaksMB()

	if !o.trace {
		res.metrics["setup_s"] = setup
		res.metrics["wall_norm_s"] = wall
		res.metrics["work_per_norm_s"] = events / wall
		res.metrics["peak_rss_mb"] = peakRSS
		res.metrics["peak_heap_mb"] = peakHeap
		res.metrics["pass_ratio"] = passRatio(res)
		res.metrics["modeled_work"] = pr.perPass(func(r cellRun) float64 { return float64(r.cycles) })
		res.info = simInfo(pr, len(cells), events, raw, res)
		res.cells = pr.details(func(i int) string { return cells[i].label },
			func(r cellRun) float64 { return float64(r.events) }, func(r cellRun) float64 { return float64(r.cycles) })
		return res, nil
	}

	// Traced segment: a fresh runner with the profile and spans on.
	traced := simRunner(res, probe, cells)
	passes, _, err := traced.profiledPasses(o.seconds/2, tr, res.metrics)
	if err != nil {
		return nil, err
	}
	simLayerMetrics(res.metrics, traced, passes)
	res.metrics["trace.overhead_pct"] = 100 * (traced.passTime(true)/wall - 1)
	fillZero(res.metrics)
	return res, nil
}

// simLayerMetrics derives the per-layer counters and per-call times of
// one pass from a traced pass runner.
func simLayerMetrics(m map[string]float64, p *passRunner[cellRun], passes float64) {
	sum := func(name string) float64 {
		return p.perPass(func(r cellRun) float64 { return float64(r.counters[name]) })
	}
	flits := func(c stats.TrafficClass) float64 {
		return p.perPass(func(r cellRun) float64 { return float64(r.flits[c]) })
	}
	ratio := func(a, b float64) float64 {
		if a+b == 0 {
			return 0
		}
		return a / (a + b)
	}
	events := p.perPass(func(r cellRun) float64 { return float64(r.events) })
	m["sim.events"] = events
	if events > 0 {
		m["sim.ns_per_event"] = 1e9 * m["sim.self_s"] / events
	}
	m["l1.read_hit_ratio"] = ratio(sum("l1.read_hits"), sum("l1.read_misses"))
	m["l1.sync_hit_ratio"] = ratio(sum("l1.sync_hits"), sum("l1.sync_misses"))
	m["l1.ownership_transfers"] = sum("l1.ownership_transfers")
	m["gpu.mem_instrs"] = sum("cu.mem_instrs")
	m["gpu.sync_instrs"] = sum("cu.sync_instrs")
	m["l2.forwards"] = sum("l2.read_forwards") + sum("l2.reg_forwards")
	m["l2.atomics"] = sum("l2.atomics")
	m["noc.flits.read"] = flits(stats.TrafficRead)
	m["noc.flits.reg"] = flits(stats.TrafficRegistration)
	m["noc.flits.wbwt"] = flits(stats.TrafficWBWT)
	m["noc.flits.atomic"] = flits(stats.TrafficAtomic)
	m["interconnect.xdev_flits"] = flits(stats.TrafficXDev)
	var total float64
	for c := stats.TrafficClass(0); c < stats.NumTrafficClasses; c++ {
		total += flits(c)
	}
	if total > 0 {
		m["noc.ns_per_flit"] = 1e9 * m["noc.self_s"] / total
	}
	m["machine.new_ms"] = 1e3 * p.total(func(r cellRun) float64 { return r.newS }) / passes
	m["workload.host_s"] = p.total(func(r cellRun) float64 { return r.hostS }) / passes
	m["workload.verify_ms"] = 1e3 * p.total(func(r cellRun) float64 { return r.verifyS }) / passes
}

func simInfo(p *passRunner[cellRun], cells int, events, raw float64, res *result) []infoLine {
	flits := p.perPass(func(r cellRun) float64 {
		var t uint64
		for _, f := range r.flits {
			t += f
		}
		return float64(t)
	})
	return []infoLine{
		{"wall_s", raw, "s", "one pass, host wall clock"},
		{"events_per_s", events / raw, "1/s", "engine events per host second"},
		{"modeled_cycles", p.perPass(func(r cellRun) float64 { return float64(r.cycles) }), "cycles", "simulated, per pass"},
		{"modeled_flits", flits, "flits", "simulated, per pass"},
		{"fail_ratio", 1 - passRatio(res), "ratio", fmt.Sprintf("%d failed of %d", len(res.failures), res.attempted)},
		{"passes", float64(len(p.wall[0])), "count", fmt.Sprintf("%d cells per pass", cells)},
	}
}

func passRatio(res *result) float64 {
	return 1 - float64(len(res.failures))/float64(res.attempted)
}

// fillZero sets every per-layer metric the workload left unset to 0:
// the layer was not exercised.
func fillZero(m map[string]float64) {
	for _, s := range perLayer {
		if _, ok := m[s.name]; !ok {
			m[s.name] = 0
		}
	}
}

// shuffle orders xs by the seed, so the seed varies the order in which
// cells meet the allocator and the GC.
func shuffle[T any](xs []T, seed uint64) {
	r := rand.New(rand.NewPCG(seed, 0x6a09e667f3bcc909))
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
}
