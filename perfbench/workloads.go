package main

import (
	"sort"
	"strings"
)

// workload is one named input set of the benchmark.
type workload struct {
	run func(o options, tr *tracer) (*result, error)
}

// workloads are generated in this process; simulator and model-checker
// cells run one at a time, and nothing uses more threads or
// connections than nproc. Every simulator cell builds a fresh machine,
// so the modeled caches start empty, as in the paper.
//
//   - sim-apps spends its host time in the L1 data path (wordmap,
//     cache) and the L2, including the SPEC phase drains; it never
//     touches the interconnect and is light on the mesh and coroutine
//     switching. It is the side that synchronization and multi-device
//     work should leave unchanged.
//   - sim-sync is event- and message-bound (engine, mesh, coroutine
//     switches) and uses the L1 for registration and atomics. It is the
//     only workload that loads the interconnect and per-device stats
//     views, so parallel device simulation shows here.
//   - check exercises only mcheck and litmus, with no event engine;
//     DPOR nodes per second and peak live heap are the two numbers DPOR
//     work trades, and simulator changes should not move them.
//   - service is the only workload where sweepd and the result cache
//     dominate: the cold sweep writes the cache and drives lease,
//     heartbeat and complete; the warm loop is all reads with zero
//     simulation.
var workloads = map[string]workload{
	"sim-apps": {run: func(o options, tr *tracer) (*result, error) { return runSim(o, tr, simAppsCells) }},
	"sim-sync": {run: func(o options, tr *tracer) (*result, error) { return runSim(o, tr, simSyncCells) }},
	"check":    {run: runCheckWorkload},
	"service":  {run: runService},
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}
