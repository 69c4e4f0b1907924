package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// metricSpec names one metric of the result line. The lists below are
// the ones BENCHMARK.json declares; a test keeps the two in step.
type metricSpec struct {
	name string
	unit string
}

// endToEnd metrics are reported by every workload's untraced run.
// Where a quantity differs by workload, its meaning is:
//
//	wall_norm_s      one pass over the batch: the sum of each cell's median
//	                 over the passes (service: one cold sweep, submit to
//	                 done, on an empty result cache)
//	work_per_norm_s  engine events (sim-*) or DPOR nodes (check) per
//	                 second of wall_norm_s; cells answered per second by
//	                 warm resubmits (service)
//	modeled_work     simulated cycles per pass (sim-*, the service's cold
//	                 sweep), DPOR nodes per pass (check)
//
// setup_s and the two *_norm_s metrics are host time normalized by the
// host probe run next to the measured operations (hostprobe.go): this
// host's speed drifts by 10-20% over minutes, which would otherwise
// swamp any change worth gating. The raw wall-clock figures are in the
// printed table.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"wall_norm_s", "s"},
	{"work_per_norm_s", "1/s"},
	{"peak_rss_mb", "MB"},
	{"peak_heap_mb", "MB"},
	{"pass_ratio", "ratio"},
	{"modeled_work", "count"},
}

// perLayer metrics are reported by every workload's traced run; a
// layer the workload does not exercise reads 0. Times named *.self_s
// are CPU seconds per pass from the profile (see layers.go).
var perLayer = func() []metricSpec {
	var out []metricSpec
	for _, l := range layerNames() {
		out = append(out, metricSpec{l + ".self_s", "s"})
	}
	return append(out, []metricSpec{
		{"trace.overhead_pct", "%"},
		{"sim.events", "count"},
		{"sim.ns_per_event", "ns"},
		{"l1.read_hit_ratio", "ratio"},
		{"l1.sync_hit_ratio", "ratio"},
		{"l1.ownership_transfers", "count"},
		{"gpu.mem_instrs", "count"},
		{"gpu.sync_instrs", "count"},
		{"l2.forwards", "count"},
		{"l2.atomics", "count"},
		{"noc.flits.read", "count"},
		{"noc.flits.reg", "count"},
		{"noc.flits.wbwt", "count"},
		{"noc.flits.atomic", "count"},
		{"noc.ns_per_flit", "ns"},
		{"interconnect.xdev_flits", "count"},
		{"machine.new_ms", "ms"},
		{"workload.host_s", "s"},
		{"workload.verify_ms", "ms"},
		{"runtime.gc_s", "s"},
		{"mcheck.nodes", "count"},
		{"mcheck.allocs_per_node", "count"},
		{"mcheck.bytes_per_node", "B"},
		{"mcheck.split_ms", "ms"},
		{"mcheck.shard_s", "s"},
		{"sweepd.submit_ms", "ms"},
		{"sweepd.cache_hit_ratio", "ratio"},
		{"sweepd.queue_wait_ms", "ms"},
		{"sweepd.lease_to_complete_ms", "ms"},
		{"sweepd.lease_empty_ratio", "ratio"},
		{"sweepd.warm_submit_p90_ms", "ms"},
		{"resultcache.get_us", "us"},
		{"resultcache.put_us", "us"},
	}...)
}()

// median returns the middle of xs (the mean of the two middle values
// for an even count), or 0 for none.
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

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

// percentile returns the p-th percentile (0 < p < 100) of xs by the
// nearest-rank rule, and false when fewer than minTail samples lie
// beyond it: a tail percentile resting on a handful of samples is
// noise, so it is not reported.
func percentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	if n == 0 || p <= 0 || p >= 100 {
		return 0, false
	}
	rank := int(p/100*float64(n) + 0.999999999) // ceil, robust to float error
	if rank < 1 {
		rank = 1
	}
	if n-rank < minTail {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], true
}

// memSampler polls memory while a workload runs. Both peaks are the
// 90th percentile of their samples rather than the maximum: the live
// heap a GC cycle reports includes what was allocated while it marked,
// which swings with GC timing, and one such cycle would otherwise set
// the peak.
type memSampler struct {
	stop   chan struct{}
	done   chan struct{}
	mu     sync.Mutex
	cycles uint64
	live   []float64 // one sample per observed GC cycle, bytes
	rss    []float64 // bytes
}

func startMemSampler() *memSampler {
	m := &memSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(m.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			m.sample()
			select {
			case <-m.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return m
}

func (m *memSampler) sample() {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	rss := residentBytes()
	m.mu.Lock()
	defer m.mu.Unlock()
	if s[0].Value.Kind() == metrics.KindUint64 && s[1].Value.Kind() == metrics.KindUint64 {
		if c := s[0].Value.Uint64(); c != m.cycles {
			m.cycles = c
			m.live = append(m.live, float64(s[1].Value.Uint64()))
		}
	}
	if rss > 0 {
		m.rss = append(m.rss, rss)
	}
}

// peaksMB stops the sampler, waits for it, and returns the peak live
// heap and peak resident set in MB, less the host probe's table.
func (m *memSampler) peaksMB() (heap, rss float64) {
	close(m.stop)
	<-m.done
	m.sample()
	m.mu.Lock()
	defer m.mu.Unlock()
	return (peak(m.live) - probeTableBytes) / (1 << 20), (peak(m.rss) - probeTableBytes) / (1 << 20)
}

// peak is the 90th percentile of xs, or their maximum when too few
// samples lie beyond it.
func peak(xs []float64) float64 {
	if p, ok := percentile(xs, 90); ok {
		return p
	}
	var m float64
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

// residentBytes reads the resident set size from /proc/self/statm, or
// 0 where it is unavailable.
func residentBytes() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseUint(f[1], 10, 64)
	if err != nil {
		return 0
	}
	return float64(pages) * float64(os.Getpagesize())
}

// runtimeCounters reads cumulative allocation and GC CPU counters.
type runtimeCounters struct {
	allocObjects uint64
	allocBytes   uint64
	gcCPU        float64
}

func readRuntimeCounters() runtimeCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	var c runtimeCounters
	if s[0].Value.Kind() == metrics.KindUint64 {
		c.allocObjects = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		c.allocBytes = s[1].Value.Uint64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		c.gcCPU = s[2].Value.Float64()
	}
	return c
}

// provenance identifies the host and settings a result came from, so
// numbers from different hosts are never compared.
func provenance(o options) map[string]any {
	return map[string]any{
		"workload":      o.workload,
		"seed":          o.seed,
		"held_out_seed": heldOutSeed,
		"seconds":       o.seconds,
		"trace":         o.trace,
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"goos_goarch":   runtime.GOOS + "/" + runtime.GOARCH,
		"cpu_model":     cpuModel(),
		"started_at":    time.Now().UTC().Format(time.RFC3339),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
