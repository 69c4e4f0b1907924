// Command denovosim runs one benchmark under one configuration and
// prints the paper's three measurements plus diagnostic counters.
//
// Usage:
//
//	denovosim -bench SPM_G -config DD [-counters] [-invariants]
//	denovosim -bench SPM_G -config DD -trace out.json -metrics out.csv
//	denovosim -list
//
// Observability: -trace writes the typed protocol event trace as Chrome
// trace_event JSON (open in chrome://tracing or https://ui.perfetto.dev),
// -metrics writes epoch-sampled time-series metrics (CSV, or JSON when
// the path ends in .json), -sample-every sets the sampling interval.
// Profiling: -pprof serves net/http/pprof, -runtime-trace captures a Go
// runtime execution trace of the simulator itself.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"os"
	rtrace "runtime/trace"
	"strings"

	"denovogpu"
	"denovogpu/internal/cache"
	"denovogpu/internal/machine"
	"denovogpu/internal/obs"
	"denovogpu/internal/stats"
	msgtrace "denovogpu/internal/trace"
	"denovogpu/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("denovosim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	bench := fs.String("bench", "", "benchmark name from Table 4 (see -list)")
	config := fs.String("config", "DD", "configuration: GD, GH, DD, DD+RO, DH")
	counters := fs.Bool("counters", false, "also print diagnostic counters")
	list := fs.Bool("list", false, "list benchmarks and exit")
	sbEntries := fs.Int("sbentries", 0, "override store-buffer entries (0 = paper default 256)")
	cus := fs.Int("cus", 0, "override GPU CU count (0 = paper default 15)")
	devices := fs.Int("devices", 0, "override device count (0 = default 1; the x2 benchmarks expect 2)")
	backoff := fs.Bool("syncbackoff", false, "enable the DeNovoSync read-backoff extension")
	direct := fs.Bool("directtransfer", false, "enable direct cache-to-cache transfers")
	lazy := fs.Bool("lazywrites", false, "delay DeNovo data-write registration to global releases")
	invariants := fs.Bool("invariants", false, "arm the protocol invariant sanitizer (hot-path assertions + post-kernel checks; reports stay byte-identical)")
	msgTraceN := fs.Uint64("msgtrace", 0, "print the first N protocol messages to stderr (single-device machines only)")
	tracePath := fs.String("trace", "", "write the event trace as Chrome trace_event JSON to this file")
	traceCap := fs.Int("trace-cap", 0, "event-trace ring capacity in events (0 = default 1M; oldest dropped beyond it)")
	metricsPath := fs.String("metrics", "", "write epoch-sampled metrics to this file (CSV, or JSON if it ends in .json)")
	sampleEvery := fs.Uint64("sample-every", obs.DefaultSampleEvery, "metrics sampling interval in cycles")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	runtimeTrace := fs.String("runtime-trace", "", "write a Go runtime execution trace of the simulator to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, name := range denovogpu.Workloads() {
			w, _ := denovogpu.WorkloadByName(name)
			fmt.Fprintf(stdout, "%-10s %-12s %s\n", w.Name, w.Category, w.Input)
		}
		return 0
	}
	if *bench == "" {
		fmt.Fprintln(stderr, "denovosim: -bench is required (try -list)")
		return 2
	}
	cfg, err := denovogpu.ConfigByName(*config)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if *sbEntries > cache.MaxStoreBufferEntries {
		fmt.Fprintf(stderr, "denovosim: -sbentries %d exceeds the store buffer limit of %d\n", *sbEntries, cache.MaxStoreBufferEntries)
		return 2
	}
	if *sbEntries > 0 {
		cfg.SBEntries = *sbEntries
	}
	if *cus > 0 {
		cfg.NumCUs = *cus
	}
	if *devices > 0 {
		cfg.Devices = *devices
	}
	if *msgTraceN > 0 && cfg.Devices > 1 {
		// The message tap sits on one mesh: device 0's, with no view of
		// the other devices or the link between them.
		fmt.Fprintln(stderr, "denovosim: -msgtrace sees only device 0's mesh and no inter-device link traffic; use -trace on multi-device machines")
		return 2
	}
	cfg.SyncBackoff = *backoff
	cfg.DirectTransfer = *direct
	cfg.LazyWrites = cfg.LazyWrites || *lazy
	cfg.Invariants = *invariants

	w, err := denovogpu.WorkloadByName(*bench)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(stderr, "denovosim: pprof server: %v\n", err)
			}
		}()
		fmt.Fprintf(stderr, "denovosim: pprof at http://%s/debug/pprof/\n", *pprofAddr)
	}
	if *runtimeTrace != "" {
		f, err := os.Create(*runtimeTrace)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if err := rtrace.Start(f); err != nil {
			fmt.Fprintln(stderr, err)
			f.Close()
			return 1
		}
		defer func() {
			rtrace.Stop()
			f.Close()
		}()
	}

	o := obsOpts{
		tracePath:   *tracePath,
		traceCap:    *traceCap,
		metricsPath: *metricsPath,
		sampleEvery: *sampleEvery,
	}
	rep, err := runTraced(cfg, w, *msgTraceN, stderr, o)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	fmt.Fprintf(stdout, "benchmark   %s\nconfig      %s\n", rep.Workload, rep.Config)
	fmt.Fprintf(stdout, "exec time   %d cycles (%.3f ms @ 700 MHz)\n", rep.Cycles, float64(rep.Cycles)/700e3)
	fmt.Fprintf(stdout, "energy      %.2f uJ total\n", rep.TotalEnergyPJ()/1e6)
	for c := stats.Component(0); c < stats.NumComponents; c++ {
		fmt.Fprintf(stdout, "  %-10s %12.2f uJ\n", c, rep.EnergyPJ[c]/1e6)
	}
	fmt.Fprintf(stdout, "traffic     %d flit crossings\n", rep.TotalFlits())
	for c := stats.TrafficClass(0); c < stats.NumTrafficClasses; c++ {
		fmt.Fprintf(stdout, "  %-10s %12d\n", c, rep.Flits[c])
	}
	if *counters {
		fmt.Fprintln(stdout, "counters")
		for _, n := range rep.Stats.Names() {
			fmt.Fprintf(stdout, "  %-32s %12d\n", n, rep.Stats.Get(n))
		}
	}
	return 0
}

// obsOpts carries the observability output options into runTraced.
type obsOpts struct {
	tracePath   string
	traceCap    int
	metricsPath string
	sampleEvery uint64
}

// runTraced runs the workload with the requested observability attached:
// an optional first-N-messages dump to tw, an optional event trace, and
// optional epoch-sampled metrics.
func runTraced(cfg denovogpu.Config, w workload.Workload, msgN uint64, tw io.Writer, o obsOpts) (denovogpu.Report, error) {
	m := machine.New(cfg)
	if msgN > 0 {
		m.Mesh().SetTap(msgtrace.New(tw, m.Engine(), msgN))
	}
	var rec *obs.Recorder
	var sampler *obs.Sampler
	if o.tracePath != "" {
		rec = m.NewRecorder(o.traceCap)
	}
	if o.metricsPath != "" {
		sampler = obs.NewSampler(o.sampleEvery)
	}
	if rec != nil || sampler != nil {
		m.SetObservability(rec, sampler)
	}
	w.Host(m)
	if err := m.Err(); err != nil {
		return denovogpu.Report{}, err
	}
	if w.Verify != nil {
		if err := w.Verify(m); err != nil {
			return denovogpu.Report{}, fmt.Errorf("verification failed: %w", err)
		}
	}
	if rec != nil {
		if err := writeTo(o.tracePath, rec.WriteChromeTrace); err != nil {
			return denovogpu.Report{}, err
		}
	}
	if sampler != nil {
		write := sampler.Series().WriteCSV
		if strings.HasSuffix(o.metricsPath, ".json") {
			write = sampler.Series().WriteJSON
		}
		if err := writeTo(o.metricsPath, write); err != nil {
			return denovogpu.Report{}, err
		}
	}
	st := m.Stats()
	rep := denovogpu.Report{
		Config: cfg.Name(), Workload: w.Name,
		Cycles: st.Cycles, Events: m.Engine().Fired(),
		EnergyPJ: st.EnergyPJ, Flits: st.Flits, Stats: st,
	}
	if sampler != nil {
		rep.Timeline = sampler.Series()
	}
	return rep, nil
}

// writeTo creates path, streams write into it, and reports the first
// error from either.
func writeTo(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
