package mcheck

import (
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"denovogpu/internal/litmus"
	"denovogpu/internal/machine"
)

// TestMeasureExplorers is a manual measurement harness, not a CI test:
//
//	MCHECK_MEASURE=prog1,prog2 [MCHECK_MEASURE_CFG=DD,DH] \
//	  [MCHECK_MEASURE_EXPLORER=dpor] go test -run TestMeasureExplorers -v
//
// It prints, per (config, program, explorer): states, outcomes, wall
// time, and the peak live heap sampled while the exploration ran (the
// number that separates the O(depth) DPOR explorer from the
// O(visited) sleep-set table).
func TestMeasureExplorers(t *testing.T) {
	sel := os.Getenv("MCHECK_MEASURE")
	if sel == "" {
		t.Skip("set MCHECK_MEASURE to a comma-separated program list")
	}
	want := map[string]bool{}
	for _, n := range split(sel) {
		want[n] = true
	}
	wantCfg := map[string]bool{}
	for _, n := range split(os.Getenv("MCHECK_MEASURE_CFG")) {
		wantCfg[n] = true
	}
	explorers := []Explorer{ExplorerDPOR, ExplorerSleepSet}
	if name := os.Getenv("MCHECK_MEASURE_EXPLORER"); name != "" {
		ex, err := ExplorerByName(name)
		if err != nil {
			t.Fatal(err)
		}
		explorers = []Explorer{ex}
	}
	for _, e := range litmus.Catalog() {
		if !want[e.Program.Name] {
			continue
		}
		for _, cfg := range Configs() {
			if cfg.Protocol != machine.ProtoDeNovo {
				continue
			}
			if len(wantCfg) > 0 && !wantCfg[cfg.Name()] {
				continue
			}
			for _, ex := range explorers {
				runtime.GC()
				var m0 runtime.MemStats
				runtime.ReadMemStats(&m0)
				peak := uint64(0)
				stop := make(chan struct{})
				done := make(chan struct{})
				go func() {
					defer close(done)
					var ms runtime.MemStats
					for {
						select {
						case <-stop:
							return
						case <-time.After(20 * time.Millisecond):
							runtime.ReadMemStats(&ms)
							if ms.HeapAlloc > peak {
								peak = ms.HeapAlloc
							}
						}
					}
				}()
				st := time.Now()
				res, err := Check(cfg, e.Program, Options{Explorer: ex, Budget: 40_000_000})
				el := time.Since(st)
				close(stop)
				<-done
				if err != nil {
					fmt.Printf("%-8s %-16s %-8s ERR %v (%.1fs)\n", cfg.Name(), e.Program.Name, ex, err, el.Seconds())
					continue
				}
				fmt.Printf("%-8s %-16s %-8s %9d states %2d outcomes %7.2fs %7.1f MB peak heap\n",
					cfg.Name(), e.Program.Name, ex, res.States, len(res.Outcomes), el.Seconds(),
					float64(peak)/1e6)
			}
		}
	}
}

func split(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	return out
}
