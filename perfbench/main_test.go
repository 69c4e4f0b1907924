package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"denovogpu"
	"denovogpu/internal/sweepd"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, list := range [][]metricSpec{endToEnd, perLayer} {
		for _, m := range list {
			if !nameRE.MatchString(m.name) {
				t.Errorf("metric name %q does not match %s", m.name, nameRE)
			}
			if !unitRE.MatchString(m.unit) {
				t.Errorf("metric %s: unit %q does not match %s", m.name, m.unit, unitRE)
			}
			if seen[m.name] {
				t.Errorf("metric %s listed twice", m.name)
			}
			seen[m.name] = true
		}
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json's workloads and
// metric lists in step with what the program reports.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not in the program", w.Name)
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		units := map[string]string{}
		for _, m := range want {
			units[m.name] = m.unit
		}
		for _, m := range got {
			if u, ok := units[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s: BENCHMARK.json metric %s (%s) is not the program's (unit %q)", kind, m.Name, m.Unit, u)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

// TestLayerTableCoversInternal: every package under internal/ has a
// layer, so a new package cannot hide in "other".
func TestLayerTableCoversInternal(t *testing.T) {
	root := filepath.Join("..", "internal")
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() || d.Name() == "testdata" {
			return err
		}
		entries, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range entries {
			n := e.Name()
			if strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") {
				rel, err := filepath.Rel("..", path)
				if err != nil {
					return err
				}
				pkg := modulePath + "/" + filepath.ToSlash(rel)
				if l := moduleLayer(pkg); l == "" || l == layerOther {
					t.Errorf("package %s has no layer in packageLayers", pkg)
				}
				break
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if l := moduleLayer(modulePath); l != "api" {
		t.Errorf("root package layer = %q, want api", l)
	}
}

func TestClassify(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"denovogpu/internal/noc.(*Mesh).Send", "denovogpu/internal/gpu.(*CU).issue"}, "noc"},
		{[]string{"denovogpu/internal/workload/apps.init.func3"}, "workload"},
		{[]string{"denovogpu.CellKey"}, "api"},
		{[]string{"runtime.gogo", "runtime.coroswitch_m", "runtime.coroswitch", "iter.Pull[...].func2", "denovogpu/internal/gpu.(*CU).step"}, "coroutine"},
		{[]string{"runtime.mallocgc", "runtime.newobject", "denovogpu/internal/sim.(*Engine).Schedule"}, "sim"},
		{[]string{"crypto/sha256.block", "crypto/sha256.(*Digest).Write", "denovogpu.CellKey"}, "api"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime"},
		{[]string{"syscall.Syscall", "net.(*conn).Read", "net/http.(*conn).serve"}, "other"},
		{[]string{"main.run", "main.main"}, "bench"},
		{[]string{"denovogpu/internal/wordmap.(*Map[go.shape.struct { denovogpu/internal/gpucoh.val uint32 }]).Get", "denovogpu/internal/gpucoh.(*Controller).ReadLine"}, "wordmap"},
		{[]string{"internal/runtime/atomic.(*Uint32).CompareAndSwap", "runtime.coroswitch_m", "runtime.mcall"}, "coroutine"},
		{[]string{"internal/runtime/maps.(*Map).getWithKeySmall", "runtime.mapaccess1", "denovogpu/internal/stats.(*Stats).Get"}, "stats"},
		{[]string{"gogo"}, "runtime"},
		{nil, "other"},
	} {
		if got := classify(c.stack); got != c.want {
			t.Errorf("classify(%q) = %s, want %s", c.stack, got, c.want)
		}
	}
}

// TestParseProfile profiles a busy loop and checks the decoder finds
// its samples and charges them to this package.
func TestParseProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	x := 0
	for time.Now().Before(deadline) {
		x += spin(1000)
	}
	pprof.StopCPUProfile()
	samples, err := parseProfile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var bench, total int64
	for _, s := range samples {
		total += s.cpuNanos
		if classify(s.stack) == "bench" {
			bench += s.cpuNanos
		}
	}
	if total == 0 || bench < total/2 {
		t.Errorf("profile: %d ns total, %d ns charged to bench (x=%d)", total, bench, x)
	}
}

//go:noinline
func spin(n int) int {
	s := 0
	for i := 0; i < n; i++ {
		s += i * i
	}
	return s
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // reversed, so the helper must sort
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		p    float64
		ok   bool
		want float64
	}{
		{100, 90, true, 90},
		{99, 90, false, 0},
		{20, 50, true, 10},
		{19, 50, false, 0},
		{1000, 99, true, 990},
		{999, 99, false, 0}, // rank 990: only 9 beyond
	} {
		got, ok := percentile(seq(c.n), c.p)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("percentile(n=%d, p%.0f) = %v, %t; want %v, %t", c.n, c.p, got, ok, c.want, c.ok)
		}
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

// TestGoldenGateRejectsCorruptReport runs a pinned cell, passes it
// through the gate, then corrupts the report and the golden in turn.
func TestGoldenGateRejectsCorruptReport(t *testing.T) {
	cells, err := simAppsCells("..", 1)
	if err != nil {
		t.Fatal(err)
	}
	var cell *simCell
	for i := range cells {
		if cells[i].label == "LAVA/GD" {
			cell = &cells[i]
		}
	}
	if cell == nil || cell.golden == nil {
		t.Fatal("LAVA/GD is not a pinned cell of sim-apps")
	}
	_, rep, err := runCell(*cell, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkGolden(cell.label, rep, cell.golden); err != nil {
		t.Fatalf("clean report rejected: %v", err)
	}
	bad := rep
	bad.Cycles++
	if checkGolden(cell.label, bad, cell.golden) == nil {
		t.Error("gate accepted a report with a corrupted cycle count")
	}
	golden := append([]byte(nil), cell.golden...)
	golden[len(golden)/2] ^= 1
	if checkGolden(cell.label, rep, golden) == nil {
		t.Error("gate accepted a report against a corrupted golden")
	}
}

func TestResultLineNeedsEveryMetric(t *testing.T) {
	res := &result{attempted: 3, metrics: map[string]float64{}}
	for _, m := range endToEnd {
		res.metrics[m.name] = 1
	}
	line, err := resultLine(res, endToEnd)
	if err != nil || !line.Correct || len(line.Metrics) != len(endToEnd) {
		t.Fatalf("resultLine = %+v, %v", line, err)
	}
	res.fail("one op failed")
	if line, _ := resultLine(res, endToEnd); line.Correct || line.Failed != 1 {
		t.Errorf("a failure must make the run incorrect: %+v", line)
	}
	delete(res.metrics, endToEnd[0].name)
	if _, err := resultLine(res, endToEnd); err == nil {
		t.Error("resultLine accepted a missing metric")
	}
}

func TestFoldDevices(t *testing.T) {
	cells, err := simSyncCells("..", 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		if c.label != "UTSx2/DDx2" {
			continue
		}
		r, rep, err := runCell(c, nil)
		if err != nil {
			t.Fatal(err)
		}
		var d1 uint64
		for _, n := range rep.Stats.Names() {
			if len(n) > 3 && n[:3] == "d1." {
				d1 += rep.Stats.Get(n)
			}
		}
		if d1 == 0 {
			t.Fatal("2-device cell has no d1. counters")
		}
		for k := range r.counters {
			if len(k) > 3 && k[:3] == "d1." {
				t.Errorf("counter %s kept its device prefix", k)
			}
		}
		return
	}
	t.Fatal("sim-sync has no UTSx2/DDx2 cell")
}

// TestServiceRecordsRoutes deploys the in-process service, sweeps one
// pinned cell through it and checks the answer and the route records.
func TestServiceRecordsRoutes(t *testing.T) {
	routes := newRouteRecorder(newTracer())
	s, err := startService(t.TempDir(), routes)
	if err != nil {
		t.Fatal(err)
	}
	defer s.stop()
	ctx := context.Background()
	spec := denovogpu.MatrixSpec{Cells: []denovogpu.CellSpec{{Config: denovogpu.ConfigSpec{Name: "GD"}, Workload: "LAVA"}}}
	sr, err := s.client.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.client.StreamEvents(ctx, sr.Status.ID, func(sweepd.Event) error { return nil }); err != nil {
		t.Fatal(err)
	}
	got, err := s.client.CellReport(ctx, sr.Status.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("..", goldenDir, "LAVA_GD.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("swept LAVA/GD report differs from its golden file")
	}
	warm, err := s.client.Submit(ctx, spec)
	if err != nil || warm.Status.State != "done" || warm.Status.CacheHits != 1 {
		t.Fatalf("warm resubmit = %+v, %v; want done from the cache", warm.Status, err)
	}
	if n := len(routes.route("POST /api/v1/jobs").ms); n != 2 {
		t.Errorf("recorded %d submits, want 2", n)
	}
	if n := routes.route("POST /api/v1/complete").statuses[http.StatusOK]; n != 1 {
		t.Errorf("recorded %d completes with 200, want 1", n)
	}
	if n := routes.route("POST /api/v1/lease").statuses[http.StatusOK]; n != 1 {
		t.Errorf("recorded %d granted leases, want 1", n)
	}
}
