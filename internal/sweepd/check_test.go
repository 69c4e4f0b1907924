package sweepd

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"denovogpu"
	"denovogpu/internal/resultcache"
)

// TestCheckCellsDistributed is the sharded-checker differential wall
// in miniature: a check cell split into prefix units, executed by two
// concurrent pull workers through the coordinator, must merge to the
// byte-identical verdict of a serial in-process run — and a warm
// re-submit must complete entirely from the result cache.
func TestCheckCellsDistributed(t *testing.T) {
	cache, err := resultcache.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	_, srv, client := newTestServer(t, Options{Cache: cache})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := &Worker{Server: srv.URL, Name: fmt.Sprintf("w%d", i), IdlePoll: 5 * time.Millisecond}
			_ = w.Run(ctx)
		}(i)
	}
	defer wg.Wait()
	defer cancel()

	// Serial reference verdict.
	spec := denovogpu.CheckCellSpec{Config: denovogpu.ConfigSpec{Name: "DD"}, Program: "SB+sync"}
	serialBytes, _, err := denovogpu.RunCheckCell(spec)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := denovogpu.UnmarshalCheckReport(serialBytes)
	if err != nil {
		t.Fatal(err)
	}
	wantVerdict, err := denovogpu.MergeCheckVerdict([]denovogpu.CheckReport{serial})
	if err != nil {
		t.Fatal(err)
	}
	want, err := denovogpu.MarshalCheckVerdict(wantVerdict)
	if err != nil {
		t.Fatal(err)
	}

	// Distributed: split client-side, submit the units as one job.
	units, base, err := denovogpu.SplitCheckCell(spec, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(units) < 4 {
		t.Fatalf("split produced only %d units", len(units))
	}
	var cells []denovogpu.CellSpec
	for _, u := range units {
		u := u
		cells = append(cells, denovogpu.CellSpec{Check: &u})
	}
	sr, err := client.Submit(ctx, denovogpu.MatrixSpec{Cells: cells})
	if err != nil {
		t.Fatal(err)
	}
	status, err := client.Wait(ctx, sr.Status.ID, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if status.State != "done" || status.Done != len(cells) || status.CacheHits != 0 {
		t.Fatalf("cold check job finished %+v", status)
	}

	reports := []denovogpu.CheckReport{base}
	for i := range cells {
		data, err := client.CellReport(ctx, status.ID, i)
		if err != nil {
			t.Fatalf("unit %d report: %v", i, err)
		}
		r, err := denovogpu.UnmarshalCheckReport(data)
		if err != nil {
			t.Fatalf("unit %d: %v", i, err)
		}
		if r.Shard == nil || r.Shard.Index != i {
			t.Fatalf("unit %d report carries shard %+v", i, r.Shard)
		}
		reports = append(reports, r)
	}
	gotVerdict, err := denovogpu.MergeCheckVerdict(reports)
	if err != nil {
		t.Fatal(err)
	}
	got, err := denovogpu.MarshalCheckVerdict(gotVerdict)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("distributed verdict diverges from serial:\n--- serial ---\n%s\n--- distributed ---\n%s", want, got)
	}

	// Warm re-submit: identical unit specs, fresh job, zero exploration.
	sr2, err := client.Submit(ctx, denovogpu.MatrixSpec{Cells: cells})
	if err != nil {
		t.Fatal(err)
	}
	if sr2.Deduped {
		t.Fatal("finished job deduped a re-submit")
	}
	if sr2.Status.State != "done" || sr2.Status.CacheHits != len(cells) {
		t.Fatalf("warm check run not 100%% cache hits: %+v", sr2.Status)
	}
}

// TestSubmitCheckValidation: malformed check cells are rejected whole
// at submit, before any worker sees them.
func TestSubmitCheckValidation(t *testing.T) {
	_, _, client := newTestServer(t, Options{})
	ctx := context.Background()

	for name, cell := range map[string]denovogpu.CellSpec{
		"unknown program": {Check: &denovogpu.CheckCellSpec{
			Config: denovogpu.ConfigSpec{Name: "DD"}, Program: "NOPE"}},
		"unknown config": {Check: &denovogpu.CheckCellSpec{
			Config: denovogpu.ConfigSpec{Name: "NOPE"}, Program: "MP"}},
		"simulation fields too": {Workload: "LAVA", Check: &denovogpu.CheckCellSpec{
			Config: denovogpu.ConfigSpec{Name: "DD"}, Program: "MP"}},
	} {
		if _, err := client.Submit(ctx, denovogpu.MatrixSpec{Cells: []denovogpu.CellSpec{cell}}); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestSubmitCheckRejectsExplorer: a check cell still carrying the
// retired "explorer" field is refused with a 400 by the strict
// decoder, while the same cell without it is accepted.
func TestSubmitCheckRejectsExplorer(t *testing.T) {
	_, srv, _ := newTestServer(t, Options{})
	for body, want := range map[string]int{
		`{"cells":[{"check":{"config":{"name":"DD"},"program":"MP","explorer":"dpor"}}]}`: http.StatusBadRequest,
		`{"cells":[{"check":{"config":{"name":"DD"},"program":"MP"}}]}`:                   http.StatusCreated,
	} {
		resp, err := http.Post(srv.URL+"/api/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("%s: status %d, want %d", body, resp.StatusCode, want)
		}
	}
}

// TestMalformedShardFailsCell: a check unit whose sleep entry names a
// thread the program does not have fails its cell with the checker's
// typed error; the worker survives and runs the next job.
func TestMalformedShardFailsCell(t *testing.T) {
	_, srv, client := newTestServer(t, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &Worker{Server: srv.URL, Name: "w1", IdlePoll: 5 * time.Millisecond}
	go func() { _ = w.Run(ctx) }()

	for _, tc := range []struct {
		shard *denovogpu.CheckShard
		state string
	}{
		{&denovogpu.CheckShard{Sleep: []uint32{0x01C80000}}, "failed"},
		{nil, "done"},
	} {
		cell := denovogpu.CellSpec{Check: &denovogpu.CheckCellSpec{
			Config: denovogpu.ConfigSpec{Name: "DD"}, Program: "MP", Shard: tc.shard}}
		sr, err := client.Submit(ctx, denovogpu.MatrixSpec{Cells: []denovogpu.CellSpec{cell}})
		if err != nil {
			t.Fatal(err)
		}
		status, err := client.Wait(ctx, sr.Status.ID, 10*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if status.State != tc.state {
			t.Fatalf("shard %+v: job %+v, want state %s", tc.shard, status, tc.state)
		}
		if tc.state == "failed" && !strings.Contains(status.Error, "mcheck: shard sleep[0]") {
			t.Fatalf("job error %q, want the checker's unit error", status.Error)
		}
	}
}

// TestCheckCellEvents: a check cell's progress events carry its
// display name and the explored-states count in the Events field.
func TestCheckCellEvents(t *testing.T) {
	coord, srv, client := newTestServer(t, Options{})
	_ = coord
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w := &Worker{Server: srv.URL, Name: "w0", IdlePoll: 5 * time.Millisecond}
		_ = w.Run(ctx)
	}()
	defer wg.Wait()
	defer cancel()

	cell := denovogpu.CellSpec{Check: &denovogpu.CheckCellSpec{
		Config: denovogpu.ConfigSpec{Name: "DD"}, Program: "MP"}}
	sr, err := client.Submit(ctx, denovogpu.MatrixSpec{Cells: []denovogpu.CellSpec{cell}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Wait(ctx, sr.Status.ID, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	evs, done, err := coord.Events(sr.Status.ID, 0)
	if err != nil || !done {
		t.Fatalf("events: %v done=%v", err, done)
	}
	sawDone := false
	for _, ev := range evs {
		if ev.Workload != "check:MP" || ev.Config != "DD" {
			t.Errorf("event names %q under %q", ev.Workload, ev.Config)
		}
		if ev.State == StateDone {
			sawDone = true
			if ev.Events == 0 {
				t.Error("done event has zero explored states")
			}
		}
	}
	if !sawDone {
		t.Error("no done event")
	}
}
