package denovogpu_test

import (
	"encoding/json"
	"strings"
	"testing"

	"denovogpu"
)

func TestMatrixSpecCrossProduct(t *testing.T) {
	spec := denovogpu.MatrixSpec{
		Configs:   []denovogpu.ConfigSpec{{Name: "GD"}, {Name: "DD"}},
		Workloads: []string{"LAVA", "BFS"},
		Seeds:     []uint64{0, 7},
		Cells:     []denovogpu.CellSpec{{Config: denovogpu.ConfigSpec{Name: "DH"}, Workload: "UTS"}},
	}
	cells := spec.CellSpecs()
	if len(cells) != 2*2*2+1 {
		t.Fatalf("got %d cells, want 9", len(cells))
	}
	// Config-major, then workload, then seed; explicit cells appended.
	if cells[0].Config.Name != "GD" || cells[0].Workload != "LAVA" || cells[0].Seed != 0 {
		t.Errorf("cell 0 = %+v", cells[0])
	}
	if cells[1].Seed != 7 {
		t.Errorf("cell 1 = %+v, want seed 7", cells[1])
	}
	if cells[2].Workload != "BFS" {
		t.Errorf("cell 2 = %+v, want BFS", cells[2])
	}
	if last := cells[len(cells)-1]; last.Workload != "UTS" || last.Config.Name != "DH" {
		t.Errorf("explicit cell = %+v", last)
	}
}

func TestCellSpecResolution(t *testing.T) {
	// Seeded graph cell resolves to a re-parameterized generator.
	cell, err := (denovogpu.CellSpec{Config: denovogpu.ConfigSpec{Name: "DD"}, Workload: "BFS", Seed: 9}).Cell()
	if err != nil {
		t.Fatal(err)
	}
	if cell.Workload.Name != "BFS" || !strings.Contains(cell.Workload.Input, "seed 9") {
		t.Errorf("seeded BFS cell input = %q, want the seed in it", cell.Workload.Input)
	}
	// Seeding a fixed Table 4 benchmark is an error.
	if _, err := (denovogpu.CellSpec{Config: denovogpu.ConfigSpec{Name: "GD"}, Workload: "LAVA", Seed: 3}).Cell(); err == nil {
		t.Error("seeded LAVA resolved, want error")
	}
	// A raw config spec round-trips through JSON.
	cfg := denovogpu.DDRO()
	cfg.NumCUs = 4
	data, err := json.Marshal(denovogpu.CellSpec{Config: denovogpu.ConfigSpec{Raw: &cfg}, Workload: "SPM_L"})
	if err != nil {
		t.Fatal(err)
	}
	var back denovogpu.CellSpec
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	got, err := back.Cell()
	if err != nil {
		t.Fatal(err)
	}
	if got.Config.NumCUs != 4 || !got.Config.ReadOnlyOpt {
		t.Errorf("raw config round trip lost fields: %+v", got.Config)
	}
	// Both name and raw set, neither set: errors.
	if _, err := (denovogpu.ConfigSpec{Name: "GD", Raw: &cfg}).Resolve(); err == nil {
		t.Error("ambiguous config spec resolved, want error")
	}
	if _, err := (denovogpu.ConfigSpec{}).Resolve(); err == nil {
		t.Error("empty config spec resolved, want error")
	}
	big := denovogpu.DD()
	big.SBEntries = 1<<16 + 1
	if _, err := (denovogpu.ConfigSpec{Raw: &big}).Resolve(); err == nil || !strings.Contains(err.Error(), "store-buffer entries") {
		t.Errorf("unaddressable store buffer resolved: %v", err)
	}
}

func TestPinnedCellsShape(t *testing.T) {
	cells := denovogpu.PinnedCells()
	if len(cells) != 44 {
		t.Fatalf("pinned matrix has %d cells, want 44", len(cells))
	}
	seen := make(map[string]bool)
	for _, c := range cells {
		if _, err := c.Cell(); err != nil {
			t.Errorf("pinned cell %+v does not resolve: %v", c, err)
		}
		name := denovogpu.ReportFileName(c.Workload, c.Config.Name)
		if seen[name] {
			t.Errorf("duplicate pinned cell %s", name)
		}
		seen[name] = true
		if strings.Contains(name, "+") {
			t.Errorf("report file name %q contains '+'", name)
		}
	}
}

func TestUnmarshalReportRejectsUnknownDimensions(t *testing.T) {
	if _, err := denovogpu.UnmarshalReport([]byte(`{"config":"GD","workload":"X","energy_pj":{"flux-capacitor":1}}`)); err == nil {
		t.Error("unknown energy component parsed, want error")
	}
	if _, err := denovogpu.UnmarshalReport([]byte(`{"config":"GD","workload":"X","flits":{"warp-drive":1}}`)); err == nil {
		t.Error("unknown traffic class parsed, want error")
	}
	if _, err := denovogpu.UnmarshalReport([]byte(`not json`)); err == nil {
		t.Error("garbage parsed, want error")
	}
}
