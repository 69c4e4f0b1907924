package mcheck

import (
	"testing"

	"denovogpu/internal/litmus"
	"denovogpu/internal/machine"
)

// dporCell is one (program, configuration) exploration.
type dporCell struct {
	p   *litmus.Program
	cfg machine.Config
}

// benchCells resolves (program, configuration) name pairs against the
// catalog and Configs().
func benchCells(tb testing.TB, pairs [][2]string) []dporCell {
	tb.Helper()
	var cells []dporCell
	for _, pc := range pairs {
		var c dporCell
		for _, e := range litmus.Catalog() {
			if e.Program.Name == pc[0] {
				c.p = e.Program
			}
		}
		found := false
		for _, cfg := range Configs() {
			if cfg.Name() == pc[1] {
				c.cfg, found = cfg, true
			}
		}
		if c.p == nil || !found {
			tb.Fatalf("no catalog cell %s/%s", pc[0], pc[1])
		}
		cells = append(cells, c)
	}
	return cells
}

// checkWorkloadCells are the catalog cells of the repository
// benchmark's check workload: the ones that complete at the default
// budget.
var checkWorkloadCells = [][2]string{
	{"ISA2+transitive", "DH"},
	{"IRIW+scoped", "GH"},
	{"IRIW+scoped", "GD"},
	{"MP+preload", "DD"},
	{"MP+preload", "DD+RO"},
	{"MP+preload", "DH"},
	{"MP+local-samecu", "DD"},
}

// BenchmarkDPOR explores the check workload's catalog cells serially
// with the default explorer and reports DPOR nodes per second.
//
//	go test ./internal/mcheck -run '^$' -bench BenchmarkDPOR
func BenchmarkDPOR(b *testing.B) {
	cells := benchCells(b, checkWorkloadCells)
	b.ReportAllocs()
	nodes := 0
	for i := 0; i < b.N; i++ {
		for _, c := range cells {
			r, err := Check(c.cfg, c.p, Options{})
			if err != nil {
				b.Fatal(err)
			}
			if r.Violation != nil {
				b.Fatal(r.Violation)
			}
			nodes += r.States
		}
	}
	b.ReportMetric(float64(nodes)/b.Elapsed().Seconds(), "nodes/s")
	b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
}

// TestDPORAllocsPerNode gates the DPOR hot path's allocation rate:
// exploration (model and oracle built beforehand) must average at most
// one heap allocation per node. Steady-state nodes allocate nothing;
// what remains is the first visit of each depth, new outcomes and the
// result map.
func TestDPORAllocsPerNode(t *testing.T) {
	for _, c := range benchCells(t, [][2]string{{"MP+preload", "DD"}, {"ISA2+transitive", "DH"}}) {
		m, err := newModel(c.cfg, c.p)
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := litmus.Oracle(c.p, c.cfg.Model, 0)
		if err != nil {
			t.Fatal(err)
		}
		var states int
		allocs := testing.AllocsPerRun(1, func() {
			var err error
			states, _, _, err = m.exploreDPOR(oracle, DefaultBudget, Unit{})
			if err != nil {
				t.Fatal(err)
			}
		})
		perNode := allocs / float64(states)
		t.Logf("%s/%s: %d nodes, %.0f allocs, %.3f allocs/node", c.p.Name, c.cfg.Name(), states, allocs, perNode)
		if perNode > 1 {
			t.Errorf("%s/%s: %.3f allocs/node, want <= 1", c.p.Name, c.cfg.Name(), perNode)
		}
	}
}
