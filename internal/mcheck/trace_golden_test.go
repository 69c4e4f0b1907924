package mcheck

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"denovogpu/internal/litmus"
	"denovogpu/internal/machine"
)

var update = flag.Bool("update", false, "rewrite testdata/fault_traces.golden with the current counterexamples")

const faultTracesGolden = "fault_traces.golden"

// TestFaultTracesGolden pins the exact counterexample every explorer
// reports with the acquire-invalidation fault injected: over the
// catalog × Configs(), the verdict of each cell and, for each
// violation, its invariant, detail, observed outcome and full
// transition trace, under the DPOR explorer, the sleep-set
// conformance oracle and a 64-unit split (the split phase's own violation, else the
// lowest-indexed unit's, exactly as CheckSharded merges them).
// Trace labels are rendered off the hot path, so this golden is what
// keeps them byte-identical. The heavy DeNovo cells are skipped
// (heavyCell): DPOR cannot complete them at a test budget.
//
// Regenerate after an intentional model change with:
//
//	go test ./internal/mcheck -run TestFaultTracesGolden -update
func TestFaultTracesGolden(t *testing.T) {
	var b bytes.Buffer
	for _, cfg := range Configs() {
		cfg.FaultDisableAcquireInval = true
		for _, e := range litmus.Catalog() {
			p := e.Program
			if heavyCell(cfg, p) {
				continue
			}
			for _, ex := range explorers {
				r, err := ex.check(cfg, p, Options{})
				if err != nil {
					t.Fatalf("%s %s %s: %v", ex.name, cfg.Name(), p.Name, err)
				}
				writeVerdict(&b, ex.name, cfg, p, r.Violation)
			}
			v, err := splitViolation(cfg, p, 64)
			if err != nil {
				t.Fatalf("split64 %s %s: %v", cfg.Name(), p.Name, err)
			}
			writeVerdict(&b, "split64", cfg, p, v)
		}
	}

	path := filepath.Join("testdata", faultTracesGolden)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(b.Bytes(), want) {
		got, exp := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(got) || i < len(exp); i++ {
			var g, w string
			if i < len(got) {
				g = got[i]
			}
			if i < len(exp) {
				w = exp[i]
			}
			if g != w {
				t.Fatalf("counterexamples differ from %s at line %d:\n  got:  %q\n  want: %q", path, i+1, g, w)
			}
		}
	}
}

// splitViolation splits the exploration into at least target units
// and runs them serially, returning the violation a sharded run
// reports.
func splitViolation(cfg machine.Config, p *litmus.Program, target int) (*Violation, error) {
	plan, err := Split(cfg, p, Options{}, target)
	if err != nil {
		return nil, err
	}
	results := make([]*Result, 0, len(plan.Units))
	for _, u := range plan.Units {
		r, err := CheckShard(cfg, p, Options{}, u)
		if err != nil {
			return nil, err
		}
		results = append(results, r)
		if r.Violation != nil {
			break
		}
	}
	return MergeShardResults(plan, results).Violation, nil
}

func writeVerdict(b *bytes.Buffer, explorer string, cfg machine.Config, p *litmus.Program, v *Violation) {
	fmt.Fprintf(b, "%s %s %s: ", explorer, cfg.Name(), p.Name)
	if v == nil {
		b.WriteString("clean\n")
		return
	}
	fmt.Fprintf(b, "%s\n  detail: %s\n", v.Invariant, v.Detail)
	if v.Observed != nil {
		fmt.Fprintf(b, "  observed: %s\n", v.Observed.Key())
	}
	for _, step := range v.Trace {
		fmt.Fprintf(b, "    %s\n", step)
	}
}
