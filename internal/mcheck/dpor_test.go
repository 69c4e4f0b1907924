package mcheck

import (
	"errors"
	"flag"
	"slices"
	"sort"
	"testing"

	"denovogpu/internal/litmus"
	"denovogpu/internal/machine"
)

// outcomeKeys returns the sorted outcome-key set of a result.
func outcomeKeys(m map[string]litmus.Outcome) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// full widens TestDPORConformance to the heavy cells (see heavyCell):
// tens of minutes of wall and about a gigabyte of oracle visited table
// per IRIW cell, so it is for the CI mcheck job, not the default run.
var full = flag.Bool("full", false, "TestDPORConformance: also cover the heavy DeNovo cells at full depth")

// oracleBudget is the conformance oracle's node budget: every catalog
// cell fits inside it.
const oracleBudget = 2_000_000

// dporBudgetSkips are the cells source-DPOR cannot finish at
// DefaultBudget (EXPERIMENTS.md, "Stateless source-DPOR vs the
// visited-table explorer"): production reports them as deterministic
// budget skips, and only the oracle clears them.
var dporBudgetSkips = map[string]bool{
	"DD/IRIW+scoped": true, "DD+RO/IRIW+scoped": true, "DH+lazy/IRIW+scoped": true,
}

// TestDPORConformance is the differential wall for the stateless
// source-DPOR explorer: over the litmus catalog × every configuration
// (the litmus six plus DH+lazy), DPOR at DefaultBudget and the
// sleep-set conformance oracle must agree on the verdict and on the
// exact set of reachable terminal outcomes. The heavy DeNovo cells run
// only with -full:
//
//	go test -count=1 -timeout 30m -run TestDPORConformance ./internal/mcheck -full
//
// which also pins that DPOR budget-skips exactly dporBudgetSkips and
// that the oracle checks those cells clean.
func TestDPORConformance(t *testing.T) {
	for _, cfg := range Configs() {
		for _, e := range litmus.Catalog() {
			if heavyCell(cfg, e.Program) && !*full {
				continue
			}
			cfg, p, name := cfg, e.Program, cfg.Name()+"/"+e.Program.Name
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				dpor, derr := Check(cfg, p, Options{})
				ss, err := oracleCheck(cfg, p, Options{Budget: oracleBudget}, false)
				if err != nil {
					t.Fatalf("sleepset: %v", err)
				}
				if dporBudgetSkips[name] {
					var be *BudgetError
					if !errors.As(derr, &be) {
						t.Fatalf("dpor: got %v, want the pinned *BudgetError", derr)
					}
					if ss.Violation != nil || len(ss.Outcomes) == 0 {
						t.Fatalf("sleepset: violation %v, %d outcomes; want a clean check", ss.Violation, len(ss.Outcomes))
					}
					t.Logf("dpor budget skip at %d states; sleepset %d states, %d outcomes", be.States, ss.States, len(ss.Outcomes))
					return
				}
				if derr != nil {
					t.Fatalf("dpor: %v", derr)
				}
				if (dpor.Violation == nil) != (ss.Violation == nil) {
					t.Fatalf("verdicts differ: dpor %v, sleepset %v", dpor.Violation, ss.Violation)
				}
				if dpor.Violation != nil {
					return // both found one; traces legitimately differ
				}
				dk, sk := outcomeKeys(dpor.Outcomes), outcomeKeys(ss.Outcomes)
				if !slices.Equal(dk, sk) {
					t.Fatalf("outcome sets differ:\n  dpor     (%d): %v\n  sleepset (%d): %v",
						len(dk), dk, len(sk), sk)
				}
				t.Logf("dpor %d vs sleepset %d states, %d outcomes", dpor.States, ss.States, len(dk))
			})
		}
	}
}

// explorers are the production explorer and the conformance oracle,
// by the names the fault-trace golden labels them with.
var explorers = []struct {
	name  string
	check func(machine.Config, *litmus.Program, Options) (*Result, error)
}{
	{"dpor", Check},
	{"sleepset", func(cfg machine.Config, p *litmus.Program, opts Options) (*Result, error) {
		return oracleCheck(cfg, p, opts, false)
	}},
}

// TestDPORConformanceUnderFault runs the differential wall's
// violation side: with the acquire-invalidation fault injected, both
// DPOR and the oracle must flush out the stale read on the preload
// shape as an oracle-conformance violation.
func TestDPORConformanceUnderFault(t *testing.T) {
	var mp *litmus.Program
	for _, e := range litmus.Catalog() {
		if e.Program.Name == "MP+preload" {
			mp = e.Program
		}
	}
	if mp == nil {
		t.Fatal("MP+preload not in catalog")
	}
	for _, base := range []machine.Config{machine.GD(), machine.DD()} {
		cfg := base
		cfg.FaultDisableAcquireInval = true
		for _, ex := range explorers {
			res, err := ex.check(cfg, mp, Options{})
			if err != nil {
				t.Fatalf("%s/%s: %v", base.Name(), ex.name, err)
			}
			if res.Violation == nil || res.Violation.Invariant != "oracle-conformance" {
				t.Fatalf("%s/%s: want oracle-conformance violation, got %v", base.Name(), ex.name, res.Violation)
			}
		}
	}
}

// TestShardDeterminism is the shard-split guarantee: a sharded
// exploration (any unit count, any worker count) reports the same
// verdict and the same terminal-outcome set as a serial one, and
// reruns of the same split are byte-identical (same States total).
func TestShardDeterminism(t *testing.T) {
	shapes := map[string]bool{"MP": true, "SB+sync": true, "CoRR": true, "LB": true, "WRC": true}
	for _, cfg := range Configs() {
		for _, e := range litmus.Catalog() {
			if !shapes[e.Program.Name] {
				continue
			}
			serial, err := Check(cfg, e.Program, Options{})
			if err != nil {
				t.Fatalf("%s / %s serial: %v", cfg.Name(), e.Program.Name, err)
			}
			s1, err := CheckSharded(cfg, e.Program, Options{}, 1, 1)
			if err != nil {
				t.Fatalf("%s / %s shards=1: %v", cfg.Name(), e.Program.Name, err)
			}
			// shards <= 1 must be *exactly* the serial exploration.
			if s1.States != serial.States || !slices.Equal(outcomeKeys(s1.Outcomes), outcomeKeys(serial.Outcomes)) {
				t.Fatalf("%s / %s: shards=1 (%d states) differs from serial (%d states)",
					cfg.Name(), e.Program.Name, s1.States, serial.States)
			}
			s8a, err := CheckSharded(cfg, e.Program, Options{}, 8, 1)
			if err != nil {
				t.Fatalf("%s / %s shards=8 workers=1: %v", cfg.Name(), e.Program.Name, err)
			}
			s8b, err := CheckSharded(cfg, e.Program, Options{}, 8, 8)
			if err != nil {
				t.Fatalf("%s / %s shards=8 workers=8: %v", cfg.Name(), e.Program.Name, err)
			}
			if s8a.States != s8b.States {
				t.Fatalf("%s / %s: worker count changed the merged state total (%d vs %d)",
					cfg.Name(), e.Program.Name, s8a.States, s8b.States)
			}
			if (s8a.Violation == nil) != (serial.Violation == nil) {
				t.Fatalf("%s / %s: sharded verdict %v, serial %v",
					cfg.Name(), e.Program.Name, s8a.Violation, serial.Violation)
			}
			if !slices.Equal(outcomeKeys(s8a.Outcomes), outcomeKeys(serial.Outcomes)) {
				t.Fatalf("%s / %s: sharded outcomes %v, serial %v",
					cfg.Name(), e.Program.Name, outcomeKeys(s8a.Outcomes), outcomeKeys(serial.Outcomes))
			}
		}
	}
}

// TestShardSplitShapes pins the split-phase contract: units cover the
// frontier, prefixes replay (CheckShard accepts every unit), and the
// merged result equals running the units by hand.
func TestShardSplitShapes(t *testing.T) {
	var mp *litmus.Program
	for _, e := range litmus.Catalog() {
		if e.Program.Name == "MP" {
			mp = e.Program
		}
	}
	cfg := machine.DD()
	plan, err := Split(cfg, mp, Options{}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Units) < 8 {
		t.Fatalf("split produced %d units, want >= 8", len(plan.Units))
	}
	var results []*Result
	for i, u := range plan.Units {
		if len(u.Prefix) == 0 {
			t.Fatalf("unit %d has an empty prefix", i)
		}
		r, err := CheckShard(cfg, mp, Options{}, u)
		if err != nil {
			t.Fatalf("unit %d: %v", i, err)
		}
		results = append(results, r)
	}
	merged := MergeShardResults(plan, results)
	want := plan.States
	for _, r := range results {
		want += r.States
	}
	if merged.States != want {
		t.Fatalf("merged states %d, want the sum %d", merged.States, want)
	}
	serial, err := Check(cfg, mp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(outcomeKeys(merged.Outcomes), outcomeKeys(serial.Outcomes)) {
		t.Fatalf("merged outcomes %v, serial %v", outcomeKeys(merged.Outcomes), outcomeKeys(serial.Outcomes))
	}
}

// TestShardFaultFindsViolation: a sharded run must still catch the
// injected fault, reported from the lowest-indexed unit.
func TestShardFaultFindsViolation(t *testing.T) {
	var mp *litmus.Program
	for _, e := range litmus.Catalog() {
		if e.Program.Name == "MP+preload" {
			mp = e.Program
		}
	}
	cfg := machine.DD()
	cfg.FaultDisableAcquireInval = true
	res, err := CheckSharded(cfg, mp, Options{}, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation == nil || res.Violation.Invariant != "oracle-conformance" {
		t.Fatalf("sharded run missed the injected fault: %v", res.Violation)
	}
	// Determinism: rerunning reports the identical counterexample.
	res2, err := CheckSharded(cfg, mp, Options{}, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Violation == nil || res2.Violation.Detail != res.Violation.Detail {
		t.Fatalf("sharded violation not deterministic:\n  %v\n  %v", res.Violation, res2.Violation)
	}
}

// TestBudgetErrorProgress: the typed budget error carries the states
// explored and elapsed wall time at exhaustion, for DPOR and the
// oracle alike.
func TestBudgetErrorProgress(t *testing.T) {
	var mp *litmus.Program
	for _, e := range litmus.Catalog() {
		if e.Program.Name == "MP" {
			mp = e.Program
		}
	}
	for _, ex := range explorers {
		_, err := ex.check(machine.GD(), mp, Options{Budget: 10})
		be, ok := err.(*BudgetError)
		if !ok {
			t.Fatalf("%s: got %v, want *BudgetError", ex.name, err)
		}
		if be.States != 10 {
			t.Fatalf("%s: budget error reports %d states, want 10", ex.name, be.States)
		}
		if be.Elapsed <= 0 {
			t.Fatalf("%s: budget error elapsed %v, want > 0", ex.name, be.Elapsed)
		}
	}
}
