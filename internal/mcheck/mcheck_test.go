package mcheck

import (
	"errors"
	"slices"
	"testing"

	"denovogpu/internal/litmus"
	"denovogpu/internal/machine"
)

// heavyCell reports the catalog cells every default test run skips:
// the four-thread and three-CU shapes under DeNovo. They run to tens of
// millions of DPOR nodes (minutes of wall clock each; far more under
// the race detector), and IRIW+scoped under DD/DD+RO/DH+lazy exceeds
// any affordable stateless budget outright (see EXPERIMENTS.md:
// co-located sync threads make acquire self-invalidation conflict with
// every same-CU cache mutation, so the Mazurkiewicz trace count dwarfs
// the 218k-state space). The CI mcheck job covers them through
// `litmus check` at the default budget and TestDPORConformance -full
// on every push; skipping them here keeps the plain `go test ./...`
// wall bounded.
func heavyCell(cfg machine.Config, p *litmus.Program) bool {
	switch p.Name {
	case "IRIW+sync", "IRIW+scoped", "ISA2+transitive":
		return cfg.Protocol == machine.ProtoDeNovo
	}
	return false
}

// TestCatalogClean exhaustively checks every catalog shape under every
// configuration (the litmus six plus DH+lazy): no invariant violation,
// no oracle non-conformance, within the default budget.
func TestCatalogClean(t *testing.T) {
	for _, cfg := range Configs() {
		for _, e := range litmus.Catalog() {
			if heavyCell(cfg, e.Program) {
				continue
			}
			res, err := Check(cfg, e.Program, Options{})
			if err != nil {
				t.Fatalf("%s / %s: %v", cfg.Name(), e.Program.Name, err)
			}
			if res.Violation != nil {
				t.Fatalf("%s / %s: %v", cfg.Name(), e.Program.Name, res.Violation)
			}
			if len(res.Outcomes) == 0 {
				t.Fatalf("%s / %s: no terminal outcome reached", cfg.Name(), e.Program.Name)
			}
			t.Logf("%-8s %-22s %7d states, %d outcomes", cfg.Name(), e.Program.Name, res.States, len(res.Outcomes))
		}
	}
}

// TestPORSoundOnCatalog validates both reductions against the
// unreduced ground truth: source-DPOR and the oracle's sleep-set
// search reach exactly the terminal outcomes, and the verdict, of the
// oracle's unreduced search.
func TestPORSoundOnCatalog(t *testing.T) {
	shapes := map[string]bool{"MP": true, "SB+sync": true, "CoRR": true, "LB": true}
	for _, cfg := range Configs() {
		for _, e := range litmus.Catalog() {
			if !shapes[e.Program.Name] {
				continue
			}
			full, err := oracleCheck(cfg, e.Program, Options{}, true)
			if err != nil {
				t.Fatalf("%s / %s (unreduced): %v", cfg.Name(), e.Program.Name, err)
			}
			dpor, err := Check(cfg, e.Program, Options{})
			if err != nil {
				t.Fatalf("%s / %s (dpor): %v", cfg.Name(), e.Program.Name, err)
			}
			ss, err := oracleCheck(cfg, e.Program, Options{}, false)
			if err != nil {
				t.Fatalf("%s / %s (sleepset): %v", cfg.Name(), e.Program.Name, err)
			}
			for name, por := range map[string]*Result{"dpor": dpor, "sleepset": ss} {
				if (por.Violation == nil) != (full.Violation == nil) {
					t.Fatalf("%s / %s: %s verdict %v, unreduced verdict %v",
						cfg.Name(), e.Program.Name, name, por.Violation, full.Violation)
				}
				if pk, fk := outcomeKeys(por.Outcomes), outcomeKeys(full.Outcomes); !slices.Equal(pk, fk) {
					t.Errorf("%s / %s: %s outcomes %v, unreduced %v", cfg.Name(), e.Program.Name, name, pk, fk)
				}
			}
		}
	}
}

// TestWeakOutcomesReachable spot-checks model completeness: the racy
// store-buffering weak outcome (both loads 0, permitted by both
// models) must be reachable under GD, where write buffering is the
// protocol's signature relaxation.
func TestWeakOutcomesReachable(t *testing.T) {
	for _, e := range litmus.Catalog() {
		if e.Program.Name != "SB+data" {
			continue
		}
		res, err := Check(machine.GD(), e.Program, Options{})
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, o := range res.Outcomes {
			if e.Weak(o) {
				found = true
			}
		}
		if !found {
			t.Fatalf("SB+data weak outcome unreachable in the GD model; outcomes: %v", outcomeKeys(res.Outcomes))
		}
		return
	}
	t.Fatal("SB+data not in catalog")
}

// TestFaultInjectionFindsViolation turns off acquire invalidation (the
// litmus engine's seeded fault) and checks the message-passing shape
// whose reader pre-caches stale data: the checker must flush out the
// stale read as an oracle-conformance violation whose Case replays.
func TestFaultInjectionFindsViolation(t *testing.T) {
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
		res, err := Check(cfg, mp, Options{})
		if err != nil {
			t.Fatalf("%s: %v", base.Name(), err)
		}
		if res.Violation == nil {
			t.Fatalf("%s: fault injection not detected", base.Name())
		}
		v := res.Violation
		if v.Invariant != "oracle-conformance" {
			t.Fatalf("%s: violated %q, want oracle-conformance", base.Name(), v.Invariant)
		}
		if v.Observed == nil || len(v.Trace) == 0 {
			t.Fatalf("%s: counterexample missing outcome or trace: %+v", base.Name(), v)
		}
		c := v.Case()
		if c.Config != base.Name() || !c.Fault {
			t.Fatalf("%s: case misnames the configuration: %q fault=%v", base.Name(), c.Config, c.Fault)
		}
		if _, err := c.MarshalIndent(); err != nil {
			t.Fatalf("%s: case does not marshal: %v", base.Name(), err)
		}
	}
}

// TestBudgetError checks that exhausting the exploration budget is a
// typed, distinguishable error — never a verdict.
func TestBudgetError(t *testing.T) {
	var mp *litmus.Program
	for _, e := range litmus.Catalog() {
		if e.Program.Name == "MP" {
			mp = e.Program
		}
	}
	_, err := Check(machine.GD(), mp, Options{Budget: 10})
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("got %v, want *BudgetError", err)
	}
	if be.Budget != 10 || be.Program != "MP" {
		t.Fatalf("budget error fields: %+v", be)
	}
}

// TestOracleStateLimitPropagates checks that an oracle budget
// exhaustion surfaces as *litmus.StateLimitError, distinguishable from
// both violations and the checker's own budget error.
func TestOracleStateLimitPropagates(t *testing.T) {
	var mp *litmus.Program
	for _, e := range litmus.Catalog() {
		if e.Program.Name == "MP" {
			mp = e.Program
		}
	}
	_, err := Check(machine.GD(), mp, Options{OracleStateLimit: 2})
	var sl *litmus.StateLimitError
	if !errors.As(err, &sl) {
		t.Fatalf("got %v, want *litmus.StateLimitError", err)
	}
	var be *BudgetError
	if errors.As(err, &be) {
		t.Fatal("oracle state-limit error must not look like a checker budget error")
	}
}

// TestProgramLimits rejects programs beyond the model's fixed
// capacities instead of silently truncating them.
func TestProgramLimits(t *testing.T) {
	big := &litmus.Program{Name: "too-wide", Vars: make([]litmus.VarClass, maxVars+1)}
	big.Threads = []litmus.Thread{{CU: 0, Ops: []litmus.Op{{Kind: litmus.OpLoad, Var: 0}}}}
	if _, err := Check(machine.GD(), big, Options{}); err == nil {
		t.Fatal("program with too many variables accepted")
	}
	many := &litmus.Program{Name: "too-threaded", Vars: []litmus.VarClass{litmus.Data}}
	for i := 0; i < maxThreads+1; i++ {
		many.Threads = append(many.Threads, litmus.Thread{CU: i, Ops: []litmus.Op{{Kind: litmus.OpLoad, Var: 0}}})
	}
	if _, err := Check(machine.GD(), many, Options{}); err == nil {
		t.Fatal("program with too many threads accepted")
	}
}
