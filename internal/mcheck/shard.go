package mcheck

import (
	"fmt"
	"slices"

	"denovogpu/internal/litmus"
	"denovogpu/internal/machine"
	"denovogpu/internal/runner"
)

// Prefix-based shard splitting. The top of the exploration tree is
// expanded breadth-first with *full branching* — every enabled
// transition at every node, filtered only by sleep sets — until the
// frontier is at least the requested unit count. Each frontier leaf
// becomes an independent Unit: the transition prefix that reaches it
// plus the sleep set it inherited. Units then run stateless
// source-DPOR below the cut (exploreDPOR with a non-zero Unit), and
// their results merge deterministically.
//
// Soundness of the cut: a race between an event inside the prefix and
// one below the cut would normally schedule a reversal at a prefix
// frame. Units skip those additions — but because the split phase
// branched every top-region node fully (sleep sets prune only
// redundant orders, which the sleep-set argument covers), the reversed
// schedule's prefix is itself a sibling unit, explored independently.
// Sleep sets compose across the cut the same way they do between
// siblings in one DFS: a unit whose first awake transition is asleep
// abandons the redundant prefix immediately.
//
// The merge contract (matching api.RunMatrix error semantics): States
// sum (the split phase's own expansions count once, prefix replays
// count zero), Outcomes union, and the Violation of the
// lowest-indexed unit — with a split-phase violation, which precedes
// every unit, winning outright. A *BudgetError from any unit surfaces
// as the lowest-unit-index error. Verdict and outcome set are
// identical to an unsharded run at any unit count or worker count;
// the States total differs between shard counts (different reductions
// prune differently) but is identical across reruns of the same
// split.

// maxSplitDepth bounds the breadth-first split phase; beyond this the
// frontier is returned as-is (programs this deep still shard, just
// into however many units exist at the cap).
const maxSplitDepth = 24

// SplitPlan is the outcome of the split phase: the work units, plus
// everything the top-region expansion itself already determined.
type SplitPlan struct {
	// Units are the frontier work units in deterministic order. Empty
	// when the whole exploration completed inside the split phase (tiny
	// programs) or when Violation is set.
	Units []Unit
	// States counts nodes the split phase expanded itself.
	States int
	// Outcomes are terminal outcomes reached inside the top region.
	Outcomes map[string]litmus.Outcome
	// Violation is a violation found inside the top region, if any.
	Violation *Violation
}

// splitNode is one frontier node; its prefix is also its trace.
type splitNode struct {
	s      *state
	sleep  []sleepEnt
	prefix []uint32
}

// Split partitions the exploration of p under cfg into at least target
// independent units (branching permitting).
func Split(cfg machine.Config, p *litmus.Program, opts Options, target int) (*SplitPlan, error) {
	m, oracle, err := prepare(cfg, p, opts)
	if err != nil {
		return nil, err
	}

	plan := &SplitPlan{Outcomes: make(map[string]litmus.Outcome)}
	frontier := []splitNode{{s: m.initial()}}
	for depth := 0; depth < maxSplitDepth && len(frontier) > 0 && len(frontier) < target; depth++ {
		var next []splitNode
		for _, nd := range frontier {
			plan.States++
			s := nd.s
			enab, f := m.visit(s, oracle, plan.Outcomes, nil)
			if f.invariant != "" {
				path := make([]trans, len(nd.prefix))
				for i, t := range nd.prefix {
					path[i] = trans(t)
				}
				plan.Violation = m.violation(f, m.traceOf(path))
				return plan, nil
			}
			var explored []sleepEnt
			for _, t := range enab {
				if sleepHas(nd.sleep, t) {
					continue
				}
				ft := m.dynFootprint(s, t)
				var cs []sleepEnt
				for _, u := range nd.sleep {
					if independent(u.fp, ft) {
						cs = append(cs, u)
					}
				}
				for _, u := range explored {
					if independent(u.fp, ft) {
						cs = append(cs, u)
					}
				}
				n := s.clone()
				m.apply(n, t)
				pfx := make([]uint32, len(nd.prefix)+1)
				copy(pfx, nd.prefix)
				pfx[len(nd.prefix)] = uint32(t)
				next = append(next, splitNode{s: n, sleep: cs, prefix: pfx})
				explored = append(explored, sleepEnt{t, ft})
			}
		}
		frontier = next
	}
	for _, nd := range frontier {
		u := Unit{Prefix: nd.prefix}
		for _, e := range nd.sleep {
			u.Sleep = append(u.Sleep, uint32(e.t))
		}
		plan.Units = append(plan.Units, u)
	}
	return plan, nil
}

// CheckShard explores one Unit of program p under cfg: the prefix is
// replayed from the root (deterministically, uncounted), then
// source-DPOR runs below the cut. The zero Unit is a whole unsharded
// exploration. Budget applies to this unit alone. A Unit that is not
// a shard of p — a malformed transition, a prefix step that is not
// enabled, a sleeping step of a finished thread — is a *UnitError,
// returned before anything is explored.
func CheckShard(cfg machine.Config, p *litmus.Program, opts Options, u Unit) (*Result, error) {
	m, oracle, err := prepare(cfg, p, opts)
	if err != nil {
		return nil, err
	}
	if err := m.checkUnit(u, oracle); err != nil {
		return nil, err
	}
	states, outcomes, viol, err := m.exploreDPOR(oracle, opts.budget(), u)
	if err != nil {
		return nil, err
	}
	return &Result{States: states, Outcomes: outcomes, Violation: viol}, nil
}

// UnitError reports a Unit that is not a shard of the program it was
// run against: a corrupted or stale wire unit, never a verdict.
type UnitError struct {
	Config  string
	Program string
	// Field is "prefix" or "sleep"; Index is the entry's position in it.
	Field string
	Index int
	Trans uint32
	// Reason says what is wrong with the entry.
	Reason string
}

func (e *UnitError) Error() string {
	return fmt.Sprintf("mcheck: shard %s[%d] = %#x of %q under %s: %s",
		e.Field, e.Index, e.Trans, e.Program, e.Config, e.Reason)
}

// checkUnit rejects a Unit whose entries are not transitions of m's
// program, then replays its prefix through the same node visit as
// exploreDPOR: every prefix entry must be enabled where it fires, and
// at the cut a sleeping thread step must still have an operation to
// issue. Sleep entries need not be enabled — Split legitimately hands
// down asleep background actions and blocked steps. Replay stops early
// at a violating node, which exploration reports before the cut.
func (m *model) checkUnit(u Unit, oracle map[string]litmus.Outcome) error {
	bad := func(field string, i int, t uint32, reason string) error {
		return &UnitError{Config: m.mcfg.Name(), Program: m.p.Name, Field: field, Index: i, Trans: t, Reason: reason}
	}
	for i, t := range u.Prefix {
		if !m.wellFormed(trans(t)) {
			return bad("prefix", i, t, "not a transition of the program")
		}
	}
	for i, t := range u.Sleep {
		if !m.wellFormed(trans(t)) {
			return bad("sleep", i, t, "not a transition of the program")
		}
	}
	s, seen := m.initial(), make(map[string]litmus.Outcome)
	var enab []trans
	for d, t := range u.Prefix {
		var f fault
		if enab, f = m.visit(s, oracle, seen, enab); f.invariant != "" {
			return nil
		}
		if !slices.Contains(enab, trans(t)) {
			return bad("prefix", d, t, fmt.Sprintf("not enabled at depth %d (stale shard?)", d))
		}
		m.apply(s, trans(t))
	}
	for i, t := range u.Sleep {
		if kind, a, _, _ := trans(t).parts(); kind == tkStep && int(s.pcs[a]) >= len(m.p.Threads[a].Ops) {
			return bad("sleep", i, t, "steps a thread with no operation left at the cut")
		}
	}
	return nil
}

// MergeShardResults combines a split plan with its per-unit results in
// unit order: summed States, unioned Outcomes, and the violation of
// the lowest-indexed unit (the split phase's own, which precedes every
// unit, wins outright). Nil entries — units an error stopped before
// running — contribute nothing.
func MergeShardResults(plan *SplitPlan, unitResults []*Result) *Result {
	merged := &Result{
		States:    plan.States,
		Outcomes:  make(map[string]litmus.Outcome, len(plan.Outcomes)),
		Violation: plan.Violation,
	}
	for k, o := range plan.Outcomes {
		merged.Outcomes[k] = o
	}
	for _, r := range unitResults {
		if r == nil {
			continue
		}
		merged.States += r.States
		for k, o := range r.Outcomes {
			merged.Outcomes[k] = o
		}
		if merged.Violation == nil && r.Violation != nil {
			merged.Violation = r.Violation
		}
	}
	return merged
}

// CheckSharded splits the exploration into at least shards units and
// runs them on a local worker pool (workers as in runner.Options: 0 =
// GOMAXPROCS, 1 = serial). Verdict and outcome set are identical to
// Check at any shard or worker count; shards <= 1 is exactly Check.
// Errors resolve to the lowest unit index (runner semantics), so a
// *BudgetError is deterministic too.
func CheckSharded(cfg machine.Config, p *litmus.Program, opts Options, shards, workers int) (*Result, error) {
	if shards <= 1 {
		return Check(cfg, p, opts)
	}
	plan, err := Split(cfg, p, opts, shards)
	if err != nil {
		return nil, err
	}
	results := make([]*Result, len(plan.Units))
	if _, err := runner.Run(len(plan.Units), runner.Options{Workers: workers}, func(i int) error {
		r, err := CheckShard(cfg, p, opts, plan.Units[i])
		if err != nil {
			return err
		}
		results[i] = r
		return nil
	}); err != nil {
		return nil, err
	}
	return MergeShardResults(plan, results), nil
}
