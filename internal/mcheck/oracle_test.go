package mcheck

import (
	"slices"
	"sort"
	"time"

	"denovogpu/internal/litmus"
	"denovogpu/internal/machine"
)

// The conformance oracle: the sleep-set explorer over hashed states
// that source-DPOR replaced, kept in test code as the reference that
// TestDPORConformance, TestPORSoundOnCatalog and TestFaultTracesGolden
// diff the production explorer against. It shares the transition
// system (enabledInto, apply, visit) with production and differs in
// everything that decides which interleavings get explored: a static
// per-CU independence relation instead of dynFootprint, sleep sets
// without source-set backtracking, and a visited table instead of
// statelessness. Its unreduced mode drops the sleep sets and is the
// ground truth for both reductions.
//
// Soundness of the reduction rests on an independence relation derived
// from write footprints. Every transition's mutations fall into two
// territories: one CU's controller state (its L1 words, store buffer,
// registration bookkeeping, and the progress/blocked/loads state of
// its threads) and one variable's home state (memory word + registry
// owner + the home's message processing). Message-channel effects are
// covered by the same bits: a channel (c -> home, v) is appended to
// only by cu(c)-footprint transitions and popped only by hv(v)-
// footprint deliveries — and a tail append commutes with a head pop
// whenever both are enabled (the channel is nonempty, so the popped
// head is unaffected by the append); likewise (home -> c, v) and
// direct CU-to-CU channels. Same-channel appends always share a
// footprint bit, so FIFO ordering conflicts are never declared
// independent.
//
// The one cross-footprint mutation is acquire-time stale marking,
// which flags a read's in-flight messages wherever they sit along the
// request chain (request, forward, deferred at an owner, response).
// It commutes with every delivery: a delivery only moves the request
// one stage down the chain, propagating the flag, so marking before
// or after the move produces the same state.
//
// The canonical encoding groups messages per channel (channels in
// sorted key order, within-channel FIFO order preserved), so two
// interleavings of independent transitions encode identically — which
// both the visited set and the sleep-set argument require.

// oracleCheck is Check on the oracle explorer; unreduced explores the
// full interleaving graph with no reduction at all (expect orders of
// magnitude more states).
func oracleCheck(cfg machine.Config, p *litmus.Program, opts Options, unreduced bool) (*Result, error) {
	m, oracle, err := prepare(cfg, p, opts)
	if err != nil {
		return nil, err
	}
	states, outcomes, viol, err := m.explore(oracle, opts.budget(), unreduced)
	if err != nil {
		return nil, err
	}
	return &Result{States: states, Outcomes: outcomes, Violation: viol}, nil
}

// footprint returns the static write territories of a transition as a
// bitmask: bits 0..maxCUs-1 are CU territories, bits 8.. are
// home-variable territories.
func (m *model) footprint(t trans) uint64 {
	kind, a, b, c := t.parts()
	cuBit := func(ci uint8) uint64 { return 1 << ci }
	hvBit := func(v uint8) uint64 { return 1 << (8 + v) }
	switch kind {
	case tkStep:
		ci := m.threadCU[a]
		if m.cfg.proto == protoSC {
			// SC steps act on memory directly; use the thread's static
			// variable set so the footprint is state-independent.
			return cuBit(ci) | m.scVarMask(a)
		}
		return cuBit(ci)
	case tkDeliver:
		if b == home {
			return hvBit(c)
		}
		return cuBit(b)
	default: // finalRel, evict, flushDirty, writeBack, lazyKick
		return cuBit(a)
	}
}

// scVarMask is the home-variable footprint bits of every variable
// thread ti touches.
func (m *model) scVarMask(ti uint8) uint64 {
	var mask uint64
	for _, op := range m.p.Threads[ti].Ops {
		mask |= 1 << (8 + op.Var)
	}
	return mask
}

// encode produces the canonical byte representation of a state.
func (m *model) encode(s *state) string {
	b := make([]byte, 0, 256)
	p32 := func(v uint32) {
		b = append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	for v := 0; v < m.nv; v++ {
		p32(s.mem[v])
		b = append(b, byte(s.owner[v]))
	}
	for ci := 0; ci < m.nc; ci++ {
		cu := &s.cus[ci]
		for v := 0; v < m.nv; v++ {
			b = append(b, byte(cu.st[v]))
			p32(cu.val[v])
			b = append(b, cu.wtCnt[v])
			if cu.wtCnt[v] > 0 {
				p32(cu.wtVal[v])
			}
			b = append(b, cu.syncQLen[v])
			b = append(b, cu.syncQ[v][:cu.syncQLen[v]]...)
			b = append(b, cu.defFwd[v], cu.defReadN[v])
			for i := uint8(0); i < cu.defReadN[v]; i++ {
				b = append(b, byte(cu.defRead[v][i]), byte(cu.defRead[v][i]>>8))
			}
			if cu.vPresent&(1<<v) != 0 {
				p32(cu.vVal[v])
			}
		}
		b = append(b, cu.sbLen)
		for i := uint8(0); i < cu.sbLen; i++ {
			b = append(b, cu.sbVar[i])
			p32(cu.sbVal[i])
		}
		b = append(b, cu.lazy, cu.regIn, cu.vPresent, cu.vServed, cu.vRejected)
	}
	for ti := 0; ti < m.nt; ti++ {
		b = append(b, s.pcs[ti], s.loadLen[ti], s.relWait[ti])
		for i := uint8(0); i < s.loadLen[ti]; i++ {
			p32(s.loads[ti][i])
		}
	}
	b = append(b, s.blocked, s.relIssued, s.finalRel)
	// Messages grouped per channel, channels in sorted key order,
	// within-channel FIFO order preserved: interleavings of independent
	// transitions encode identically.
	for _, k := range m.channels(s) {
		b = append(b, 0xFE, byte(k), byte(k>>8))
		for i := range s.msgs {
			g := &s.msgs[i]
			if g.chanKey() != k {
				continue
			}
			flags := byte(0)
			if g.stale {
				flags |= 1
			}
			if g.accepted {
				flags |= 2
			}
			b = append(b, byte(g.kind), g.thread, g.req, g.op, flags)
			p32(g.val)
		}
	}
	return string(b)
}

// traceNode is one step of the path to a state, shared structurally
// across the DFS so paths cost O(1) per node. Labels are rendered from
// the transitions (traceOf) only when a violation is reported.
type traceNode struct {
	t      trans
	parent *traceNode
}

func (n *traceNode) path() []trans {
	var rev []trans
	for ; n != nil; n = n.parent {
		rev = append(rev, n.t)
	}
	out := make([]trans, len(rev))
	for i := range rev {
		out[i] = rev[len(rev)-1-i]
	}
	return out
}

// subsetOf reports whether sorted slice a is a subset of sorted b.
func subsetOf(a, b []trans) bool {
	j := 0
	for _, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		if j >= len(b) || b[j] != x {
			return false
		}
		j++
	}
	return true
}

// explore runs the oracle DFS. It returns the number of nodes
// expanded, the terminal outcomes, and the first violation found (nil
// if none), or a *BudgetError once the node budget is exhausted.
//
// The visited set stores, per canonical state, the sleep sets it has
// been expanded with; a state is pruned when a previously expanded
// sleep set is a subset of the current one (a smaller sleep set
// explores strictly more, so the current node is covered).
func (m *model) explore(oracle map[string]litmus.Outcome, budget int, unreduced bool) (int, map[string]litmus.Outcome, *Violation, error) {
	type frame struct {
		s     *state
		sleep []trans // sorted
		trace *traceNode
	}
	outcomes := make(map[string]litmus.Outcome)
	visited := make(map[string][][]trans)
	expanded := 0
	start := time.Now()
	stack := []frame{{s: m.initial()}}

	for len(stack) > 0 {
		fr := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		s := fr.s

		key := m.encode(s)
		covered := false
		for _, old := range visited[key] {
			if subsetOf(old, fr.sleep) {
				covered = true
				break
			}
		}
		if covered {
			continue
		}
		if expanded >= budget {
			return expanded, outcomes, nil, &BudgetError{
				Budget: budget, Config: m.mcfg.Name(), Program: m.p.Name,
				States: expanded, Elapsed: time.Since(start),
			}
		}
		expanded++
		visited[key] = append(visited[key], fr.sleep)

		ts, f := m.visit(s, oracle, outcomes, nil)
		if f.invariant != "" {
			return expanded, outcomes, m.violation(f, m.traceOf(fr.trace.path())), nil
		}

		// Children are pushed in reverse so the lowest-ordered transition
		// pops first: exploration order (and therefore which violation is
		// reported) is deterministic.
		var children []frame
		var explored []trans
		for _, t := range ts {
			if !unreduced && slices.Contains(fr.sleep, t) {
				continue
			}
			n := s.clone()
			m.apply(n, t)
			var childSleep []trans
			if !unreduced {
				ft := m.footprint(t)
				for _, u := range fr.sleep {
					if independent(m.footprint(u), ft) {
						childSleep = append(childSleep, u)
					}
				}
				for _, u := range explored {
					if independent(m.footprint(u), ft) {
						childSleep = append(childSleep, u)
					}
				}
				sort.Slice(childSleep, func(i, j int) bool { return childSleep[i] < childSleep[j] })
				explored = append(explored, t)
			}
			children = append(children, frame{s: n, sleep: childSleep, trace: &traceNode{t: t, parent: fr.trace}})
		}
		for i := len(children) - 1; i >= 0; i-- {
			stack = append(stack, children[i])
		}
	}
	return expanded, outcomes, nil, nil
}
