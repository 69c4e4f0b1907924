package mcheck

import (
	"fmt"

	"denovogpu/internal/coherence"
	"denovogpu/internal/litmus"
)

// Transitions: the identity, enabledness, application and rendering of
// the model's atomic steps, shared by the source-DPOR explorer and the
// shard split phase.

// trans identifies a transition: kind in the top byte, operands below.
type trans uint32

const (
	tkStep       = 1 // a = thread index
	tkFinalRel   = 2 // a = CU slot
	tkEvict      = 3 // a = CU slot, c = variable
	tkFlushDirty = 4 // a = CU slot, c = variable
	tkWriteBack  = 5 // a = CU slot, c = variable
	tkLazyKick   = 6 // a = CU slot, c = variable
	tkDeliver    = 7 // a = src, b = dst, c = variable
)

func mkTrans(kind, a, b, c uint8) trans {
	return trans(kind)<<24 | trans(a)<<16 | trans(b)<<8 | trans(c)
}

func (t trans) parts() (kind, a, b, c uint8) {
	return uint8(t >> 24), uint8(t >> 16), uint8(t >> 8), uint8(t)
}

// wellFormed reports whether t names a transition of m's program: a
// known kind whose thread, CU, channel-endpoint and variable operands
// are in range and whose unused operands are zero. It says nothing
// about whether t is enabled anywhere.
func (m *model) wellFormed(t trans) bool {
	kind, a, b, c := t.parts()
	cu := func(x uint8) bool { return int(x) < m.nc }
	switch kind {
	case tkStep:
		return int(a) < m.nt && b == 0 && c == 0
	case tkFinalRel:
		return cu(a) && b == 0 && c == 0
	case tkEvict, tkFlushDirty, tkWriteBack, tkLazyKick:
		return cu(a) && b == 0 && int(c) < m.nv
	case tkDeliver:
		return (cu(a) || a == home) && (cu(b) || b == home) && int(c) < m.nv
	}
	return false
}

func independent(fa, fb uint64) bool { return fa&fb == 0 }

// enabledInto appends the enabled transitions of s to dst[:0] in a
// fixed deterministic order: thread steps, final releases, background
// cache actions, then channel deliveries by sorted channel key.
func (m *model) enabledInto(dst []trans, s *state) []trans {
	ts := dst[:0]
	done := m.allOpsDone(s)
	for ti := range m.p.Threads {
		if int(s.pcs[ti]) >= len(m.p.Threads[ti].Ops) || s.blocked&(1<<ti) != 0 {
			continue
		}
		if m.cfg.proto != protoSC {
			op := m.opOf(ti, s)
			releasing := (op.Kind == litmus.OpSyncStore || op.Kind == litmus.OpSyncAdd) &&
				m.cfg.model.Effective(op.Scope) == coherence.ScopeGlobal
			if releasing && s.relIssued&(1<<ti) != 0 && !m.fenceClear(s, ti) {
				continue
			}
		}
		ts = append(ts, mkTrans(tkStep, uint8(ti), 0, 0))
	}
	if m.cfg.proto != protoSC {
		if done {
			for ci := 0; ci < m.nc; ci++ {
				if s.finalRel&(1<<ci) == 0 {
					ts = append(ts, mkTrans(tkFinalRel, uint8(ci), 0, 0))
				}
			}
		} else {
			// Background cache actions. Suppressed once all operations have
			// completed: they are optional, and the final releases drain
			// whatever must still drain.
			for ci := 0; ci < m.nc; ci++ {
				cu := &s.cus[ci]
				for v := uint8(0); int(v) < m.nv; v++ {
					switch {
					case cu.st[v] == wClean:
						ts = append(ts, mkTrans(tkEvict, uint8(ci), 0, v))
					case cu.st[v] == wDirty:
						ts = append(ts, mkTrans(tkFlushDirty, uint8(ci), 0, v))
					case cu.st[v] == wReg && cu.vPresent&(1<<v) == 0:
						ts = append(ts, mkTrans(tkWriteBack, uint8(ci), 0, v))
					}
					if cu.lazy&(1<<v) != 0 {
						ts = append(ts, mkTrans(tkLazyKick, uint8(ci), 0, v))
					}
				}
			}
		}
	}
	for _, k := range m.channels(s) {
		ts = append(ts, mkTrans(tkDeliver, uint8(k>>8), uint8(k>>4&0xF), uint8(k&0xF)))
	}
	return ts
}

// channels returns the distinct channel keys of s's in-flight
// messages in ascending order. The result lives in a buffer on m and
// is valid until the next call.
func (m *model) channels(s *state) []uint16 {
	keys := m.chanKeys[:0]
	for i := range s.msgs {
		k := s.msgs[i].chanKey()
		j := len(keys)
		for j > 0 && keys[j-1] > k {
			j--
		}
		if j > 0 && keys[j-1] == k {
			continue
		}
		keys = append(keys, 0)
		copy(keys[j+1:], keys[j:])
		keys[j] = k
	}
	m.chanKeys = keys
	return keys
}

// apply executes transition t on s in place.
func (m *model) apply(s *state, t trans) {
	kind, a, b, c := t.parts()
	switch kind {
	case tkStep:
		m.step(s, int(a))
	case tkFinalRel:
		m.releaseIssue(s, a)
		s.finalRel |= 1 << a
	case tkEvict:
		s.cus[a].st[c] = wInvalid
	case tkFlushDirty:
		cu := &s.cus[a]
		m.sendWT(s, cu, a, c, cu.val[c])
		cu.st[c] = wInvalid
	case tkWriteBack:
		m.writeBack(s, a, c)
	case tkLazyKick:
		m.sendRegReq(s, &s.cus[a], a, c)
	case tkDeliver:
		m.deliver(s, a, b, c)
	default:
		s.fail("model-internal", fmt.Sprintf("unknown transition %#x", uint32(t)))
	}
}

// applyInto overwrites dst with the successor of s under t. dst reuses
// its own message buffer, so a recycled dst costs no allocation.
func (m *model) applyInto(dst, s *state, t trans) {
	dst.copyFrom(s)
	m.apply(dst, t)
}

// label renders transition t, taken from state s, for counterexample
// traces. It is only called once a violation is found.
func (m *model) label(s *state, t trans) string {
	kind, a, b, c := t.parts()
	switch kind {
	case tkStep:
		return fmt.Sprintf("t%d: %s", a, m.opOf(int(a), s))
	case tkFinalRel:
		return fmt.Sprintf("cu%d: final release", a)
	case tkEvict:
		return fmt.Sprintf("cu%d: evict %s", a, vname(c))
	case tkFlushDirty:
		return fmt.Sprintf("cu%d: flush dirty %s", a, vname(c))
	case tkWriteBack:
		return fmt.Sprintf("cu%d: write back %s", a, vname(c))
	case tkLazyKick:
		return fmt.Sprintf("cu%d: register lazy %s", a, vname(c))
	case tkDeliver:
		if i := s.head(a, b, c); i >= 0 {
			return "deliver " + s.msgs[i].String()
		}
		return "deliver(empty)"
	}
	return "?"
}

// traceOf renders the transition path ts by replaying it from the
// initial state, labelling each transition at the state it fires from.
func (m *model) traceOf(ts []trans) []string {
	out := make([]string, len(ts))
	s := m.initial()
	for i, t := range ts {
		out[i] = m.label(s, t)
		m.apply(s, t)
	}
	return out
}
