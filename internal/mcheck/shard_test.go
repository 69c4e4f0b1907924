package mcheck

import (
	"encoding/binary"
	"errors"
	"testing"

	"denovogpu/internal/litmus"
	"denovogpu/internal/machine"
)

// catalogProgram returns the named catalog program.
func catalogProgram(tb testing.TB, name string) *litmus.Program {
	tb.Helper()
	for _, e := range litmus.Catalog() {
		if e.Program.Name == name {
			return e.Program
		}
	}
	tb.Fatalf("%s not in catalog", name)
	return nil
}

// TestSplitUnitsWellFormed: every unit Split hands out, for every
// catalog × Configs() cell at 4, 8 and 64 units, passes the unit check
// CheckShard applies before exploring — including the sleep entries
// that are not enabled at the cut (asleep background actions and
// blocked steps).
func TestSplitUnitsWellFormed(t *testing.T) {
	units := 0
	for _, cfg := range Configs() {
		for _, e := range litmus.Catalog() {
			m, oracle, err := prepare(cfg, e.Program, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, target := range []int{4, 8, 64} {
				plan, err := Split(cfg, e.Program, Options{}, target)
				if err != nil {
					t.Fatalf("%s / %s split %d: %v", cfg.Name(), e.Program.Name, target, err)
				}
				for i, u := range plan.Units {
					if err := m.checkUnit(u, oracle); err != nil {
						t.Fatalf("%s / %s split %d unit %d: %v", cfg.Name(), e.Program.Name, target, i, err)
					}
				}
				units += len(plan.Units)
			}
		}
	}
	t.Logf("%d units checked", units)
}

// TestCheckShardRejectsMalformedUnits: a unit that is not a shard of
// the program is a typed *UnitError naming the offending entry, never a
// panic and never a verdict.
func TestCheckShardRejectsMalformedUnits(t *testing.T) {
	mp := catalogProgram(t, "MP")
	cfg := machine.DD()
	m, _, err := prepare(cfg, mp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Run MP's first thread to completion along the first enabled
	// transition of every state, so a step of it is malformed at the cut.
	var done []uint32
	for s := m.initial(); int(s.pcs[0]) < len(mp.Threads[0].Ops) || s.blocked&1 != 0; {
		tr := m.enabledInto(nil, s)[0]
		done = append(done, uint32(tr))
		m.apply(s, tr)
	}
	step0 := uint32(mkTrans(tkStep, 0, 0, 0))

	for name, tc := range map[string]struct {
		u     Unit
		field string
	}{
		"thread out of range":   {Unit{Sleep: []uint32{0x01C80000}}, "sleep"},
		"unknown kind":          {Unit{Prefix: []uint32{uint32(mkTrans(9, 0, 0, 0))}}, "prefix"},
		"CU out of range":       {Unit{Sleep: []uint32{uint32(mkTrans(tkEvict, maxCUs, 0, 0))}}, "sleep"},
		"variable out of range": {Unit{Sleep: []uint32{uint32(mkTrans(tkDeliver, 0, home, maxVars))}}, "sleep"},
		"stray operand":         {Unit{Prefix: []uint32{uint32(mkTrans(tkStep, 0, 1, 0))}}, "prefix"},
		"prefix not enabled":    {Unit{Prefix: []uint32{uint32(mkTrans(tkDeliver, 0, home, 0))}}, "prefix"},
		"finished thread":       {Unit{Prefix: done, Sleep: []uint32{step0}}, "sleep"},
	} {
		r, err := CheckShard(cfg, mp, Options{}, tc.u)
		var ue *UnitError
		if !errors.As(err, &ue) {
			t.Errorf("%s: got result %v, error %v; want *UnitError", name, r, err)
			continue
		}
		if ue.Field != tc.field {
			t.Errorf("%s: error names field %q, want %q: %v", name, ue.Field, tc.field, err)
		}
	}

	// The same finished-thread prefix with its step awake is a genuine
	// unit: only the sleeping step of a finished thread is malformed.
	if _, err := CheckShard(cfg, mp, Options{}, Unit{Prefix: done}); err != nil {
		t.Fatalf("replayable prefix rejected: %v", err)
	}
}

// FuzzCheckShard feeds arbitrary units to CheckShard on MP under DD:
// it must return a result, a *UnitError or a *BudgetError, and never
// panic. Each input is two byte strings read as little-endian uint32
// transition lists, prefix then sleep.
//
//	go test -run '^$' -fuzz FuzzCheckShard -fuzztime 20s ./internal/mcheck
func FuzzCheckShard(f *testing.F) {
	mp := catalogProgram(f, "MP")
	cfg := machine.DD()
	words := func(ts []uint32) []byte {
		b := make([]byte, 0, 4*len(ts))
		for _, t := range ts {
			b = binary.LittleEndian.AppendUint32(b, t)
		}
		return b
	}
	f.Add([]byte(nil), words([]uint32{0x01C80000}))
	f.Add([]byte(nil), []byte(nil))
	plan, err := Split(cfg, mp, Options{}, 8)
	if err != nil {
		f.Fatal(err)
	}
	for _, u := range plan.Units {
		f.Add(words(u.Prefix), words(u.Sleep))
	}
	f.Fuzz(func(t *testing.T, prefix, sleep []byte) {
		var u Unit
		for ; len(prefix) >= 4; prefix = prefix[4:] {
			u.Prefix = append(u.Prefix, binary.LittleEndian.Uint32(prefix))
		}
		for ; len(sleep) >= 4; sleep = sleep[4:] {
			u.Sleep = append(u.Sleep, binary.LittleEndian.Uint32(sleep))
		}
		_, err := CheckShard(cfg, mp, Options{Budget: 1000}, u)
		var ue *UnitError
		var be *BudgetError
		if err != nil && !errors.As(err, &ue) && !errors.As(err, &be) {
			t.Fatalf("unit %+v: unexpected error %v", u, err)
		}
	})
}
