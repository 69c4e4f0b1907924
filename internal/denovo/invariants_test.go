package denovo

import (
	"strings"
	"testing"

	"denovogpu/internal/cache"
	"denovogpu/internal/coherence"
	"denovogpu/internal/mem"
	"denovogpu/internal/testrig"
)

// The sanitizer tests below hand-corrupt controller state into the
// exact shapes the model checker's invariants forbid and verify that
// the armed controller refuses them. The release-path case is the
// mechanism of the lazy-sync registration overwrite bug (pinned in
// internal/litmus): before the fix, a release could batch a delayed
// slot whose word already had a sync registration in flight,
// overwriting the transaction and losing its waiters.

func lazyCtl(r *testrig.Rig) *Controller {
	c := newCtl(r, 0, Options{LazyWrites: true})
	c.EnableInvariantChecks()
	return c
}

func TestSanitizerKickOverRegistrationPanics(t *testing.T) {
	r := testrig.New()
	c := lazyCtl(r)
	w := mem.Addr(0x40).WordOf()
	c.sb.Insert(w, 1)
	c.lazy.Put(uint64(w), true)
	c.regs.Put(uint64(w), &regTxn{})
	defer func() {
		if rec := recover(); rec == nil {
			t.Fatal("kicking a delayed word with a registration in flight did not panic")
		} else if !strings.Contains(rec.(string), "lazy-reg-exclusive") {
			t.Fatalf("panic %q does not name the invariant", rec)
		}
	}()
	c.kickOldestLazy()
}

func TestSanitizerReleaseOverRegistrationPanics(t *testing.T) {
	r := testrig.New()
	c := lazyCtl(r)
	w := mem.Addr(0x40).WordOf()
	c.sb.Insert(w, 1)
	c.lazy.Put(uint64(w), true)
	c.regs.Put(uint64(w), &regTxn{})
	defer func() {
		if rec := recover(); rec == nil {
			t.Fatal("release batching a delayed word with a registration in flight did not panic")
		} else if !strings.Contains(rec.(string), "lazy-reg-exclusive") {
			t.Fatalf("panic %q does not name the invariant", rec)
		}
	}()
	c.Release(coherence.ScopeGlobal, func() {})
}

func TestSanitizerQuiesceChecks(t *testing.T) {
	r := testrig.New()
	c := lazyCtl(r)
	w := mem.Addr(0x40).WordOf()
	if err := c.CheckInvariants(); err != nil {
		t.Fatalf("fresh controller: %v", err)
	}

	// A lazy mark with no buffered write is an orphan.
	c.lazy.Put(uint64(w), true)
	if err := c.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "lazy-orphan") {
		t.Fatalf("orphan lazy mark: got %v, want lazy-orphan", err)
	}
	c.sb.Insert(w, 7)
	if err := c.CheckInvariants(); err != nil {
		t.Fatalf("backed lazy mark: %v", err)
	}

	// A delayed word must not also be mid-registration.
	c.regs.Put(uint64(w), &regTxn{})
	if err := c.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "lazy-reg-exclusive") {
		t.Fatalf("delayed+registering word: got %v, want lazy-reg-exclusive", err)
	}
	c.regs.Delete(uint64(w))

	// Victim values and states must stay paired.
	c.victim.Put(w, 3)
	if err := c.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "wb-lost") {
		t.Fatalf("unpaired victim value: got %v, want wb-lost", err)
	}
}

// TestDrainErrorCountsOwnedWords: owned words parked for want of a
// cache frame (the only frame of a 1-way, 1-set L1 is pinned) show in
// OwnedMask and CacheWordState, and the drain error counts them as
// words, not lines.
func TestDrainErrorCountsOwnedWords(t *testing.T) {
	r := testrig.New()
	c := New(0, r.Eng, r.Mesh, r.Stats, r.Meter, mem.LineBytes, 1, 256, Options{})
	other, l := mem.Line(7), mem.Line(8)
	c.frame(other)
	c.pin(other)
	mask := mem.Bit(2) | mem.Bit(5)
	for _, i := range []int{2, 5} {
		c.regs.Put(uint64(l.Word(i)), c.newRegTxn())
	}
	c.ownershipArrived(l, mask, [mem.WordsPerLine]uint32{2: 20, 5: 50}, true)
	if got := c.OwnedMask(l); got != mask {
		t.Fatalf("OwnedMask = %#x, want %#x", got, mask)
	}
	if st := c.CacheWordState(l.Word(5)); st != cache.Registered {
		t.Fatalf("parked word state %v, want Registered", st)
	}
	if v, ok := c.PeekWord(l.Word(5)); !ok || v != 50 {
		t.Fatalf("PeekWord = %d, %v; want 50", v, ok)
	}
	_, err := c.HostDropClean()
	if err == nil || !strings.Contains(err.Error(), "own=2 ") {
		t.Fatalf("HostDropClean() = %v, want a not-drained error with own=2", err)
	}
}
