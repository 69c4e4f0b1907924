package cache

import (
	"math/rand"
	"strings"
	"testing"

	"denovogpu/internal/mem"
)

// TestStoreBufferCheckInvariantsProperty drives a small buffer through
// a random insert/coalesce/remove/overflow/drain workload, validating
// the structural invariants after every operation.
func TestStoreBufferCheckInvariantsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20260806))
	b := NewStoreBuffer(6)
	words := make([]mem.Word, 24)
	for i := range words {
		words[i] = mem.Addr(i * 4).WordOf()
	}
	for step := 0; step < 2000; step++ {
		w := words[rng.Intn(len(words))]
		switch rng.Intn(10) {
		case 0:
			b.Remove(w)
		case 1:
			b.AppendDrain(nil)
		case 2:
			b.PeekOldest()
		default:
			b.Insert(w, uint32(step))
		}
		if err := b.CheckInvariants(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
}

// TestStoreBufferCheckInvariantsDetectsCorruption hand-breaks each
// structural invariant and checks the detector names it.
func TestStoreBufferCheckInvariantsDetectsCorruption(t *testing.T) {
	w0 := mem.Addr(0x00).WordOf()
	w1 := mem.Addr(0x40).WordOf()

	fresh := func() *StoreBuffer {
		b := NewStoreBuffer(4)
		b.Insert(w0, 1)
		b.Insert(w1, 2)
		return b
	}

	slot := func(b *StoreBuffer, w mem.Word) int32 {
		r, ok := b.index.Get(uint64(w.LineOf()))
		if !ok || !r.mask.Has(w.Index()) {
			t.Fatalf("word %v not indexed", w)
		}
		return int32(r.slot[w.Index()])
	}
	record := func(b *StoreBuffer, w mem.Word) *sbLine {
		r, _ := b.index.Ptr(uint64(w.LineOf()))
		return r
	}

	b := fresh()
	record(b, w0).slot[w0.Index()] = uint16(slot(b, w1))
	if err := b.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "index points to") {
		t.Fatalf("cross-linked index: got %v", err)
	}

	b = fresh()
	b.index.Delete(uint64(w1.LineOf()))
	if err := b.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "does not know") {
		t.Fatalf("missing index entry: got %v", err)
	}

	b = fresh()
	b.pool[slot(b, w1)].prev = nilSlot
	if err := b.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "has prev") {
		t.Fatalf("broken back-pointer: got %v", err)
	}

	b = fresh()
	b.tail = b.head
	if err := b.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "tail") {
		t.Fatalf("stale tail: got %v", err)
	}

	b = fresh()
	b.free = append(b.free, slot(b, w0))
	if err := b.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "pool leak") {
		t.Fatalf("slot both live and free: got %v", err)
	}

	// A mask bit for a word that was never buffered, whose slot names
	// another word's live slot: the list walk alone cannot see it.
	b = fresh()
	stray := w0.LineOf().Word(w0.Index() + 1)
	r := record(b, w0)
	r.mask |= mem.Bit(stray.Index())
	r.slot[stray.Index()] = uint16(slot(b, w0))
	if err := b.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "index maps "+stray.String()) {
		t.Fatalf("mask bit pointing at another word: got %v", err)
	}

	b = fresh()
	b.index.Upsert(uint64(mem.Line(9)))
	if err := b.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "empty record") {
		t.Fatalf("leaked empty line record: got %v", err)
	}
}
