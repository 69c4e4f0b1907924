package cache

import (
	"math/rand"
	"reflect"
	"testing"

	"denovogpu/internal/mem"
)

// refStoreBuffer is an obviously-correct reference model of the store
// buffer's contract: live entries in insertion order, where a word's
// position is that of its most recent insertion (a coalescing write
// keeps the original position; a remove-then-reinsert moves the word to
// the tail). The pooled intrusive-list implementation must match it
// operation for operation.
type refStoreBuffer struct {
	cap     int
	entries []SBEntry
}

func (r *refStoreBuffer) find(w mem.Word) int {
	for i, e := range r.entries {
		if e.Word == w {
			return i
		}
	}
	return -1
}

func (r *refStoreBuffer) Lookup(w mem.Word) (uint32, bool) {
	if i := r.find(w); i >= 0 {
		return r.entries[i].Val, true
	}
	return 0, false
}

func (r *refStoreBuffer) LineLookup(l mem.Line, vals *[mem.WordsPerLine]uint32) mem.WordMask {
	var mask mem.WordMask
	for _, e := range r.entries {
		if e.Word.LineOf() == l {
			mask |= mem.Bit(e.Word.Index())
			vals[e.Word.Index()] = e.Val
		}
	}
	return mask
}

func (r *refStoreBuffer) Insert(w mem.Word, v uint32) (coalesced bool, evicted *LineGroup) {
	if i := r.find(w); i >= 0 {
		r.entries[i].Val = v
		return true, nil
	}
	if len(r.entries) >= r.cap {
		evicted = r.popOldestLine()
	}
	r.entries = append(r.entries, SBEntry{Word: w, Val: v})
	return false, evicted
}

func (r *refStoreBuffer) popOldestLine() *LineGroup {
	g := &LineGroup{Line: r.entries[0].Word.LineOf()}
	kept := r.entries[:0]
	for _, e := range r.entries {
		if e.Word.LineOf() == g.Line {
			g.Mask |= mem.Bit(e.Word.Index())
			g.Data[e.Word.Index()] = e.Val
			continue
		}
		kept = append(kept, e)
	}
	r.entries = kept
	return g
}

func (r *refStoreBuffer) Remove(w mem.Word) (uint32, bool) {
	i := r.find(w)
	if i < 0 {
		return 0, false
	}
	v := r.entries[i].Val
	r.entries = append(r.entries[:i], r.entries[i+1:]...)
	return v, true
}

func (r *refStoreBuffer) PeekOldest() (SBEntry, bool) {
	if len(r.entries) == 0 {
		return SBEntry{}, false
	}
	return r.entries[0], true
}

func (r *refStoreBuffer) Entries() []SBEntry {
	return append([]SBEntry(nil), r.entries...)
}

func (r *refStoreBuffer) DrainAll() []SBEntry {
	out := append([]SBEntry(nil), r.entries...)
	r.entries = r.entries[:0]
	return out
}

// TestStoreBufferMatchesReference drives the pooled implementation and
// the reference model through long random operation sequences and
// requires every observable output to agree, including each evicted
// line group and, after every operation, LineLookup of every line in
// the word space. Small capacities and a narrow word range force
// constant coalescing, overflow eviction, and remove-then-reinsert
// traffic.
func TestStoreBufferMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20260805))
	for trial := 0; trial < 50; trial++ {
		capacity := 1 + rng.Intn(24)
		b := NewStoreBuffer(capacity)
		ref := &refStoreBuffer{cap: capacity}
		words := 4 + rng.Intn(60) // word space; small => heavy coalescing
		for op := 0; op < 400; op++ {
			w := mem.Word(rng.Intn(words))
			switch rng.Intn(10) {
			case 0, 1, 2, 3, 4: // insert
				v := rng.Uint32()
				gc, ge := b.Insert(w, v)
				wc, we := ref.Insert(w, v)
				if gc != wc || !reflect.DeepEqual(ge, we) {
					t.Fatalf("trial %d op %d: Insert(%v)=(%v,%+v) want (%v,%+v)", trial, op, w, gc, ge, wc, we)
				}
			case 5, 6: // remove
				gv, gok := b.Remove(w)
				wv, wok := ref.Remove(w)
				if gv != wv || gok != wok {
					t.Fatalf("trial %d op %d: Remove(%v)=(%v,%v) want (%v,%v)", trial, op, w, gv, gok, wv, wok)
				}
			case 7: // lookup
				gv, gok := b.Lookup(w)
				wv, wok := ref.Lookup(w)
				if gv != wv || gok != wok {
					t.Fatalf("trial %d op %d: Lookup(%v)=(%v,%v) want (%v,%v)", trial, op, w, gv, gok, wv, wok)
				}
			case 8: // peek
				ge, gok := b.PeekOldest()
				we, wok := ref.PeekOldest()
				if ge != we || gok != wok {
					t.Fatalf("trial %d op %d: PeekOldest()=(%+v,%v) want (%+v,%v)", trial, op, ge, gok, we, wok)
				}
			case 9: // occasionally drain everything (a release)
				if rng.Intn(4) == 0 {
					got, want := b.DrainAll(), ref.DrainAll()
					if !sbEntriesEqual(got, want) {
						t.Fatalf("trial %d op %d: DrainAll()=%v want %v", trial, op, got, want)
					}
				}
			}
			if b.Len() != len(ref.entries) {
				t.Fatalf("trial %d op %d: Len()=%d want %d", trial, op, b.Len(), len(ref.entries))
			}
			if got, want := b.Entries(), ref.Entries(); !sbEntriesEqual(got, want) {
				t.Fatalf("trial %d op %d: Entries()=%v want %v", trial, op, got, want)
			}
			for l := mem.Line(0); l <= mem.Word(words-1).LineOf(); l++ {
				var gv, wv [mem.WordsPerLine]uint32
				gm, wm := b.LineLookup(l, &gv), ref.LineLookup(l, &wv)
				if gm != wm || gv != wv {
					t.Fatalf("trial %d op %d: LineLookup(%v)=(%#x,%v) want (%#x,%v)", trial, op, l, gm, gv, wm, wv)
				}
			}
		}
	}
}

func sbEntriesEqual(a, b []SBEntry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestStoreBufferRemoveReinsert pins the corrected remove-then-reinsert
// semantics. The original slice-backed FIFO never scrubbed a removed
// word's position marker, so reinserting the word made Entries and
// DrainAll emit it twice — once at the stale position, once at the tail
// — double-counting store-buffer drain energy and perturbing drain
// order. A reinserted word must appear exactly once, at the tail.
func TestStoreBufferRemoveReinsert(t *testing.T) {
	b := NewStoreBuffer(8)
	w0, w1 := mem.Word(0), mem.Word(100)
	b.Insert(w0, 1)
	b.Insert(w1, 2)
	if _, ok := b.Remove(w0); !ok {
		t.Fatal("Remove(w0) missed")
	}
	b.Insert(w0, 3)
	want := []SBEntry{{Word: w1, Val: 2}, {Word: w0, Val: 3}}
	if got := b.Entries(); !sbEntriesEqual(got, want) {
		t.Fatalf("Entries()=%v want %v (reinserted word once, at tail)", got, want)
	}
	if e, _ := b.PeekOldest(); e.Word != w1 {
		t.Fatalf("PeekOldest()=%v want %v", e.Word, w1)
	}
	if got := b.DrainAll(); !sbEntriesEqual(got, want) {
		t.Fatalf("DrainAll()=%v want %v", got, want)
	}
	if b.Len() != 0 {
		t.Fatalf("Len()=%d after drain", b.Len())
	}
}
