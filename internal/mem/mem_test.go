package mem

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestGeometry(t *testing.T) {
	if WordsPerLine != 16 {
		t.Fatalf("WordsPerLine = %d, want 16", WordsPerLine)
	}
	a := Addr(0x1234)
	if !a.Aligned() {
		t.Fatal("0x1234 should be word aligned")
	}
	if a.LineOf() != Line(0x48) {
		t.Fatalf("LineOf(0x1234) = %v", a.LineOf())
	}
	if a.WordOf() != Word(0x48D) {
		t.Fatalf("WordOf(0x1234) = %v", a.WordOf())
	}
	if a.WordIndex() != 13 {
		t.Fatalf("WordIndex(0x1234) = %d, want 13", a.WordIndex())
	}
}

// Property: word/line round trips are consistent for any address.
func TestAddressRoundTripProperty(t *testing.T) {
	f := func(raw uint64) bool {
		a := Addr(raw &^ 3) // word align
		w := a.WordOf()
		l := a.LineOf()
		return w.Addr() == a &&
			w.LineOf() == l &&
			l.Word(w.Index()) == w &&
			a.WordIndex() == w.Index() &&
			l.Addr().LineOf() == l
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWordMask(t *testing.T) {
	m := Bit(0) | Bit(5) | Bit(15)
	if m.Count() != 3 {
		t.Fatalf("Count = %d, want 3", m.Count())
	}
	if !m.Has(5) || m.Has(6) {
		t.Fatal("Has gives wrong membership")
	}
	if AllWords.Count() != WordsPerLine {
		t.Fatalf("AllWords.Count = %d", AllWords.Count())
	}
}

// Property: mask count equals number of set bits for any mask.
func TestWordMaskCountProperty(t *testing.T) {
	f := func(m uint16) bool {
		mask := WordMask(m)
		n := 0
		for i := 0; i < 16; i++ {
			if m&(1<<i) != 0 {
				n++
			}
		}
		return mask.Count() == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBackingReadWrite(t *testing.T) {
	b := NewBacking()
	if b.Read(Word(10)) != 0 {
		t.Fatal("unwritten word should read 0")
	}
	if len(b.pages) != 0 {
		t.Fatal("reading an unwritten word must not materialize a page")
	}
	b.Write(Word(10), 42)
	if b.Read(Word(10)) != 42 {
		t.Fatal("write not visible")
	}
	if len(b.pages) != 1 {
		t.Fatalf("pages = %d, want 1", len(b.pages))
	}
}

// The zero Backing is ready to use: the page map is created on the
// first write.
func TestBackingZeroValue(t *testing.T) {
	var b Backing
	if b.Read(Word(1)) != 0 {
		t.Fatal("zero Backing should read 0")
	}
	b.Write(Word(1), 2)
	if b.Read(Word(1)) != 2 {
		t.Fatal("write to zero Backing not visible")
	}
	if got := b.Line(Line(5))[3]; got != 0 {
		t.Fatalf("fresh line word = %d, want 0", got)
	}
}

func TestBackingLineOps(t *testing.T) {
	b := NewBacking()
	var vals [WordsPerLine]uint32
	for i := range vals {
		vals[i] = uint32(i * 100)
	}
	l := Line(7)
	b.Write(l.Word(3), vals[3])
	b.Write(l.Word(4), vals[4])
	got := *b.Line(l)
	for i := range got {
		want := uint32(0)
		if i == 3 || i == 4 {
			want = uint32(i * 100)
		}
		if got[i] != want {
			t.Fatalf("word %d = %d, want %d (word write leaked)", i, got[i], want)
		}
	}
	*b.Line(l) = vals
	for i := range vals {
		if got := b.Read(l.Word(i)); got != vals[i] {
			t.Fatalf("full-line write word %d = %d, want %d", i, got, vals[i])
		}
	}
	for _, n := range []Line{l - 1, l + 1} {
		if *b.Line(n) != ([WordsPerLine]uint32{}) {
			t.Fatalf("line write leaked into %v", n)
		}
	}
}

// Property: word writes under a mask followed by a line read return the
// written values under the mask and leave the other words untouched.
func TestBackingMaskedWriteProperty(t *testing.T) {
	f := func(line uint32, m uint16, seedVals [WordsPerLine]uint32) bool {
		b := NewBacking()
		l := Line(line)
		base := [WordsPerLine]uint32{}
		for i := range base {
			base[i] = uint32(i) + 1
		}
		*b.Line(l) = base
		for i := 0; i < WordsPerLine; i++ {
			if WordMask(m).Has(i) {
				b.Write(l.Word(i), seedVals[i])
			}
		}
		got := b.Line(l)
		for i := 0; i < WordsPerLine; i++ {
			want := base[i]
			if WordMask(m).Has(i) {
				want = seedVals[i]
			}
			if got[i] != want || b.Read(l.Word(i)) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestBackingDifferential runs a seeded random mix of Write, Read and
// Line operations, clustered so they cross page boundaries, against a
// per-word map reference. A Line pointer taken before any other page
// exists must still alias its line after many pages are created.
func TestBackingDifferential(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 2015))
	b := NewBacking()
	ref := make(map[Word]uint32)

	// The last line of a page, next to a boundary the mix targets.
	early := Line(3*pageLines - 1)
	held := b.Line(early)
	held[WordsPerLine-1] = 0xfeed
	ref[early.Word(WordsPerLine-1)] = 0xfeed

	// Words near page boundaries, in a handful of far-apart regions.
	word := func() Word {
		region := Word(rng.IntN(8)) << 30
		boundary := Word(rng.IntN(64)+1) * pageLines * WordsPerLine
		return region + boundary + Word(rng.IntN(4*WordsPerLine)) - 2*WordsPerLine
	}
	for step := 0; step < 50_000; step++ {
		switch w := word(); rng.IntN(4) {
		case 0, 1:
			v := rng.Uint32()
			b.Write(w, v)
			ref[w] = v
		case 2:
			if got := b.Read(w); got != ref[w] {
				t.Fatalf("step %d: Read(%v) = %d, want %d", step, w, got, ref[w])
			}
		case 3:
			l := w.LineOf()
			line := b.Line(l)
			for i := range line {
				if line[i] != ref[l.Word(i)] {
					t.Fatalf("step %d: Line(%v)[%d] = %d, want %d", step, l, i, line[i], ref[l.Word(i)])
				}
			}
			i := rng.IntN(WordsPerLine)
			v := rng.Uint32()
			line[i] = v
			ref[l.Word(i)] = v
		}
	}
	if len(b.pages) < 100 {
		t.Fatalf("only %d pages created; the test must span many", len(b.pages))
	}
	for w, v := range ref {
		if got := b.Read(w); got != v {
			t.Fatalf("final Read(%v) = %d, want %d", w, got, v)
		}
	}
	if held != b.Line(early) {
		t.Fatal("early Line pointer no longer returned for its line")
	}
	for i := range held {
		if held[i] != ref[early.Word(i)] {
			t.Fatalf("early Line pointer word %d = %d, want %d", i, held[i], ref[early.Word(i)])
		}
	}
	held[0] = 7
	if b.Read(early.Word(0)) != 7 {
		t.Fatal("write through an early Line pointer not visible to Read")
	}
}

// BenchmarkBackingWrite streams host input seeding: consecutive words
// over a 1 MB array, the pattern Machine.WriteWords drives.
func BenchmarkBackingWrite(b *testing.B) {
	const words = 1 << 18
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := NewBacking()
		for w := Word(0); w < words; w++ {
			m.Write(w, uint32(w))
		}
	}
	b.SetBytes(words * WordBytes)
}
