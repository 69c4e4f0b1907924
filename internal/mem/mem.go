// Package mem defines the address geometry and the flat backing store
// shared by every component of the simulated memory hierarchy.
//
// The simulated machine uses 4-byte words and 64-byte cache lines
// (16 words per line), matching the paper's configuration. Coherence
// state in the DeNovo protocol is kept at word granularity while tags
// and transfers use line granularity, so both units appear throughout
// the codebase; this package centralizes the arithmetic.
package mem

import "fmt"

// Geometry constants. These are fixed for the whole simulator: the
// paper's protocols assume 4 B words, and GPU caches use 64 B lines.
const (
	WordBytes    = 4
	LineBytes    = 64
	WordsPerLine = LineBytes / WordBytes
)

// Addr is a byte address in the unified shared address space.
type Addr uint64

// Line identifies a cache line (Addr >> 6).
type Line uint64

// Word identifies a 4-byte word (Addr >> 2).
type Word uint64

// LineOf returns the cache line containing a.
func (a Addr) LineOf() Line { return Line(a / LineBytes) }

// WordOf returns the word containing a.
func (a Addr) WordOf() Word { return Word(a / WordBytes) }

// WordIndex returns the index of a's word within its line (0..15).
func (a Addr) WordIndex() int { return int(a % LineBytes / WordBytes) }

// Aligned reports whether a is word aligned. Every access in the
// simulator is word aligned; the paper's benchmarks have no byte
// granularity accesses (its footnote 1).
func (a Addr) Aligned() bool { return a%WordBytes == 0 }

// Addr returns the byte address of the first byte of the line.
func (l Line) Addr() Addr { return Addr(l) * LineBytes }

// Word returns the i'th word of the line.
func (l Line) Word(i int) Word { return Word(l)*WordsPerLine + Word(i) }

// Addr returns the byte address of the word.
func (w Word) Addr() Addr { return Addr(w) * WordBytes }

// LineOf returns the line containing the word.
func (w Word) LineOf() Line { return Line(w / WordsPerLine) }

// Index returns the word's index within its line (0..15).
func (w Word) Index() int { return int(w % WordsPerLine) }

func (a Addr) String() string { return fmt.Sprintf("0x%x", uint64(a)) }
func (l Line) String() string { return fmt.Sprintf("line 0x%x", uint64(l)) }
func (w Word) String() string { return fmt.Sprintf("word 0x%x", uint64(w)) }

// WordMask is a bitmask over the 16 words of a line.
type WordMask uint16

// AllWords covers every word of a line.
const AllWords WordMask = 1<<WordsPerLine - 1

// Bit returns the mask with only word index i set.
func Bit(i int) WordMask { return 1 << uint(i) }

// Has reports whether word index i is in the mask.
func (m WordMask) Has(i int) bool { return m&Bit(i) != 0 }

// Count returns the number of words in the mask.
func (m WordMask) Count() int {
	n := 0
	for i := 0; i < WordsPerLine; i++ {
		if m.Has(i) {
			n++
		}
	}
	return n
}

// Backing is the flat main-memory image. It carries real data values so
// the simulation is functional as well as timed: benchmarks compute real
// results that tests verify. The zero value is ready to use; absent
// words read as zero, like zero-initialized device memory.
//
// The image is paged at line granularity: a page holds pageLines whole
// lines and is created zeroed by the first Write or Line that touches
// it. Pages never move, so the line storage Line returns stays valid
// for the life of the image; the L2 banks (and the MESI directory)
// keep those pointers as their data rows, which makes the image the
// one copy of every line's data.
type Backing struct {
	pages map[uint64]*page
	// last caches the most recently used page so streaming host writes
	// and sequential fills skip the map.
	last    *page
	lastNum uint64
}

// pageShift is log2 of the lines per page: 64 lines, 4 KB of data.
const (
	pageShift = 6
	pageLines = 1 << pageShift
)

type page [pageLines][WordsPerLine]uint32

// NewBacking returns an empty backing store.
func NewBacking() *Backing { return &Backing{} }

// page returns the page holding line l, creating it if create is set;
// without create, an absent page is nil.
func (b *Backing) page(l Line, create bool) *page {
	n := uint64(l) >> pageShift
	if b.last != nil && b.lastNum == n {
		return b.last
	}
	p := b.pages[n]
	if p == nil {
		if !create {
			return nil
		}
		if b.pages == nil {
			b.pages = make(map[uint64]*page)
		}
		p = new(page)
		b.pages[n] = p
	}
	b.last, b.lastNum = p, n
	return p
}

// Read returns the value of word w.
func (b *Backing) Read(w Word) uint32 {
	l := w.LineOf()
	if p := b.page(l, false); p != nil {
		return p[l&(pageLines-1)][w.Index()]
	}
	return 0
}

// Write sets the value of word w.
func (b *Backing) Write(w Word, v uint32) { b.Line(w.LineOf())[w.Index()] = v }

// Line returns the storage of line l, materializing it zeroed if
// absent. The pointer stays valid, and aliases the line, for the life
// of the image.
func (b *Backing) Line(l Line) *[WordsPerLine]uint32 {
	return &b.page(l, true)[l&(pageLines-1)]
}
