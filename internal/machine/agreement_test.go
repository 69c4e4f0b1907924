package machine

import (
	"fmt"
	"testing"

	"denovogpu/internal/coherence"
	"denovogpu/internal/denovo"
	"denovogpu/internal/l2"
	"denovogpu/internal/mem"
	"denovogpu/internal/noc"
	"denovogpu/internal/workload"
)

// The l2-agreement check (the always-on DeNovo half of
// Machine.CheckInvariants) must refuse a quiesced machine whose
// registry and L1s disagree, and name the first disagreeing word in
// walk order: banks by node, lines by first touch, words by index.

// TestL2AgreementDetectsUnownedWord steals two registered words of one
// line from their owning L1 without recalling them to the registry, so
// the registry still names an L1 that no longer owns them. The check
// must name the lower-indexed word.
func TestL2AgreementDetectsUnownedWord(t *testing.T) {
	m := New(DD())
	base := mem.Addr(0x5000)
	m.Launch(func(ctx *workload.Ctx) {
		if ctx.TB == 0 {
			ctx.Store(base, 7)
			ctx.Store(base+8, 8)
		}
	}, 1, 32)
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("clean machine fails the check: %v", err)
	}
	lo, hi := base.WordOf(), (base + 8).WordOf()
	bank := m.banks[m.topo.HomeNode(lo.LineOf())]
	owner := bank.PeekOwner(lo)
	if owner == l2.MemoryOwner || bank.PeekOwner(hi) != owner {
		t.Fatalf("stores left owners %d and %d, want one L1 owning both", owner, bank.PeekOwner(hi))
	}
	dn := m.denovoL1s[m.l1Index(owner)].(*denovo.Controller)
	for _, w := range []mem.Word{hi, lo} {
		if _, ok := dn.HostSteal(w); !ok {
			t.Fatalf("node %d does not hold %v registered", owner, w)
		}
	}
	want := fmt.Sprintf("word %v registered to node %d, which does not own it", lo, owner)
	if err := m.CheckInvariants(); err == nil || err.Error() != want {
		t.Fatalf("CheckInvariants() = %v, want %q", err, want)
	}
}

// sinkL1 stands in at an L1 port and drops whatever the registry
// sends it.
type sinkL1 struct{}

func (sinkL1) Deliver(noc.Packet) {}

// TestL2AgreementDetectsCULessOwner registers a word to a mesh node
// that hosts no CU (the paper machine's 16th node): the registry then
// names an owner with no L1 to agree with it.
func TestL2AgreementDetectsCULessOwner(t *testing.T) {
	m := New(DD())
	node := noc.NodeID(m.cfg.NumCUs)
	if _, ok := m.l1IndexOK(node); ok {
		t.Fatalf("node %d hosts a CU", node)
	}
	m.Mesh().Attach(node, noc.PortL1, sinkL1{})
	w := mem.Addr(0x6004).WordOf()
	l := w.LineOf()
	m.Mesh().Send(&coherence.Msg{
		Kind: coherence.RegReq, Src: node, Dst: m.topo.HomeNode(l), Port: noc.PortL2,
		Line: l, Mask: mem.Bit(w.Index()),
	})
	if err := m.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got := m.banks[m.topo.HomeNode(l)].PeekOwner(w); got != node {
		t.Fatalf("registry owner %d, want %d", got, node)
	}
	want := fmt.Sprintf("word %v registered to nonexistent node %d", w, node)
	if err := m.CheckInvariants(); err == nil || err.Error() != want {
		t.Fatalf("CheckInvariants() = %v, want %q", err, want)
	}
}
