package l2_test

import (
	"testing"

	"denovogpu/internal/coherence"
	"denovogpu/internal/energy"
	"denovogpu/internal/l2"
	"denovogpu/internal/mem"
	"denovogpu/internal/noc"
	"denovogpu/internal/sim"
	"denovogpu/internal/stats"
)

// harness attaches a message collector as the L1 of every node.
type collector struct {
	got []*coherence.Msg
}

func (c *collector) Deliver(p noc.Packet) { c.got = append(c.got, p.(*coherence.Msg)) }

type rig struct {
	eng     *sim.Engine
	mesh    *noc.Mesh
	backing *mem.Backing
	banks   [noc.Nodes]*l2.Bank
	l1s     [noc.Nodes]*collector
	st      *stats.Stats
}

func newRig() *rig {
	r := &rig{eng: sim.NewEngine(1_000_000), backing: mem.NewBacking(), st: stats.New()}
	meter := energy.NewMeter(r.st)
	r.mesh = noc.New(r.eng, r.st, meter)
	for n := noc.NodeID(0); n < noc.Nodes; n++ {
		r.banks[n] = l2.New(n, r.eng, r.mesh, r.backing, r.st, meter)
		r.mesh.Attach(n, noc.PortL2, r.banks[n])
		r.l1s[n] = &collector{}
		r.mesh.Attach(n, noc.PortL1, r.l1s[n])
	}
	return r
}

func (r *rig) send(m *coherence.Msg) { r.mesh.Send(m) }

func (r *rig) run(t *testing.T) {
	t.Helper()
	if err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestHomeNodeInterleaving(t *testing.T) {
	if l2.HomeNode(mem.Line(0)) != 0 || l2.HomeNode(mem.Line(17)) != 1 || l2.HomeNode(mem.Line(31)) != 15 {
		t.Fatal("line interleaving wrong")
	}
}

func TestReadReqReturnsDRAMData(t *testing.T) {
	r := newRig()
	l := mem.Line(3) // homed at node 3
	r.backing.Write(l.Word(5), 99)
	r.eng.Schedule(0, func() {
		r.send(&coherence.Msg{Kind: coherence.ReadReq, Src: 0, Dst: 3, Port: noc.PortL2, Line: l, Mask: mem.AllWords, ID: 7})
	})
	r.run(t)
	got := r.l1s[0].got
	if len(got) != 1 || got[0].Kind != coherence.ReadResp {
		t.Fatalf("got %v", got)
	}
	if got[0].Data[5] != 99 || got[0].Mask != mem.AllWords || got[0].ID != 7 {
		t.Fatalf("bad response %+v", got[0])
	}
	if r.st.Get("l2.dram_fetches") != 1 {
		t.Fatal("cold line must fetch from DRAM")
	}
}

func TestConcurrentFetchesCoalesce(t *testing.T) {
	r := newRig()
	l := mem.Line(3)
	r.eng.Schedule(0, func() {
		r.send(&coherence.Msg{Kind: coherence.ReadReq, Src: 0, Dst: 3, Port: noc.PortL2, Line: l, Mask: mem.AllWords})
		r.send(&coherence.Msg{Kind: coherence.ReadReq, Src: 1, Dst: 3, Port: noc.PortL2, Line: l, Mask: mem.AllWords})
	})
	r.run(t)
	if r.st.Get("l2.dram_fetches") != 1 {
		t.Fatalf("fetches = %d, want 1 (coalesced)", r.st.Get("l2.dram_fetches"))
	}
	if len(r.l1s[0].got) != 1 || len(r.l1s[1].got) != 1 {
		t.Fatal("both requesters must be answered")
	}
}

func TestWriteThroughUpdatesAndAcks(t *testing.T) {
	r := newRig()
	l := mem.Line(4)
	var data [mem.WordsPerLine]uint32
	data[2] = 42
	r.eng.Schedule(0, func() {
		r.send(&coherence.Msg{Kind: coherence.WriteThrough, Src: 5, Dst: 4, Port: noc.PortL2, Line: l, Mask: mem.Bit(2), Data: data})
	})
	r.run(t)
	if r.banks[4].PeekData(l.Word(2)) != 42 {
		t.Fatal("writethrough not applied")
	}
	if len(r.l1s[5].got) != 1 || r.l1s[5].got[0].Kind != coherence.WriteThroughAck {
		t.Fatal("no ack")
	}
}

func TestRegistrationGrantAndForward(t *testing.T) {
	r := newRig()
	l := mem.Line(6)
	r.backing.Write(l.Word(0), 5)
	r.eng.Schedule(0, func() {
		r.send(&coherence.Msg{Kind: coherence.RegReq, Src: 2, Dst: 6, Port: noc.PortL2, Line: l, Mask: mem.Bit(0), NeedsData: true, Sync: true})
	})
	r.run(t)
	if r.banks[6].PeekOwner(l.Word(0)) != 2 {
		t.Fatal("ownership not granted")
	}
	ack := r.l1s[2].got[0]
	if ack.Kind != coherence.RegAck || ack.Data[0] != 5 || !ack.Sync {
		t.Fatalf("bad ack %+v", ack)
	}
	// Second requester: forward to node 2, ownership moves to node 9.
	r.eng.Schedule(0, func() {
		r.send(&coherence.Msg{Kind: coherence.RegReq, Src: 9, Dst: 6, Port: noc.PortL2, Line: l, Mask: mem.Bit(0), Sync: true})
	})
	r.run(t)
	if r.banks[6].PeekOwner(l.Word(0)) != 9 {
		t.Fatal("registry must reassign owner immediately (DeNovoSync0 arrival order)")
	}
	fwd := r.l1s[2].got[1]
	if fwd.Kind != coherence.RegFwd || fwd.Requester != 9 {
		t.Fatalf("bad forward %+v", fwd)
	}
	if len(r.l1s[9].got) != 0 {
		t.Fatal("second requester must wait for the previous owner, not the bank")
	}
}

func TestWriteBackAcceptAndReject(t *testing.T) {
	r := newRig()
	l := mem.Line(6)
	// Node 2 registers word 0.
	r.eng.Schedule(0, func() {
		r.send(&coherence.Msg{Kind: coherence.RegReq, Src: 2, Dst: 6, Port: noc.PortL2, Line: l, Mask: mem.Bit(0)})
	})
	r.run(t)
	// Accepted writeback: owner matches.
	var data [mem.WordsPerLine]uint32
	data[0] = 77
	r.eng.Schedule(0, func() {
		r.send(&coherence.Msg{Kind: coherence.WriteBack, Src: 2, Dst: 6, Port: noc.PortL2, Line: l, Mask: mem.Bit(0), Data: data})
	})
	r.run(t)
	ack := r.l1s[2].got[len(r.l1s[2].got)-1]
	if ack.Kind != coherence.WriteBackAck || !ack.WBAccepted.Has(0) {
		t.Fatalf("accepted writeback got %+v", ack)
	}
	if r.banks[6].PeekOwner(l.Word(0)) != l2.MemoryOwner || r.banks[6].PeekData(l.Word(0)) != 77 {
		t.Fatal("writeback should return ownership and data to the bank")
	}
	// Stale writeback: node 2 no longer owns (node 3 does).
	r.eng.Schedule(0, func() {
		r.send(&coherence.Msg{Kind: coherence.RegReq, Src: 3, Dst: 6, Port: noc.PortL2, Line: l, Mask: mem.Bit(0)})
	})
	r.run(t)
	data[0] = 1234
	r.eng.Schedule(0, func() {
		r.send(&coherence.Msg{Kind: coherence.WriteBack, Src: 2, Dst: 6, Port: noc.PortL2, Line: l, Mask: mem.Bit(0), Data: data})
	})
	r.run(t)
	ack = r.l1s[2].got[len(r.l1s[2].got)-1]
	if ack.Kind != coherence.WriteBackAck || ack.WBAccepted.Has(0) {
		t.Fatalf("stale writeback must be rejected, got %+v", ack)
	}
	if r.banks[6].PeekData(l.Word(0)) == 1234 {
		t.Fatal("stale writeback data must be dropped")
	}
	if r.st.Get("l2.stale_writebacks") != 1 {
		t.Fatal("stale writeback not counted")
	}
}

func TestAtomicRMWAtBank(t *testing.T) {
	r := newRig()
	l := mem.Line(8)
	r.backing.Write(l.Word(1), 10)
	r.eng.Schedule(0, func() {
		r.send(&coherence.Msg{Kind: coherence.AtomicReq, Src: 0, Dst: 8, Port: noc.PortL2,
			Line: l, WordIdx: 1, Op: coherence.AtomicAdd, Operand: 5, ID: 3})
	})
	r.run(t)
	resp := r.l1s[0].got[0]
	if resp.Kind != coherence.AtomicResp || resp.Result != 10 || resp.ID != 3 {
		t.Fatalf("bad atomic response %+v", resp)
	}
	if r.banks[8].PeekData(l.Word(1)) != 15 {
		t.Fatal("atomic not applied at bank")
	}
}

func TestBankSerializesAtomics(t *testing.T) {
	r := newRig()
	l := mem.Line(8)
	r.eng.Schedule(0, func() {
		for i := 0; i < 4; i++ {
			r.send(&coherence.Msg{Kind: coherence.AtomicReq, Src: 0, Dst: 8, Port: noc.PortL2,
				Line: l, WordIdx: 0, Op: coherence.AtomicAdd, Operand: 1, ID: uint64(i)})
		}
	})
	r.run(t)
	if r.banks[8].PeekData(l.Word(0)) != 4 {
		t.Fatalf("value %d, want 4 (atomicity at the bank)", r.banks[8].PeekData(l.Word(0)))
	}
	// Responses spread in time due to bank occupancy.
	if len(r.l1s[0].got) != 4 {
		t.Fatal("all atomics must respond")
	}
}

func TestReadForwardForRegisteredWords(t *testing.T) {
	r := newRig()
	l := mem.Line(6)
	r.eng.Schedule(0, func() {
		r.send(&coherence.Msg{Kind: coherence.RegReq, Src: 4, Dst: 6, Port: noc.PortL2, Line: l, Mask: mem.Bit(3)})
	})
	r.run(t)
	r.eng.Schedule(0, func() {
		r.send(&coherence.Msg{Kind: coherence.ReadReq, Src: 7, Dst: 6, Port: noc.PortL2, Line: l, Mask: mem.Bit(3) | mem.Bit(4), ID: 11})
	})
	r.run(t)
	// Node 7 gets the bank's words (all but word 3); node 4 gets a
	// forward for word 3 only.
	var gotResp, gotFwd bool
	for _, m := range r.l1s[7].got {
		if m.Kind == coherence.ReadResp && !m.Mask.Has(3) && m.Mask.Has(4) {
			gotResp = true
		}
	}
	for _, m := range r.l1s[4].got {
		if m.Kind == coherence.ReadFwd && m.Mask == mem.Bit(3) && m.Requester == 7 && m.ID == 11 {
			gotFwd = true
		}
	}
	if !gotResp || !gotFwd {
		t.Fatalf("resp=%v fwd=%v", gotResp, gotFwd)
	}
}

func TestRecallHelpers(t *testing.T) {
	r := newRig()
	l := mem.Line(6)
	r.eng.Schedule(0, func() {
		r.send(&coherence.Msg{Kind: coherence.RegReq, Src: 4, Dst: 6, Port: noc.PortL2, Line: l, Mask: mem.Bit(0)})
	})
	r.run(t)
	r.banks[6].Recall(l.Word(0), 55)
	if r.banks[6].PeekOwner(l.Word(0)) != l2.MemoryOwner || r.banks[6].PeekData(l.Word(0)) != 55 {
		t.Fatal("recall failed")
	}
	// RecallAll on a fresh registration.
	r.eng.Schedule(0, func() {
		r.send(&coherence.Msg{Kind: coherence.RegReq, Src: 4, Dst: 6, Port: noc.PortL2, Line: l, Mask: mem.Bit(1)})
	})
	r.run(t)
	n := r.banks[6].RecallAll(4, func(mem.Word) uint32 { return 9 })
	if n != 1 || r.banks[6].PeekData(l.Word(1)) != 9 {
		t.Fatalf("recallAll n=%d", n)
	}
}

// A resident line's data is its storage in the memory image: a host
// write to a cold line is what the first timed read returns, PeekData
// agrees with the image before and after the fetch, and timed writes
// land in the image.
func TestBankSharesMemoryImage(t *testing.T) {
	r := newRig()
	bank := r.banks[9]
	l := mem.Line(9)
	bank.PokeData(l.Word(2), 77)
	if bank.PeekData(l.Word(2)) != 77 || r.backing.Read(l.Word(2)) != 77 {
		t.Fatal("host write to a cold line not visible")
	}
	read := func(src noc.NodeID) *coherence.Msg {
		t.Helper()
		r.l1s[src].got = nil
		r.eng.Schedule(0, func() {
			r.send(&coherence.Msg{Kind: coherence.ReadReq, Src: src, Dst: 9, Port: noc.PortL2, Line: l, Mask: mem.AllWords})
		})
		r.run(t)
		if len(r.l1s[src].got) != 1 || r.l1s[src].got[0].Kind != coherence.ReadResp {
			t.Fatalf("got %v", r.l1s[src].got)
		}
		return r.l1s[src].got[0]
	}
	if got := read(1); got.Data[2] != 77 {
		t.Fatalf("timed read after install = %d, want the host's 77", got.Data[2])
	}
	if bank.PeekData(l.Word(2)) != 77 {
		t.Fatal("PeekData changed across install")
	}
	var data [mem.WordsPerLine]uint32
	data[3] = 5
	r.eng.Schedule(0, func() {
		r.send(&coherence.Msg{Kind: coherence.WriteThrough, Src: 2, Dst: 9, Port: noc.PortL2, Line: l, Mask: mem.Bit(3), Data: data})
	})
	r.run(t)
	if r.backing.Read(l.Word(3)) != 5 {
		t.Fatal("writethrough to a resident line did not reach the memory image")
	}
	bank.PokeData(l.Word(4), 8)
	if got := read(1); got.Data[2] != 77 || got.Data[3] != 5 || got.Data[4] != 8 {
		t.Fatalf("resident read = %v, want words 2..4 = 77, 5, 8", got.Data[2:5])
	}
	if r.st.Get("l2.dram_fetches") != 1 {
		t.Fatalf("fetches = %d, want 1", r.st.Get("l2.dram_fetches"))
	}
}

// Recall and RecallAll write the returned values into the memory image,
// for resident and cold lines alike.
func TestRecallLandsInMemoryImage(t *testing.T) {
	r := newRig()
	bank := r.banks[6]
	l := mem.Line(6)
	r.eng.Schedule(0, func() {
		r.send(&coherence.Msg{Kind: coherence.RegReq, Src: 4, Dst: 6, Port: noc.PortL2, Line: l, Mask: mem.Bit(0) | mem.Bit(1)})
	})
	r.run(t)
	bank.Recall(l.Word(0), 55)
	if n := bank.RecallAll(4, func(mem.Word) uint32 { return 9 }); n != 1 {
		t.Fatalf("RecallAll n = %d, want 1", n)
	}
	if r.backing.Read(l.Word(0)) != 55 || r.backing.Read(l.Word(1)) != 9 {
		t.Fatal("recalled values not in the memory image")
	}
	cold := mem.Line(22) // also homed at bank 6, never fetched
	bank.Recall(cold.Word(7), 31)
	if r.backing.Read(cold.Word(7)) != 31 || bank.PeekData(cold.Word(7)) != 31 {
		t.Fatal("recall of a cold word not in the memory image")
	}
	r.eng.Schedule(0, func() {
		r.send(&coherence.Msg{Kind: coherence.ReadReq, Src: 2, Dst: 6, Port: noc.PortL2, Line: l, Mask: mem.AllWords})
	})
	r.run(t)
	got := r.l1s[2].got
	if len(got) != 1 || got[0].Mask != mem.AllWords || got[0].Data[0] != 55 || got[0].Data[1] != 9 {
		t.Fatalf("read after recall = %+v", got)
	}
}

// recycler is a noc.Sender that keeps the bank's responses so the
// benchmark can send them back as requests: with both directions
// pooled, a steady-state fill allocates nothing per line.
type recycler struct{ free []*coherence.Msg }

func (s *recycler) Send(p noc.Packet) { s.free = append(s.free, p.(*coherence.Msg)) }

func (s *recycler) req(v coherence.Msg) *coherence.Msg {
	if n := len(s.free); n > 0 {
		m := s.free[n-1]
		s.free = s.free[:n-1]
		*m = v
		return m
	}
	return &v
}

// BenchmarkBankInstall times the L2 bank's cold-read path — request,
// DRAM fetch, install and response — for a batch of lines seeded by the
// host, the fill pattern of every kernel's first touch. The mesh is
// replaced by a recycling sink so only the bank is measured.
func BenchmarkBankInstall(b *testing.B) {
	const lines = 1024
	st := stats.New()
	meter := energy.NewMeter(st)
	backing := mem.NewBacking()
	for k := 0; k < lines; k++ {
		l := mem.Line(k * noc.Nodes) // homed at bank 0
		for i := 0; i < mem.WordsPerLine; i++ {
			backing.Write(l.Word(i), uint32(k+i))
		}
	}
	sink := &recycler{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		eng := sim.NewEngine(0)
		bank := l2.New(0, eng, sink, backing, st, meter)
		b.StartTimer()
		for k := 0; k < lines; k++ {
			bank.Deliver(sink.req(coherence.Msg{Kind: coherence.ReadReq, Src: 1, Dst: 0, Port: noc.PortL2, Line: mem.Line(k * noc.Nodes), Mask: mem.AllWords}))
		}
		if err := eng.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*lines), "ns/line")
}
