package main

import (
	"math/rand/v2"
	"slices"
	"time"
)

// hostProbe is a fixed reference workload that shares no code with the
// program: a pointer chase through a 4 MB table, a map build, a tree
// of small allocations and a sort. Timed right next to each operation
// the benchmark measures, it tells how fast this host was running at
// that moment, so an operation's time can be expressed relative to it
// and host-speed drift cancels.
// probeNominal is the probe's typical time on the host this benchmark
// was tuned on (2-vCPU Xeon, Go 1.24). A time t measured next to a probe
// run of p seconds is reported as t*probeNominal/p: seconds at that
// nominal host speed.
const probeNominal = 3e-3

type hostProbe struct {
	next []uint32
	keys []uint64
	sink uint64
}

// probeTableBytes is the size of the probe's chase table, which stays
// live for the whole run; memory peaks exclude it.
const probeTableBytes = 4 << 20

func newHostProbe() *hostProbe {
	r := rand.New(rand.NewPCG(1, 2))
	h := &hostProbe{next: make([]uint32, probeTableBytes/4), keys: make([]uint64, 8192)}
	for i := range h.next {
		h.next[i] = uint32(i)
	}
	// Sattolo's shuffle: one random cycle through the whole table.
	for i := len(h.next) - 1; i > 0; i-- {
		j := r.IntN(i)
		h.next[i], h.next[j] = h.next[j], h.next[i]
	}
	for i := range h.keys {
		h.keys[i] = r.Uint64()
	}
	return h
}

type probeNode struct {
	left, right *probeNode
	v           uint64
}

func probeTree(depth int, v uint64) *probeNode {
	if depth == 0 {
		return &probeNode{v: v}
	}
	return &probeNode{left: probeTree(depth-1, v*2), right: probeTree(depth-1, v*2+1), v: v}
}

func (n *probeNode) sum() uint64 {
	if n == nil {
		return 0
	}
	return n.v + n.left.sum() + n.right.sum()
}

// normalize scales a time measured next to a probe run of p seconds to
// seconds at the nominal host speed.
func normalize(t, p float64) float64 { return t * probeNominal / p }

// run times one pass of the probe, in seconds.
func (h *hostProbe) run() float64 {
	t0 := time.Now()
	p := uint32(0)
	for i := 0; i < 20000; i++ {
		p = h.next[p]
	}
	m := make(map[uint64]uint32, len(h.keys)/4)
	for i, k := range h.keys {
		m[k] = uint32(i)
	}
	s := slices.Clone(h.keys)
	slices.Sort(s)
	h.sink += uint64(p) + uint64(len(m)) + s[0] + probeTree(12, 1).sum()
	return since(t0)
}
