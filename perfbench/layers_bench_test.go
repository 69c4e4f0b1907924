package main

// Layer microbenchmarks for the layers that had none, written against
// each layer's public API. Run them with
//
//	cd perfbench && go test -run '^$' -bench . -benchmem

import (
	"iter"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"denovogpu"
	"denovogpu/internal/energy"
	"denovogpu/internal/noc"
	"denovogpu/internal/resultcache"
	"denovogpu/internal/sim"
	"denovogpu/internal/stats"
)

type benchPacket struct{ r noc.Route }

func (p *benchPacket) NocRoute() noc.Route { return p.r }

type sink struct{ n int }

func (s *sink) Deliver(noc.Packet) { s.n++ }

// BenchmarkMeshSend sends one data packet corner to corner across the
// 4x4 mesh and drains its delivery.
func BenchmarkMeshSend(b *testing.B) {
	eng := sim.NewEngine(0)
	st := stats.New()
	m := noc.New(eng, st, energy.NewMeter(st))
	dst := &sink{}
	m.Attach(noc.NodeID(15), noc.Port(0), dst)
	p := &benchPacket{r: noc.Route{Src: 0, Dst: 15, Port: noc.Port(0), Class: stats.TrafficRead, PayloadBytes: 64}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Send(p)
		if err := eng.Run(); err != nil {
			b.Fatal(err)
		}
	}
	if dst.n != b.N {
		b.Fatalf("delivered %d of %d", dst.n, b.N)
	}
}

// BenchmarkCoroutineRoundTrip is one iter.Pull next/yield round trip,
// the switch a thread block makes at every rendezvous with its CU.
func BenchmarkCoroutineRoundTrip(b *testing.B) {
	next, stop := iter.Pull(func(yield func(int) bool) {
		for i := 0; yield(i); i++ {
		}
	})
	defer stop()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := next(); !ok {
			b.Fatal("coroutine ended")
		}
	}
}

func BenchmarkStatsIncKey(b *testing.B) {
	k := stats.Intern("perfbench.inc")
	b.Run("plain", func(b *testing.B) {
		st := stats.New()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			st.IncKey(k, 1)
		}
	})
	b.Run("device-view", func(b *testing.B) {
		v := stats.New().DeviceView(1)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			v.IncKey(k, 1)
		}
	})
}

// goldenReport loads one committed canonical report.
func goldenReport(b *testing.B) []byte {
	data, err := os.ReadFile(filepath.Join("..", goldenDir, "SPM_L_DD.json"))
	if err != nil {
		b.Fatal(err)
	}
	return data
}

func BenchmarkResultCache(b *testing.B) {
	payload := goldenReport(b)
	key := func(i int) string {
		k := strconv.FormatInt(int64(i), 16)
		for len(k) < 64 {
			k = "0" + k
		}
		return k
	}
	b.Run("Put", func(b *testing.B) {
		c, err := resultcache.Open(b.TempDir(), 0)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := c.Put(key(i), payload); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Get", func(b *testing.B) {
		c, err := resultcache.Open(b.TempDir(), 0)
		if err != nil {
			b.Fatal(err)
		}
		const keys = 64
		for i := 0; i < keys; i++ {
			if err := c.Put(key(i), payload); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok, err := c.Get(key(i % keys)); err != nil || !ok {
				b.Fatalf("get: ok=%t err=%v", ok, err)
			}
		}
	})
}

func BenchmarkReportCodec(b *testing.B) {
	data := goldenReport(b)
	rep, err := denovogpu.UnmarshalReport(data)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("Marshal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := denovogpu.MarshalReport(rep); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Unmarshal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := denovogpu.UnmarshalReport(data); err != nil {
				b.Fatal(err)
			}
		}
	})
}
