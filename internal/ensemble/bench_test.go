package ensemble

import (
	"fmt"
	"testing"

	"repro/internal/core"
)

// BenchmarkEnsemble measures the fan-out cost of sharding the packet
// stream across N per-server engines: 1M synthetic exchanges (the same
// core.SynthTrace workload as BenchmarkProcess and `cmd/experiments
// -perf`) dealt round-robin to N servers. The per-packet cost must stay
// at the single-engine budget (~420 ns, ~2.4M packets/s/core; PERF.md)
// plus O(1) trust scoring and one O(N log N) selection sweep over the
// per-server intervals — N is the server count (single digits), so the
// sweep adds tens of nanoseconds. The median combination still runs at
// read time, not per packet.
func BenchmarkEnsemble(b *testing.B) {
	const n = 1 << 20
	ins := core.SynthTrace(n)
	for _, servers := range []int{1, 3, 8} {
		b.Run(fmt.Sprintf("servers=%d", servers), func(b *testing.B) {
			cfgs := make([]core.Config, servers)
			for i := range cfgs {
				cfgs[i] = core.DefaultConfig(2e-9, 16)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var sink float64
			for i := 0; i < b.N; i++ {
				e, err := New(Config{Engines: cfgs})
				if err != nil {
					b.Fatal(err)
				}
				for j, in := range ins {
					if _, err := e.Process(j%servers, in); err != nil {
						b.Fatal(err)
					}
				}
				// One combined read per pass keeps the combiner honest
				// without dominating the per-packet measurement.
				sink += e.Readout().AbsoluteTime(ins[n-1].Tf + 1000)
			}
			_ = sink
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/packet")
		})
	}
	// The batched variant deals the same workload in poll rounds — one
	// exchange per server per ProcessBatch — so the selection sweep,
	// ladder and publication run once per round instead of once per
	// packet, and the engines' state is walked while cache-hot. The gap
	// to the per-packet variant is the amortizable combine cost.
	for _, servers := range []int{3, 8} {
		b.Run(fmt.Sprintf("batched/servers=%d", servers), func(b *testing.B) {
			cfgs := make([]core.Config, servers)
			for i := range cfgs {
				cfgs[i] = core.DefaultConfig(2e-9, 16)
			}
			round := make([]BatchExchange, servers)
			b.ReportAllocs()
			b.ResetTimer()
			var sink float64
			for i := 0; i < b.N; i++ {
				e, err := New(Config{Engines: cfgs})
				if err != nil {
					b.Fatal(err)
				}
				for j := 0; j+servers <= len(ins); j += servers {
					for k := 0; k < servers; k++ {
						round[k] = BatchExchange{Server: k, In: ins[j+k]}
					}
					if err := e.ProcessBatch(round); err != nil {
						b.Fatal(err)
					}
				}
				sink += e.Readout().AbsoluteTime(ins[n-1].Tf + 1000)
			}
			_ = sink
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/packet")
		})
	}
}

// BenchmarkEnsembleSelect isolates the per-packet selection sweep: the
// endpoint sort plus the Marzullo scan and classification over N ready
// servers, on a calibrated ensemble. This is the only O(N log N) term
// the selection stage adds to Process; it must stay in the tens of
// nanoseconds at realistic N and allocate nothing.
func BenchmarkEnsembleSelect(b *testing.B) {
	for _, servers := range []int{3, 5, 8} {
		b.Run(fmt.Sprintf("servers=%d", servers), func(b *testing.B) {
			e := calibrated(b, servers)
			ins := core.SynthTrace(64)
			T := ins[len(ins)-1].Tf + 1000
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.updateSelection(T + uint64(i))
			}
		})
	}
}

// BenchmarkEnsembleRead measures the lock-free read path over N
// engines: the combined absolute time (weighted median over the
// selected set, O(N log N) in the server count, which is small by
// construction) and the agreement count built on it. Every variant
// must report 0 allocs/op: the reads run on stack scratch
// (TestEnsembleReadoutZeroAllocRead pins the same contract as a hard
// test).
func BenchmarkEnsembleRead(b *testing.B) {
	for _, servers := range []int{3, 8} {
		e := calibrated(b, servers)
		T := uint64(1 << 40)
		b.Run(fmt.Sprintf("AbsoluteTime/servers=%d", servers), func(b *testing.B) {
			var sink float64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sink += e.Readout().AbsoluteTime(T + uint64(i))
			}
			_ = sink
		})
		b.Run(fmt.Sprintf("Agreement/servers=%d", servers), func(b *testing.B) {
			var sink int
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sink += e.Readout().Agreement(T + uint64(i))
			}
			_ = sink
		})
	}
}

// calibrated returns an ensemble of n identical engines fed past warmup
// with the synthetic workload, dealt round-robin.
func calibrated(b *testing.B, n int) *Ensemble {
	b.Helper()
	cfgs := make([]core.Config, n)
	for i := range cfgs {
		cfgs[i] = core.DefaultConfig(2e-9, 16)
	}
	e, err := New(Config{Engines: cfgs})
	if err != nil {
		b.Fatal(err)
	}
	ins := core.SynthTrace(4096)
	for j, in := range ins {
		if _, err := e.Process(j%n, in); err != nil {
			b.Fatal(err)
		}
	}
	return e
}
