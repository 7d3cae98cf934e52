package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/ensemble"
	"repro/internal/sim"
)

// The engine layers (core, ensemble, readout) run off-line over a
// seeded sim trace of the selection stage's adversarial case: five
// upstreams polled every 16 s, the last two colluding on one +1.5 ms
// lie from quiet near-host paths. Every relay run feeds the trace
// through the ensemble and checks its answers against the sim truth;
// the traced run also times each engine layer on it.
const (
	tracePerServer = 20_000                  // exchanges emitted per upstream (3.7 days)
	tracePoll      = 16.0                    // s between polls of one upstream
	traceLie       = 1.5e-3                  // s, the colluders' shared offset
	simPeriod      = 1.0 / 548655270         // s per cycle of the simulated host counter
	syncEnvelope   = 50.0                    // µs: the combined error's median must stay below
	syncSettle     = 6 * 3600.0              // s of trace excluded from the error statistics
	colluders      = 5 - sim.ColludingHonest // servers lying in the scenario
)

// rec is one completed exchange of the trace: what the ensemble sees,
// the serving upstream, and the sim truth Tg of the reply's arrival.
type rec struct {
	ta, tf uint64
	tb, te float64
	tg     float64
	t      float64 // true time of arrival, s since the trace start
	srv    int32
}

func (r *rec) input() core.Input { return core.Input{Ta: r.ta, Tf: r.tf, Tb: r.tb, Te: r.te} }

// genTrace generates the colluding scenario for seed in emission
// order, dropping lost exchanges.
func genTrace(seed uint64) ([]rec, error) {
	sc := sim.NewColludingScenario(sim.MachineRoom, traceLie, tracePoll, tracePerServer*tracePoll, seed)
	st, err := sim.NewMultiStream(sc)
	if err != nil {
		return nil, err
	}
	st.SetTrim(true)
	out := make([]rec, 0, st.Len())
	for {
		ex, ok := st.Next()
		if !ok {
			break
		}
		if ex.Lost {
			continue
		}
		out = append(out, rec{ta: ex.Ta, tf: ex.Tf, tb: ex.Tb, te: ex.Te, tg: ex.Tg, t: ex.TrueTf, srv: int32(ex.Server)})
	}
	return out, nil
}

// engineConfig is the per-upstream engine configuration of the trace.
func engineConfig() core.Config { return core.DefaultConfig(simPeriod, tracePoll) }

// newTraceEnsemble builds the five-upstream ensemble with defaults.
func newTraceEnsemble() (*ensemble.Ensemble, error) {
	cfgs := make([]core.Config, 5)
	for i := range cfgs {
		cfgs[i] = engineConfig()
	}
	return ensemble.New(ensemble.Config{Engines: cfgs})
}

// checkEnsemble feeds in through a fresh ensemble in emission order,
// reading the combined clock once per exchange, and checks that the
// selection convicted exactly the colluders and that the combined
// error's median after syncSettle stays inside syncEnvelope. The tail
// is reported, not checked: on some seeds the combined clock follows
// the colluders' lie for hours (over 2% of one 3.7-day trace in 80
// seeds tried), so its p99 depends on the seed.
func checkEnsemble(rep *report, in []rec) error {
	ens, err := newTraceEnsemble()
	if err != nil {
		return err
	}
	var errs []float64
	rejected := 0
	for i := range in {
		r := &in[i]
		if _, err := ens.Process(int(r.srv), r.input()); err != nil {
			rejected++
			continue
		}
		if e := ens.Readout().AbsoluteTime(r.tf) - r.tg; r.t >= syncSettle {
			errs = append(errs, math.Abs(e)*1e6)
		}
	}
	captured := 0
	for _, e := range errs {
		if e > traceLie*1e6/2 {
			captured++
		}
	}
	ed := newDist(errs)
	tail := tailPercentile(len(ed))
	rep.layer("ensemble.sync_err_p50_us", ed.median(), "us")
	rep.layer("ensemble.sync_err_p99_us", ed.pct(99), "us")
	rep.note("ensemble check: %d exchanges from 5 upstreams (2 colluding on +%.1f ms), %d rejected; |combined − sim truth| after %.0f h: n=%d p50 %.2f µs p99 %.2f µs p%g %.2f µs; %.2f%% nearer the lie than the truth",
		len(in), traceLie*1e3, rejected, syncSettle/3600, len(ed), ed.median(), ed.pct(99), tail, ed.pct(tail),
		100*float64(captured)/float64(max(len(errs), 1)))
	if err := convicted(ens.Readout()); err != nil {
		rep.fail("selection: %v", err)
	}
	if p50 := ed.median(); !(p50 < syncEnvelope) {
		rep.fail("combined error median %.2f µs outside the %.0f µs envelope", p50, syncEnvelope)
	}
	return nil
}

// convicted checks the selection outcome: exactly the colluders are
// flagged falsetickers.
func convicted(r *ensemble.Readout) error {
	if r.Falsetickers != colluders {
		return fmt.Errorf("%d falsetickers, want %d", r.Falsetickers, colluders)
	}
	for k, s := range r.Servers {
		if s.Falseticker != (k >= sim.ColludingHonest) {
			return fmt.Errorf("server %d falseticker=%v", k, s.Falseticker)
		}
	}
	return nil
}

// engineLayers measures the core and ensemble layers over in: a
// standalone core engine per upstream and an ensemble pass, each call
// timed and recorded as a span, then untimed passes for the allocation
// counts, then a block of combined-readout reads.
func engineLayers(rep *report, in []rec, tr *tracer) error {
	byServer := make([][]core.Input, 5)
	for i := range in {
		byServer[in[i].srv] = append(byServer[in[i].srv], in[i].input())
	}
	coreNs := make([]float64, 0, len(in))
	var coreTotal float64
	for k, xs := range byServer {
		s, err := core.NewSync(engineConfig())
		if err != nil {
			return err
		}
		for i, x := range xs {
			t0 := tr.now()
			_, _ = s.Process(x)
			t1 := tr.now()
			tr.span(lCore, uint64(k)<<32|uint64(i), t0, t1)
			coreNs = append(coreNs, float64(t1-t0))
			coreTotal += float64(t1 - t0)
		}
	}
	ens, err := newTraceEnsemble()
	if err != nil {
		return err
	}
	ensNs := make([]float64, 0, len(in))
	var ensTotal float64
	for i := range in {
		r := &in[i]
		t0 := tr.now()
		_, _ = ens.Process(int(r.srv), r.input())
		t1 := tr.now()
		tr.span(lEnsemble, uint64(i), t0, t1)
		ensNs = append(ensNs, float64(t1-t0))
		ensTotal += float64(t1 - t0)
	}
	cd, ed := newDist(coreNs), newDist(ensNs)
	rep.layer("core.process_ns_p50", cd.median(), "ns")
	rep.layer("core.process_ns_p99", cd.pct(99), "ns")
	rep.layer("ensemble.process_ns_p50", ed.median(), "ns")
	rep.layer("ensemble.process_ns_p99", ed.pct(99), "ns")
	rep.layer("ensemble.self_ns", (ensTotal-coreTotal)/float64(len(in)), "ns")

	// Allocation counts from untimed passes.
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, xs := range byServer {
		s, err := core.NewSync(engineConfig())
		if err != nil {
			return err
		}
		for _, x := range xs {
			_, _ = s.Process(x)
		}
	}
	runtime.ReadMemStats(&m1)
	rep.layer("core.allocs_per_call", float64(m1.Mallocs-m0.Mallocs)/float64(len(in)), "count")
	runtime.ReadMemStats(&m0)
	ens, err = newTraceEnsemble()
	if err != nil {
		return err
	}
	for i := range in {
		_, _ = ens.Process(int(in[i].srv), in[i].input())
	}
	runtime.ReadMemStats(&m1)
	rep.layer("ensemble.allocs_per_exchange", float64(m1.Mallocs-m0.Mallocs)/float64(len(in)), "count")
	rep.layer("ensemble.bytes_per_exchange", float64(m1.TotalAlloc-m0.TotalAlloc)/float64(len(in)), "B")
	ro := ens.Readout()
	rep.layer("ensemble.falsetickers", float64(ro.Falsetickers), "count")
	rep.layer("ensemble.selected", float64(ro.SelectedCount), "count")

	// Combined-readout reads, timed as a block: one read costs a few ns,
	// below what a per-call clock read could resolve.
	const reads = 1 << 20
	base := in[len(in)-1].tf
	var sink float64
	t0 := time.Now()
	for i := uint64(0); i < reads; i++ {
		sink += ro.AbsoluteTime(base + i*1024)
	}
	rep.layer("readout.read_ns", float64(time.Since(t0).Nanoseconds())/reads, "ns")
	if math.IsNaN(sink) {
		return fmt.Errorf("readout read NaN")
	}
	return nil
}
