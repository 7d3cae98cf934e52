package ensemble

import (
	"math"
	"sort"
	"testing"

	"repro/internal/core"
)

// refMedian is an independent rendition of the combining median: the
// (value, weight) pairs with positive weight, sorted by value, walked to
// the cumulative half weight, averaging the two straddling values on an
// exact hit. With no positive weight it returns the first value.
func refMedian(vals, ws []float64) float64 {
	type pair struct{ v, w float64 }
	var ps []pair
	total := 0.0
	for k := range vals {
		if ws[k] > 0 {
			ps = append(ps, pair{vals[k], ws[k]})
			total += ws[k]
		}
	}
	if len(ps) == 0 {
		return vals[0]
	}
	sort.SliceStable(ps, func(i, j int) bool { return ps[i].v < ps[j].v })
	acc := 0.0
	for i := range ps {
		acc += ps[i].w
		if acc == total/2 {
			return (ps[i].v + ps[i+1].v) / 2
		}
		if acc > total/2 {
			return ps[i].v
		}
	}
	return ps[len(ps)-1].v
}

// checkReadoutConsistent asserts, at one instant, that the published
// readout is internally consistent and that its combined reads equal a
// reference evaluation over its own per-server view: the weights are
// normalized, the counts summarize the per-server flags, Weights and
// ServerStates mirror Servers, and AbsoluteTime, Agreement and (outside
// the holdover freeze) the combined rate follow refMedian over each
// server's corrected clock.
func checkReadoutConsistent(t *testing.T, e *Ensemble, T uint64) {
	t.Helper()
	r := e.Readout()
	if r == nil {
		t.Fatal("no readout published")
	}
	n := len(r.Servers)
	if n != e.Size() {
		t.Fatalf("readout has %d servers, want %d", n, e.Size())
	}
	vals, rates, ws := make([]float64, n), make([]float64, n), r.Weights()
	wSum, exchanges, ready, selected, fticks := 0.0, 0, 0, 0, 0
	states := r.ServerStates()
	for k := range r.Servers {
		sr := &r.Servers[k]
		st := states[k]
		if st.Weight != ws[k] || st.Selected != sr.Selected || st.Falseticker != sr.Falseticker ||
			st.AsymmetryHint != sr.AsymmetryHint || st.AsymCorrection != sr.AsymCorrection ||
			st.Ready != sr.Ready || st.IntersectStreak != sr.IntersectStreak || st.Exchanges != sr.Exchanges ||
			st.ErrScale != sr.ErrScale || st.PointErrLevel != sr.PointErrLevel ||
			st.RTTWobble != sr.RTTWobble || st.Penalty != sr.Penalty {
			t.Fatalf("server %d: ServerState %+v does not mirror the readout %+v", k, st, sr)
		}
		if sr.AgreementBound != e.cfg.AgreementFactor*sr.ErrScale {
			t.Fatalf("server %d: agreement bound %v, want %v·%v", k, sr.AgreementBound, e.cfg.AgreementFactor, sr.ErrScale)
		}
		vals[k] = sr.Clock.AbsoluteTime(T) - sr.AsymCorrection
		rates[k] = sr.Clock.P
		wSum += ws[k]
		exchanges += sr.Exchanges
		if sr.Ready {
			ready++
		}
		if sr.Selected {
			selected++
		}
		if sr.Falseticker {
			fticks++
		}
	}
	if exchanges > 0 && math.Abs(wSum-1) > 1e-12 {
		t.Fatalf("weights sum to %v, want 1", wSum)
	}
	if r.Exchanges != exchanges || r.ReadyCount != ready || r.SelectedCount != selected || r.Falsetickers != fticks {
		t.Fatalf("counts (exchanges %d, ready %d, selected %d, falsetickers %d), per-server flags give (%d, %d, %d, %d)",
			r.Exchanges, r.ReadyCount, r.SelectedCount, r.Falsetickers, exchanges, ready, selected, fticks)
	}
	combined := refMedian(vals, ws)
	if got := r.AbsoluteTime(T); got != combined {
		t.Fatalf("AbsoluteTime(%d) = %v, reference median %v", T, got, combined)
	}
	agree := 0
	for k := range r.Servers {
		if r.Servers[k].Exchanges > 0 && math.Abs(vals[k]-combined) <= r.Servers[k].AgreementBound {
			agree++
		}
	}
	if got := r.Agreement(T); got != agree {
		t.Fatalf("Agreement(%d) = %d, reference %d", T, got, agree)
	}
	if !e.frozenActive() {
		if want := refMedian(rates, ws); r.RateHat() != want {
			t.Fatalf("RateHat = %v, reference median %v", r.RateHat(), want)
		}
	}
	if got, want := r.DifferenceSpan(T, T+5000), 5000*r.RateHat(); got != want {
		t.Fatalf("DifferenceSpan = %v, want %v", got, want)
	}
}

// TestEnsembleReadoutEquivalence feeds the harness scenarios — all
// good, one faulty from the start, a mid-run fault — and checks after
// every exchange that the published readout's combined reads are
// equivalent to the reference evaluation over its per-server view.
func TestEnsembleReadoutEquivalence(t *testing.T) {
	scenarios := map[string]func(server, round int) float64{
		"all-good": func(int, int) float64 { return 0 },
		"one-faulty": func(k, _ int) float64 {
			if k == 2 {
				return 5e-3
			}
			return 0
		},
		"midrun-fault": func(k, i int) float64 {
			if k == 2 && i >= 40 {
				return 5e-3
			}
			return 0
		},
	}
	for name, fault := range scenarios {
		t.Run(name, func(t *testing.T) {
			e := mustEnsemble(t, 3)
			checkReadoutConsistent(t, e, 1000) // pre-first-exchange
			now := 0.0
			for i := 0; i < 80; i++ {
				for k := 0; k < e.Size(); k++ {
					now = float64(i)*16 + float64(k)*16/float64(e.Size()) + 1
					feed(t, e, k, now, fault(k, i))
					checkReadoutConsistent(t, e, uint64((now+0.5)/synthP))
				}
			}
		})
	}
}

// TestEnsembleReadoutIdentity: identity observations republish, so the
// readout carries the server identity (the relay derives its advertised
// stratum from it) and the change penalty shows in the weights.
func TestEnsembleReadoutIdentity(t *testing.T) {
	e := mustEnsemble(t, 2)
	feed(t, e, 0, 1, 0)
	if _, err := e.ObserveIdentity(0, core.Identity{RefID: 0x0a000001, Stratum: 1}); err != nil {
		t.Fatal(err)
	}
	r := e.Readout()
	if !r.Servers[0].Clock.IdentKnown || r.Servers[0].Clock.Ident.Stratum != 1 {
		t.Fatalf("identity not published: %+v", r.Servers[0].Clock.Ident)
	}
	feed(t, e, 0, 17, 0)
	changed, err := e.ObserveIdentity(0, core.Identity{RefID: 0x0a000002, Stratum: 2})
	if err != nil || !changed {
		t.Fatalf("change not detected (err %v)", err)
	}
	r = e.Readout()
	if r.Servers[0].Clock.Ident.Stratum != 2 {
		t.Fatalf("changed identity not published: %+v", r.Servers[0].Clock.Ident)
	}
	if r.Servers[0].Penalty == 0 {
		t.Error("identity-change penalty not published")
	}
	checkReadoutConsistent(t, e, uint64(18/synthP))
}

// TestEnsembleReadoutImmutable: a held readout is not changed by
// further processing, and publication swaps the pointer.
func TestEnsembleReadoutImmutable(t *testing.T) {
	e := mustEnsemble(t, 3)
	last := run(t, e, 40, func(int, int) float64 { return 0 })
	r := e.Readout()
	T := uint64((last + 1) / synthP)
	before := r.AbsoluteTime(T)
	for i := 0; i < 40; i++ {
		for k := 0; k < e.Size(); k++ {
			feed(t, e, k, last+2+float64(i)*16+float64(k)*16/3, 0)
		}
	}
	if r.AbsoluteTime(T) != before {
		t.Error("held readout changed its answer after further exchanges")
	}
	if e.Readout() == r {
		t.Error("publication did not swap the snapshot pointer")
	}
}

// TestEnsembleReadoutSynced: unsynced before warmup graduation, synced
// after, and the staleness age grows at the combined rate.
func TestEnsembleReadoutSynced(t *testing.T) {
	e := mustEnsemble(t, 3)
	if e.Readout().Synced() {
		t.Error("Synced before any exchange")
	}
	feed(t, e, 0, 0.5, 0)
	if e.Readout().Synced() {
		t.Error("Synced during warmup")
	}
	last := run(t, e, 80, func(int, int) float64 { return 0 })
	r := e.Readout()
	if !r.Synced() {
		t.Fatal("not Synced after 80 calibrated rounds")
	}
	T := r.LastTf + uint64(10/synthP)
	if age := r.Age(T); math.Abs(age-10) > 0.1 {
		t.Errorf("Age after ~10 s = %v", age)
	}
	_ = last
}

// TestEnsembleReadoutZeroAllocRead: loading the published readout and
// reading through it allocates nothing — every combined read runs on
// stack scratch.
func TestEnsembleReadoutZeroAllocRead(t *testing.T) {
	e := mustEnsemble(t, 5)
	last := run(t, e, 60, func(k, _ int) float64 {
		if k == 4 {
			return 5e-3
		}
		return 0
	})
	T := uint64((last + 1) / synthP)
	var sinkF float64
	var sinkI int
	for name, fn := range map[string]func(){
		"AbsoluteTime": func() { sinkF = e.Readout().AbsoluteTime(T) },
		"RateHat":      func() { sinkF = e.Readout().RateHat() },
		"Agreement":    func() { sinkI = e.Readout().Agreement(T) },
		"Age":          func() { sinkF = e.Readout().Age(T) },
	} {
		if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, allocs)
		}
	}
	_, _ = sinkF, sinkI
}
