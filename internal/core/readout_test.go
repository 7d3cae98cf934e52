package core

import (
	"testing"

	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/timebase"
)

// TestReadoutEquivalence pins the publication contract of the read
// path: after every packet — including local-rate prediction, identity
// re-bases, and warmup — the latest published Readout carries exactly
// the state the packet's Result reports, and a re-base republishes the
// new minimum-RTT estimate.
func TestReadoutEquivalence(t *testing.T) {
	for _, local := range []bool{false, true} {
		cfg := DefaultConfig(2e-9, 16)
		cfg.UseLocalRate = local
		s, err := NewSync(cfg)
		if err != nil {
			t.Fatal(err)
		}

		// Pre-first-packet readout: defined, nominal rate, no offset.
		r := s.Readout()
		if r == nil {
			t.Fatal("no readout published at construction")
		}
		if r.Count != 0 || r.HaveTheta || r.P != cfg.PHatInit {
			t.Fatalf("initial readout = %+v", r)
		}
		if got, want := r.AbsoluteTime(12345), r.ClockAt(12345); got != want {
			t.Fatalf("initial AbsoluteTime %v, want the uncorrected clock %v", got, want)
		}

		ins := SynthTrace(3000)
		for i, in := range ins {
			res, err := s.Process(in)
			if err != nil {
				t.Fatal(err)
			}
			requirePublished(t, i, s.Readout(), res, in)
			if i%5 == 0 {
				// Exercise the identity path too: a change at i==1500
				// re-bases the RTT filter and must republish.
				id := Identity{RefID: 0xc0a80101, Stratum: 1}
				if i >= 1500 {
					id.RefID = 0xc0a80202
				}
				s.ObserveIdentity(id)
				if r := s.Readout(); r.RTTHat != s.rHat || r.Ident != id {
					t.Fatalf("packet %d: after identity, readout (r̂ %v, %+v), engine (%v, %+v)", i, r.RTTHat, r.Ident, s.rHat, id)
				}
			}
		}
	}
}

// requirePublished fails unless r carries the engine state that
// Process reported in res for input in.
func requirePublished(t *testing.T, i int, r *Readout, res Result, in Input) {
	t.Helper()
	if r.Count != res.Seq+1 {
		t.Fatalf("packet %d: readout count %d, want %d", i, r.Count, res.Seq+1)
	}
	if r.P != res.ClockP || r.K != res.ClockC {
		t.Fatalf("packet %d: readout clock (%v,%v), result (%v,%v)", i, r.P, r.K, res.ClockP, res.ClockC)
	}
	if !r.HaveTheta || r.Theta != res.ThetaHat {
		t.Fatalf("packet %d: readout θ̂ (%v,%v), result %v", i, r.Theta, r.HaveTheta, res.ThetaHat)
	}
	if r.RTTHat != res.RTTHat || r.PQuality != res.PQuality {
		t.Fatalf("packet %d: readout (r̂ %v, quality %v), result (%v, %v)", i, r.RTTHat, r.PQuality, res.RTTHat, res.PQuality)
	}
	if r.PLocal != res.PLocal || r.PLocalValid != res.PLocalValid {
		t.Fatalf("packet %d: readout local rate (%v,%v), result (%v,%v)", i, r.PLocal, r.PLocalValid, res.PLocal, res.PLocalValid)
	}
	if r.Warmup != res.Warmup {
		t.Fatalf("packet %d: readout warmup %v, result %v", i, r.Warmup, res.Warmup)
	}
	if r.LastTf != in.Tf {
		t.Fatalf("packet %d: staleness anchor %d, want %d", i, r.LastTf, in.Tf)
	}
}

// TestReadoutEquivalenceSimScenarios runs the golden sim scenarios'
// shapes — steady state, an upward level shift, and the local-rate
// refinement — and checks after every packet that the published
// readout carries the state the packet's Result reports.
func TestReadoutEquivalenceSimScenarios(t *testing.T) {
	scenarios := map[string]func() sim.Scenario{
		"steady": func() sim.Scenario {
			return sim.NewScenario(sim.MachineRoom, sim.ServerInt(), 16, 6*timebase.Hour, 1001)
		},
		"levelshift": func() sim.Scenario {
			sc := sim.NewScenario(sim.MachineRoom, sim.ServerInt(), 16, 6*timebase.Hour, 1003)
			sc.Server.Forward.Shifts = []netem.Shift{{At: 3 * timebase.Hour, Delta: 0.9 * timebase.Millisecond}}
			return sc
		},
	}
	for name, mk := range scenarios {
		for _, local := range []bool{false, true} {
			t.Run(name, func(t *testing.T) {
				tr, err := sim.Generate(mk())
				if err != nil {
					t.Fatal(err)
				}
				cfg := DefaultConfig(1.0/548655270, 16)
				cfg.UseLocalRate = local
				s, err := NewSync(cfg)
				if err != nil {
					t.Fatal(err)
				}
				for i, e := range tr.Completed() {
					in := Input{Ta: e.Ta, Tf: e.Tf, Tb: e.Tb, Te: e.Te}
					res, err := s.Process(in)
					if err != nil {
						t.Fatal(err)
					}
					requirePublished(t, i, s.Readout(), res, in)
				}
			})
		}
	}
}

// TestReadoutImmutable: a readout held across further Process calls
// keeps answering from its own snapshot — the engine moving on must not
// change an already-obtained reading.
func TestReadoutImmutable(t *testing.T) {
	s, err := NewSync(DefaultConfig(2e-9, 16))
	if err != nil {
		t.Fatal(err)
	}
	ins := SynthTrace(600)
	for _, in := range ins[:300] {
		if _, err := s.Process(in); err != nil {
			t.Fatal(err)
		}
	}
	r := s.Readout()
	T := ins[299].Tf + 1000
	before := r.AbsoluteTime(T)
	for _, in := range ins[300:] {
		if _, err := s.Process(in); err != nil {
			t.Fatal(err)
		}
	}
	if after := r.AbsoluteTime(T); after != before {
		t.Fatalf("held readout changed its answer: %v -> %v", before, after)
	}
	if s.Readout() == r {
		t.Fatal("publication did not swap the snapshot pointer")
	}
}

// TestReadoutAge: the staleness bound grows with the counter at the
// difference-clock rate.
func TestReadoutAge(t *testing.T) {
	s, err := NewSync(DefaultConfig(2e-9, 16))
	if err != nil {
		t.Fatal(err)
	}
	ins := SynthTrace(40)
	for _, in := range ins {
		if _, err := s.Process(in); err != nil {
			t.Fatal(err)
		}
	}
	r := s.Readout()
	T := r.LastTf + uint64(10/r.P) // ~10 s later
	if age := r.Age(T); age < 9.9*0.99 || age > 10.1 {
		t.Fatalf("Age after ~10 s = %v", age)
	}
	if age := r.Age(r.LastTf); age != 0 {
		t.Fatalf("Age at the anchor = %v", age)
	}
}
