package ensemble

import (
	"math"
	"testing"

	"repro/internal/core"
)

// asymEnsemble builds an n-server ensemble with the asymmetry
// correction enabled (and otherwise default tuning).
func asymEnsemble(t *testing.T, n int, mod func(*Config)) *Ensemble {
	t.Helper()
	cfgs := make([]core.Config, n)
	for i := range cfgs {
		cfgs[i] = core.DefaultConfig(synthP, 16)
	}
	cfg := Config{Engines: cfgs, AsymCorrection: true}
	if mod != nil {
		mod(&cfg)
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// corrOf returns the per-server applied corrections.
func corrOf(e *Ensemble) []float64 {
	states := e.Readout().ServerStates()
	out := make([]float64, len(states))
	for k, st := range states {
		out[k] = st.AsymCorrection
	}
	return out
}

// TestAsymCorrectionZeroOnSymmetric: servers with identical (symmetric)
// paths develop no meaningful correction — there is no differential
// asymmetry to redistribute, so the EWMA tracks hints that hover at the
// staggered-schedule noise floor.
func TestAsymCorrectionZeroOnSymmetric(t *testing.T) {
	e := asymEnsemble(t, 3, nil)
	run(t, e, 200, func(_, _ int) float64 { return 0 })
	for k, c := range corrOf(e) {
		if math.Abs(c) > 1e-6 {
			t.Errorf("server %d: symmetric-path correction %v, want ≈ 0", k, c)
		}
	}
}

// TestAsymCorrectionSignMatchesAsymmetry: a server whose clock reads a
// constant bias late (what an extra forward-path delay looks like,
// paper §2.3) earns a positive correction, and the unbiased majority a
// compensating negative one — the selected-set midpoint splits the
// camps, so every correction points from the server's clock toward the
// consensus.
func TestAsymCorrectionSignMatchesAsymmetry(t *testing.T) {
	const bias = 60e-6 // well inside the selection bound: stays selected
	e := asymEnsemble(t, 3, nil)
	last := run(t, e, 300, func(k, _ int) float64 {
		if k == 2 {
			return bias
		}
		return 0
	})
	// The combined reads subtract the corrections being applied.
	checkReadoutConsistent(t, e, uint64((last+1)/synthP))
	corr := corrOf(e)
	if !(corr[2] > 0) {
		t.Errorf("late server correction %v, want > 0", corr[2])
	}
	if !(corr[0] < 0 && corr[1] < 0) {
		t.Errorf("unbiased servers corrections %v %v, want < 0 (pulled toward midpoint)", corr[0], corr[1])
	}
	// The correction must have converged to a meaningful fraction of the
	// hint level (the midpoint splits the bias in half across the camps).
	if corr[2] < bias/4 {
		t.Errorf("late server correction %v did not converge (bias %v)", corr[2], bias)
	}
	for k, st := range e.Readout().ServerStates() {
		if !st.Selected {
			t.Errorf("server %d evicted: the bias was meant to stay within the selection bound", k)
		}
	}
}

// TestAsymCorrectionBoundedByClamp: with a deliberately tight clamp
// fraction the correction saturates at AsymClampFrac of the
// correctness-interval half-width instead of following the hint.
func TestAsymCorrectionBoundedByClamp(t *testing.T) {
	const clampFrac = 0.05
	e := asymEnsemble(t, 3, func(c *Config) { c.AsymClampFrac = clampFrac })
	run(t, e, 300, func(k, _ int) float64 {
		if k == 2 {
			return 100e-6
		}
		return 0
	})
	states := e.Readout().ServerStates()
	for k, st := range states {
		noise := st.ErrScale - st.Penalty
		clamp := clampFrac * e.cfg.AgreementFactor * noise
		if math.Abs(st.AsymCorrection) > clamp*(1+1e-12) {
			t.Errorf("server %d: |correction| %v exceeds clamp %v", k, st.AsymCorrection, clamp)
		}
	}
	// The biased server's hint is far above the clamp, so the clamp must
	// actually bind there — otherwise this test has no teeth.
	noise2 := states[2].ErrScale - states[2].Penalty
	clamp2 := clampFrac * e.cfg.AgreementFactor * noise2
	if states[2].AsymCorrection < clamp2/2 {
		t.Errorf("late server correction %v vs clamp %v: clamp never engaged", states[2].AsymCorrection, clamp2)
	}
}

// TestAsymCorrectionDisabledBitIdentical: with the ablation switch off
// the combined clock is bit-for-bit the uncorrected combiner's, even
// with the asym tuning knobs set — and the same exchanges with the
// switch on produce a different clock, proving the comparison has
// teeth.
func TestAsymCorrectionDisabledBitIdentical(t *testing.T) {
	mk := func(mod func(*Config)) *Ensemble {
		cfgs := make([]core.Config, 3)
		for i := range cfgs {
			cfgs[i] = core.DefaultConfig(synthP, 16)
		}
		cfg := Config{Engines: cfgs}
		if mod != nil {
			mod(&cfg)
		}
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	base := mk(nil)
	disabled := mk(func(c *Config) { c.AsymAlpha = 0.25; c.AsymClampFrac = 0.3 })
	enabled := mk(func(c *Config) { c.AsymCorrection = true })

	biasOf := func(k, _ int) float64 {
		if k == 2 {
			return 60e-6
		}
		return 0
	}
	var last float64
	for _, e := range []*Ensemble{base, disabled, enabled} {
		last = run(t, e, 200, biasOf)
	}
	for i := 0; i < 8; i++ {
		T := uint64((last+float64(i))/synthP) + uint64(i)
		b, d, en := base.Readout().AbsoluteTime(T), disabled.Readout().AbsoluteTime(T), enabled.Readout().AbsoluteTime(T)
		if b != d {
			t.Fatalf("T=%d: disabled combiner %v differs from baseline %v", T, d, b)
		}
		if ab, ad := base.Readout().Agreement(T), disabled.Readout().Agreement(T); ab != ad {
			t.Fatalf("T=%d: disabled agreement %d differs from baseline %d", T, ad, ab)
		}
		if rb, rd := base.Readout().Rate, disabled.Readout().Rate; rb != rd {
			t.Fatalf("disabled combined rate %v differs from baseline %v", rd, rb)
		}
		if i == 0 && b == en {
			t.Errorf("enabled combiner bit-identical to baseline on a biased feed: harness has no teeth")
		}
	}
}

// TestAsymCorrectionZeroWhileUnselected: a falseticker's correction is
// zero — its hint measures its distance from a set it is not part of,
// and correcting by it would launder the lie into the vote.
func TestAsymCorrectionZeroWhileUnselected(t *testing.T) {
	e := asymEnsemble(t, 3, nil)
	run(t, e, 200, func(k, _ int) float64 {
		if k == 2 {
			return 5e-3 // far outside the selection bound
		}
		return 0
	})
	states := e.Readout().ServerStates()
	if !states[2].Falseticker {
		t.Fatalf("biased server not flagged: %+v", states[2])
	}
	if states[2].AsymCorrection != 0 {
		t.Errorf("falseticker correction %v, want exactly 0", states[2].AsymCorrection)
	}
	if math.Abs(states[2].AsymmetryHint) < 1e-3 {
		t.Errorf("falseticker hint %v, want ≈ the 5ms lie (gate must ignore it)", states[2].AsymmetryHint)
	}
}

// TestAsymCorrectionZeroInPenalty: an identity change (server
// migration) adds an event penalty that closes the correction gate —
// the server's recent history is not currently evidence of path
// asymmetry — and the correction returns as the penalty decays.
func TestAsymCorrectionZeroInPenalty(t *testing.T) {
	e := asymEnsemble(t, 3, nil)
	bias := func(k, _ int) float64 {
		if k == 2 {
			return 60e-6
		}
		return 0
	}
	last := run(t, e, 300, bias)
	if c := corrOf(e)[2]; c <= 0 {
		t.Fatalf("no correction built before the penalty: %v", c)
	}

	// A reference-ID change on server 2 adds the identity penalty.
	if _, err := e.ObserveIdentity(2, core.Identity{RefID: 1, Stratum: 1}); err != nil {
		t.Fatal(err)
	}
	changed, err := e.ObserveIdentity(2, core.Identity{RefID: 2, Stratum: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !changed {
		t.Fatal("identity change not detected")
	}
	feed(t, e, 2, last+16, 60e-6)
	st := e.Readout().ServerStates()[2]
	if st.Penalty == 0 {
		t.Fatal("identity change added no penalty")
	}
	if st.AsymCorrection != 0 {
		t.Errorf("correction %v during penalty, want exactly 0", st.AsymCorrection)
	}

	// The penalty decays; the gate reopens and the correction returns.
	now := last + 32
	for i := 0; i < 200; i++ {
		for k := 0; k < 3; k++ {
			feed(t, e, k, now, bias(k, 0))
			now += 16.0 / 3
		}
	}
	if c := corrOf(e)[2]; c <= 0 {
		t.Errorf("correction %v did not return after the penalty decayed", c)
	}
}

// TestAsymConfigValidation: the asym tuning knobs reject NaN and
// out-of-range values.
func TestAsymConfigValidation(t *testing.T) {
	for _, field := range []func(*Config){
		func(c *Config) { c.AsymAlpha = math.NaN() },
		func(c *Config) { c.AsymAlpha = -0.1 },
		func(c *Config) { c.AsymAlpha = 1.5 },
		func(c *Config) { c.AsymClampFrac = math.NaN() },
		func(c *Config) { c.AsymClampFrac = -1 },
	} {
		cfg := Config{Engines: []core.Config{core.DefaultConfig(synthP, 16)}}
		field(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("invalid asym parameter accepted: %+v", cfg)
		}
	}
}
