package ensemble

import (
	"testing"

	"repro/internal/core"
)

func newTestEnsemble(t *testing.T, servers int) *Ensemble {
	t.Helper()
	cfgs := make([]core.Config, servers)
	for i := range cfgs {
		cfgs[i] = core.DefaultConfig(2e-9, 16)
	}
	e, err := New(Config{Engines: cfgs})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestProcessBatchSingletonEquivalence: a batch of one is Process in
// every observable respect — same engine state, same sweep cadence,
// same published combined readout. This pins ProcessBatch as a strict
// generalization rather than a second code path with its own
// semantics.
func TestProcessBatchSingletonEquivalence(t *testing.T) {
	const servers = 3
	seq := newTestEnsemble(t, servers)
	bat := newTestEnsemble(t, servers)
	ins := core.SynthTrace(2048)
	for j, in := range ins {
		if _, err := seq.Process(j%servers, in); err != nil {
			t.Fatal(err)
		}
		if err := bat.ProcessBatch([]BatchExchange{{Server: j % servers, In: in}}); err != nil {
			t.Fatal(err)
		}
	}
	T := ins[len(ins)-1].Tf
	for _, dt := range []uint64{0, 1000, 1 << 20} {
		if a, b := seq.Readout().AbsoluteTime(T+dt), bat.Readout().AbsoluteTime(T+dt); a != b {
			t.Errorf("AbsoluteTime(T+%d): sequential %.12g != singleton-batched %.12g", dt, a, b)
		}
	}
	if a, b := seq.Readout().RateHat(), bat.Readout().RateHat(); a != b {
		t.Errorf("RateHat: %.12g != %.12g", a, b)
	}
	if a, b := seq.Readout().Agreement(T), bat.Readout().Agreement(T); a != b {
		t.Errorf("Agreement: %d != %d", a, b)
	}
}

// TestProcessBatchEngineEquivalence: batching a whole poll round
// amortizes the combine sweeps but must leave every per-server engine
// bit-identical to sequential processing — the engines never see the
// sweep cadence, only their own in-order exchanges.
func TestProcessBatchEngineEquivalence(t *testing.T) {
	const servers = 4
	seq := newTestEnsemble(t, servers)
	bat := newTestEnsemble(t, servers)
	ins := core.SynthTrace(2048)

	round := make([]BatchExchange, 0, servers)
	for j, in := range ins {
		if _, err := seq.Process(j%servers, in); err != nil {
			t.Fatal(err)
		}
		round = append(round, BatchExchange{Server: j % servers, In: in})
		if len(round) == servers {
			if err := bat.ProcessBatch(round); err != nil {
				t.Fatal(err)
			}
			round = round[:0]
		}
	}
	if err := bat.ProcessBatch(round); err != nil { // tail partial round
		t.Fatal(err)
	}
	for k := 0; k < servers; k++ {
		if a, b := *seq.Readout().Servers[k].Clock, *bat.Readout().Servers[k].Clock; a != b {
			t.Errorf("engine %d readout diverged under round batching:\n  sequential %+v\n  batched    %+v", k, a, b)
		}
	}
	// The combined readout is evaluated at the same final Tf in both;
	// selection streak state may legitimately differ (fewer sweeps),
	// but with identical healthy engines the combined time must agree
	// to well under the engines' own error scale.
	T := ins[len(ins)-1].Tf + 1000
	a, b := seq.Readout().AbsoluteTime(T), bat.Readout().AbsoluteTime(T)
	if diff := a - b; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("combined AbsoluteTime diverged: %.12g vs %.12g", a, b)
	}
}

// TestProcessBatchError: a bad exchange mid-batch stops application —
// later exchanges must not be consumed — but the combine stages still
// run over the applied prefix so the published readout reflects it.
func TestProcessBatchError(t *testing.T) {
	const servers = 2
	e := newTestEnsemble(t, servers)
	ref := newTestEnsemble(t, servers)
	ins := core.SynthTrace(64)
	warm, tail := ins[:32], ins[32:]
	for j, in := range warm {
		if _, err := e.Process(j%servers, in); err != nil {
			t.Fatal(err)
		}
		if _, err := ref.Process(j%servers, in); err != nil {
			t.Fatal(err)
		}
	}
	batch := []BatchExchange{
		{Server: 0, In: tail[0]},
		{Server: servers + 7, In: tail[1]}, // out of range: must stop here
		{Server: 1, In: tail[2]},
	}
	if err := e.ProcessBatch(batch); err == nil {
		t.Fatal("out-of-range server accepted")
	}
	// The reference applies only the prefix the batch should have.
	if _, err := ref.Process(0, tail[0]); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < servers; k++ {
		if a, b := *e.Readout().Servers[k].Clock, *ref.Readout().Servers[k].Clock; a != b {
			t.Errorf("engine %d after failed batch: %+v, want prefix-only %+v", k, a, b)
		}
	}
	if a, b := e.Readout().Exchanges, ref.Readout().Exchanges; a != b {
		t.Errorf("exchange count %d, want %d (nothing past the error applied)", a, b)
	}
}
