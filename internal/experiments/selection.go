package experiments

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/ensemble"
	"repro/internal/sim"
	"repro/internal/timebase"
	"repro/internal/trace"
)

// runSelect demonstrates why the ensemble's interval-intersection
// selection stage exists: the trust-weighted median alone has a
// *weight*-based breakdown point, so two colluding servers on clean
// low-jitter paths — which the quality-driven trust scorer rewards with
// more than half the total weight — can drag the combined clock by
// their full lie without ever tripping a single-path quality signal.
// The selection sweep is *count*-based: each server asserts a
// correctness interval, only the largest mutually-intersecting majority
// keeps its vote, and the colluding pair's intervals never reach the
// honest majority's. The same sweep yields the asymmetry diagnostic:
// each server's signed disagreement against the selected-set midpoint,
// which localizes the lie on the pair (and, for honest servers, the
// path-asymmetry error no single path can observe about itself,
// paper §2.3).
func runSelect(opts Options) (*Report, error) {
	r := newReport("select", Title("select"))
	dur := opts.scale(2 * timebase.Day)
	const lie = 1.5 * timebase.Millisecond

	gen := func(offset float64) (*sim.MultiTrace, error) {
		sc := sim.NewColludingScenario(sim.MachineRoom, offset, 16, dur, opts.seed())
		return sim.GenerateMulti(sc)
	}
	adv, err := gen(lie)
	if err != nil {
		return nil, err
	}
	// The all-good control: identical scenario, identical draws, no lie.
	good, err := gen(0)
	if err != nil {
		return nil, err
	}
	nSrv := len(adv.Scenario.Servers)
	colluder := func(k int) bool { return k >= sim.ColludingHonest }

	// One run of the combined clock over a trace: per-exchange absolute
	// errors plus the tail-steady-state selection diagnostics.
	type runOut struct {
		errs      []float64 // combined absolute-clock error per exchange
		fticks    []int     // falseticker count per exchange
		collW     []float64 // summed colluder weight per exchange
		ex        []sim.MultiExchange
		ens       *ensemble.Ensemble
		tailSnaps int // snapshots in the tail window
		tailBoth  int // ... with both colluders excluded
		maxCollW  float64
	}
	tailFrom := 0.75 * dur
	run := func(tr *sim.MultiTrace, disable bool) (*runOut, error) {
		cfgs := make([]core.Config, nSrv)
		for i := range cfgs {
			cfgs[i] = defaultCfg(16)
		}
		ens, err := ensemble.New(ensemble.Config{Engines: cfgs, DisableSelection: disable})
		if err != nil {
			return nil, err
		}
		out := &runOut{ens: ens, ex: tr.Completed()}
		out.errs = make([]float64, len(out.ex))
		out.fticks = make([]int, len(out.ex))
		out.collW = make([]float64, len(out.ex))
		for i, e := range out.ex {
			if _, err := ens.Process(e.Server, core.Input{Ta: e.Ta, Tf: e.Tf, Tb: e.Tb, Te: e.Te}); err != nil {
				return nil, fmt.Errorf("server %d seq %d: %w", e.Server, e.Seq, err)
			}
			ro := ens.Readout()
			out.errs[i] = ro.AbsoluteTime(e.Tf) - e.Tg
			out.fticks[i] = ro.Falsetickers
			both := true
			for k := 0; k < nSrv; k++ {
				if !colluder(k) {
					continue
				}
				out.collW[i] += ro.Servers[k].Weight
				if ro.Servers[k].Selected {
					both = false
				}
			}
			if e.TrueTf <= tailFrom {
				continue
			}
			out.tailSnaps++
			if out.collW[i] > out.maxCollW {
				out.maxCollW = out.collW[i]
			}
			if both {
				out.tailBoth++
			}
		}
		return out, nil
	}

	base, err := run(good, false)
	if err != nil {
		return nil, err
	}
	sel, err := run(adv, false)
	if err != nil {
		return nil, err
	}
	med, err := run(adv, true)
	if err != nil {
		return nil, err
	}

	// The series artifact: selection vs median-only on the adversarial
	// trace, exchange-aligned (same trace, same completions).
	tab := trace.NewTable("t_day", "sel_err_us", "med_err_us", "falsetickers", "colluder_w")
	for i, e := range sel.ex {
		if err := tab.Append(e.TrueTf/timebase.Day, sel.errs[i]/1e-6, med.errs[i]/1e-6,
			float64(sel.fticks[i]), sel.collW[i]); err != nil {
			return nil, err
		}
	}
	if err := r.save(opts, "series", tab); err != nil {
		return nil, err
	}

	tail := func(o *runOut) []float64 {
		var out []float64
		for i := range o.errs {
			if o.ex[i].TrueTf > tailFrom {
				out = append(out, o.errs[i])
			}
		}
		return out
	}
	goodMed := medianAbs(tail(base))
	selMed := medianAbs(tail(sel))
	medMed := medianAbs(tail(med))

	// Final steady-state view of the selection run.
	last := sel.ens.Readout()
	worstHonestHint, minCollHint := 0.0, math.Inf(1)
	for k := 0; k < nSrv; k++ {
		h := math.Abs(last.Servers[k].AsymmetryHint)
		if colluder(k) {
			if h < minCollHint {
				minCollHint = h
			}
		} else if h > worstHonestHint {
			worstHonestHint = h
		}
	}

	r.addLine("colluding pair (servers %d,%d) lies by %s over clean paths; tail medians |err|: all-good baseline %s, selection %s, median-only %s",
		sim.ColludingHonest, nSrv-1, timebase.FormatDuration(lie),
		timebase.FormatDuration(goodMed), timebase.FormatDuration(selMed), timebase.FormatDuration(medMed))
	r.addLine("steady state: colluders excluded in %d/%d tail snapshots, max colluder weight %.4f, falsetickers %d/%d",
		sel.tailBoth, sel.tailSnaps, sel.maxCollW, last.Falsetickers, nSrv)
	r.addLine("asymmetry hints: colluders ≥ %s (the lie localized), honest ≤ %s",
		timebase.FormatDuration(minCollHint), timebase.FormatDuration(worstHonestHint))

	r.addCheck("selection holds the all-good baseline", "tail median ≤ 1.5× baseline",
		fmt.Sprintf("%.2fx", selMed/goodMed), selMed <= 1.5*goodMed)
	r.addCheck("median-only combiner degrades", "tail median ≥ 5× baseline",
		fmt.Sprintf("%.0fx", medMed/goodMed), medMed >= 5*goodMed)
	r.addCheck("colluders are falsetickers at steady state", "excluded in every tail snapshot",
		fmt.Sprintf("%d/%d", sel.tailBoth, sel.tailSnaps), sel.tailSnaps > 0 && sel.tailBoth == sel.tailSnaps)
	r.addCheck("falsetickers hold zero weight", "max colluder weight 0",
		fmt.Sprintf("%.4f", sel.maxCollW), sel.maxCollW == 0)
	r.addCheck("asymmetry hint localizes the lie", "colluders ≥ lie/2, honest < lie/5",
		fmt.Sprintf("%s vs %s", timebase.FormatDuration(minCollHint), timebase.FormatDuration(worstHonestHint)),
		minCollHint >= lie/2 && worstHonestHint < lie/5)
	return r, nil
}
