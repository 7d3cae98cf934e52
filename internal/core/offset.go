package core

import (
	"math"
	"sort"
)

// weightCutoffBase is the quality-width multiple beyond which a
// record's Gaussian weight is treated as zero in the offset filter:
// E^T > 9·E gives w < exp(−81) ≈ 7e-36, at least twenty orders of
// magnitude under any surviving weight whenever the filter is not in
// its poor-quality fallback (min E^T ≤ E** means the best weight is at
// least exp(−36)), so skipping these records moves θ̂ by far less than
// the engine's 1e-12 equivalence budget. The effective cutoff is
// max(weightCutoffBase, EStarStarFactor)·E so that the E** fallback
// decision and the stored min E^T stay bit-identical to the full scan:
// every record skipped for weight purposes still lies strictly above
// the fallback threshold.
const weightCutoffBase = 9

// updateOffset runs the four-stage offset algorithm of Section 5.3 at the
// arrival of the current packet (counter stamp now, scan view cur), with
// the warmup and lost-packet refinements of Section 6.1:
//
//	(i)   total per-packet error E^T_i = E_i + ε·age_i
//	(ii)  quality weights w_i = exp(−(E^T_i/E)²) over the τ′ window
//	(iii) weighted combination, optionally with local-rate linear
//	      prediction; fallback to the last estimate when quality is
//	      extremely poor (min E^T > E**)
//	(iv)  sanity check: successive estimates may not differ by more than
//	      E_s, otherwise the previous value is duplicated
//
// This is the engine's only per-packet loop. It is bounded by the
// number of records whose aging term alone stays under the weight
// cutoff: point errors are non-negative, so E^T_i ≥ ε·age_i, and ages
// increase monotonically toward the old end of the window — records
// beyond the age horizon (cutoff/ε seconds) are located by binary
// search and never touched. Each surviving record costs one fused
// table-driven exponential (expNeg) instead of a math.Exp call.
func (s *Sync) updateOffset(now uint64, cur *scanRec, res *Result) {
	e := s.cfg.E()
	if s.count <= s.nWarm {
		e *= s.cfg.WarmupEInflation
	}
	eStarStar := s.cfg.EStarStarFactor * e
	cutoff := weightCutoffBase * e
	if eStarStar > cutoff {
		cutoff = eStarStar
	}
	// Validate bounds EStarStarFactor below 26, so cutoff < 26·E and
	// the scan's exponential argument stays inside its reduction range
	// ((E^T/E)² < 676); the scans also carry their own argument guard
	// for defense in depth.

	n := s.hist.Len()
	start := n - s.nOff
	if start < 0 {
		start = 0
	}
	fnow := cur.ftf
	p := s.p
	eps := s.cfg.AgingRate
	epsP := eps * p

	// Age horizon: skip the contiguous old prefix whose aging term
	// alone exceeds the cutoff (E^T ≥ ε·age there, so none of it can
	// contribute weight, and none of it can hold min E^T when the
	// fallback decision is in play). Ages decrease with position, so
	// the boundary is found by binary search; for the paper's window
	// settings the horizon is far wider than τ′ and this never fires.
	if epsP*(fnow-s.scan.At(start).ftf) > cutoff {
		lim := n - 1 - start
		//repro:alloc-ok cold branch (the horizon never binds at paper window settings) and sort.Search does not retain f, so the closure stays on the stack; BenchmarkProcess asserts 0 allocs/op
		start += sort.Search(lim, func(i int) bool {
			return epsP*(fnow-s.scan.At(start+i).ftf) <= cutoff
		})
	}

	// Local-rate residual for linear prediction (equation 21): the
	// estimate of the rate error of C(t) relative to true time.
	gl := 0.0
	useGl := s.cfg.UseLocalRate && s.plValid && s.pl > 0 && s.p > 0
	if useGl {
		gl = s.pl/s.p - 1
	}

	// Stage (i)+(ii): total errors and weights, oldest to newest (the
	// same summation order as the direct implementation).
	invE := 1 / e
	minET := math.Inf(1)
	sumW, sumWTheta := 0.0, 0.0
	winA, winB := s.scan.Slices(start, n)
	if useGl {
		minET, sumW, sumWTheta = offsetScanGl(winA, fnow, p, eps, invE, cutoff, gl)
		if len(winB) > 0 {
			m, w2, t2 := offsetScanGl(winB, fnow, p, eps, invE, cutoff, gl)
			if m < minET {
				minET = m
			}
			sumW += w2
			sumWTheta += t2
		}
	} else {
		minET, sumW, sumWTheta = offsetScan(winA, fnow, epsP, invE, cutoff)
		if len(winB) > 0 {
			m, w2, t2 := offsetScan(winB, fnow, epsP, invE, cutoff)
			if m < minET {
				minET = m
			}
			sumW += w2
			sumWTheta += t2
		}
	}

	var cand float64
	switch {
	case !s.haveTh:
		// First packet: the estimate is the naive one; with the clock
		// aligned to the server at the first exchange this is the
		// paper's "first estimate is just the server timestamp".
		cand = cur.theta
	case minET > eStarStar || sumW == 0:
		res.PoorQuality = true
		prevAge := spanSeconds(s.thetaTf, now, s.p)
		prevPred := s.theta
		if useGl {
			prevPred -= gl * prevAge
		}
		gapped := false
		if n >= 2 {
			gapped = spanSeconds(s.hist.At(n-2).tf, now, s.p) > s.cfg.LocalRateWindow/2
		}
		if gapped {
			// After a long outage the stored window is stale: blend the
			// new naive estimate (weighted by its point error) with the
			// aged previous estimate, to let fresh data in quickly.
			wNew := math.Exp(-(cur.pointErr / e) * (cur.pointErr / e))
			agedErr := s.thetaErr + s.cfg.AgingRate*prevAge
			wOld := math.Exp(-(agedErr / e) * (agedErr / e))
			if wNew+wOld > 0 {
				cand = (wNew*cur.theta + wOld*prevPred) / (wNew + wOld)
			} else {
				cand = prevPred
			}
			s.thetaErr = math.Min(cur.pointErr, agedErr)
		} else {
			cand = prevPred
			s.thetaErr += s.cfg.AgingRate * prevAge
		}
	default:
		cand = sumWTheta / sumW
		s.thetaErr = minET
	}

	// Stage (iv): sanity check. The threshold is orders of magnitude
	// above any physical inter-packet offset increment; it exists to
	// bound damage from events like wrong server timestamps, never to
	// tune performance (which would risk lock-out). It ages at the
	// clock's rate uncertainty so that legitimate drift accumulated
	// since the last trusted estimate is never rejected: the hardware
	// stability bound once p̂ is calibrated, or the current pair quality
	// bound while it is still worse than that (early life, where C(t)
	// genuinely drifts at multiple PPM). Aging is also what re-admits
	// fresh data after a period of rejection, preventing permanent
	// lock-out. During warmup the check is off entirely — the paper's
	// warmup trusts nothing and locks nothing.
	rateUnc := s.cfg.HardwareRateBound
	if s.havePair && s.pQual > rateUnc {
		rateUnc = s.pQual
	}
	limit := s.cfg.OffsetSanity + rateUnc*spanSeconds(s.thetaTf, now, s.p)
	if s.haveTh && s.count > s.nWarm && math.Abs(cand-s.theta) > limit {
		res.OffsetSanityTriggered = true
		cand = s.theta // duplicate the most recent trusted value
	} else {
		s.thetaTf = now
	}

	s.theta = cand
	s.haveTh = true
}

// offsetScan is stages (i)+(ii) over one contiguous window segment:
// total errors E^T = E_i + ε·age, the running minimum, and the
// weighted sums with w = exp(−(E^T/E)²). Records beyond the weight
// cutoff contribute to the minimum but not to the sums (their weights
// are below exp(−81); see weightCutoffBase).
//
// This is the engine's hottest loop, so the Gaussian weight is the
// expNeg scheme from expneg.go spelled out inline — the function
// exceeds the compiler's inlining budget and a call per record is most
// of the loop's cost — with the domain guard reduced to one clamp:
// (E^T/E)² is non-negative by construction and below 676 whenever the
// cutoff test passes and point errors are non-negative (Validate
// bounds EStarStarFactor under 26); the clamp to 676 makes an
// invariant breach yield weight ≈ 0 instead of a wrapped table index.
// The loop is two-way
// unrolled with independent accumulator pairs so consecutive records'
// exponential chains overlap (the evaluation is latency-bound
// otherwise), and it is kept free of receiver field accesses so every
// loop-invariant stays in a register.
//
// ε·age is computed as (ε·p)·(float64(Tf_now) − float64(Tf_i)) with
// the product ε·p folded once per scan; this differs from the
// reference's ε·((Tf_now − Tf_i)·p) by a couple of roundings, ~1e-19 s
// on E^T — invisible at the 1e-12 equivalence budget.
func offsetScan(win []scanRec, fnow, epsP, invE, cutoff float64) (minET, sumW, sumWTheta float64) {
	minET = math.Inf(1)
	var sw0, st0, sw1, st1 float64
	n := len(win)
	i := 0
	for ; i+1 < n; i += 2 {
		pair := win[i : i+2 : i+2] // one bounds check for the pair
		r0, r1 := &pair[0], &pair[1]
		et0 := r0.pointErr + epsP*(fnow-r0.ftf)
		et1 := r1.pointErr + epsP*(fnow-r1.ftf)
		minET = min(minET, et0)
		minET = min(minET, et1)
		if et0 <= cutoff {
			x := et0 * invE
			arg := x * x
			if arg >= 676 {
				arg = 676 // defense: weight 0 to scan precision either way
			}
			t := arg*invLn2x256 + expShift
			k := int(int32(math.Float64bits(t)))
			kf := t - expShift
			rr := (arg - kf*ln2Hi256) - kf*ln2Lo256
			r2 := rr * rr
			q := (1 - rr) + r2*(0.5-rr*(1.0/6))
			w := expNegTab[k&255] * expScaleTab[(k>>8)&1023] * q
			sw0 += w
			st0 += w * r0.theta
		}
		if et1 <= cutoff {
			x := et1 * invE
			arg := x * x
			if arg >= 676 {
				arg = 676 // defense: weight 0 to scan precision either way
			}
			t := arg*invLn2x256 + expShift
			k := int(int32(math.Float64bits(t)))
			kf := t - expShift
			rr := (arg - kf*ln2Hi256) - kf*ln2Lo256
			r2 := rr * rr
			q := (1 - rr) + r2*(0.5-rr*(1.0/6))
			w := expNegTab[k&255] * expScaleTab[(k>>8)&1023] * q
			sw1 += w
			st1 += w * r1.theta
		}
	}
	for ; i < n; i++ {
		r := &win[i]
		et := r.pointErr + epsP*(fnow-r.ftf)
		minET = min(minET, et)
		if et <= cutoff {
			x := et * invE
			arg := x * x
			if arg >= 676 {
				arg = 676
			}
			t := arg*invLn2x256 + expShift
			k := int(int32(math.Float64bits(t)))
			kf := t - expShift
			rr := (arg - kf*ln2Hi256) - kf*ln2Lo256
			r2 := rr * rr
			q := (1 - rr) + r2*(0.5-rr*(1.0/6))
			w := expNegTab[k&255] * expScaleTab[(k>>8)&1023] * q
			sw0 += w
			st0 += w * r.theta
		}
	}
	return minET, sw0 + sw1, st0 + st1
}

// offsetScanGl is offsetScan with the local-rate linear prediction of
// equation (21) applied to each record's contribution: the θ_i are
// extrapolated by −γ_l·age before weighting. Kept as a separate
// specialization so the common path (local rate disabled or not yet
// valid) pays nothing for the extra multiply-adds, and written without
// the unroll: the refinement path is already the expensive
// configuration and profits more from simplicity. The same 676
// argument clamp as offsetScan bounds the exponential here.
func offsetScanGl(win []scanRec, fnow, p, eps, invE, cutoff, gl float64) (minET, sumW, sumWTheta float64) {
	minET = math.Inf(1)
	for idx := range win {
		r := &win[idx]
		age := (fnow - r.ftf) * p
		et := r.pointErr + eps*age
		minET = min(minET, et)
		if et > cutoff {
			continue
		}
		x := et * invE
		arg := x * x
		if arg >= 676 {
			arg = 676
		}
		t := arg*invLn2x256 + expShift
		k := int(int32(math.Float64bits(t)))
		kf := t - expShift
		rr := (arg - kf*ln2Hi256) - kf*ln2Lo256
		r2 := rr * rr
		q := (1 - rr) + r2*(0.5-rr*(1.0/6))
		w := expNegTab[k&255] * expScaleTab[(k>>8)&1023] * q
		sumW += w
		sumWTheta += w * (r.theta - gl*age)
	}
	return minET, sumW, sumWTheta
}
