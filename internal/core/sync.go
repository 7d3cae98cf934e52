package core

import (
	"fmt"
	"math"

	"repro/internal/window"
)

// Input is the raw data of one completed NTP exchange: everything the
// algorithms are allowed to see.
type Input struct {
	Ta, Tf uint64  // host counter stamps (send, receive)
	Tb, Te float64 // server stamps in seconds (receive, transmit)
}

// Result reports the synchronization state after processing one packet.
type Result struct {
	// Seq is the 0-based index of the processed packet.
	Seq int

	// PHat is the current global rate estimate (seconds per cycle) and
	// PQuality its estimated error bound (dimensionless).
	PHat     float64
	PQuality float64

	// PLocal is the current quasi-local rate estimate and PLocalValid
	// whether it is fresh enough to use (always false when the local
	// rate refinement is disabled).
	PLocal      float64
	PLocalValid bool

	// ThetaHat is the current estimate of the offset of the uncorrected
	// clock C(t), evaluated at this packet's arrival.
	ThetaHat float64
	// ThetaNaive is this packet's naive per-packet offset estimate
	// (equation 19), the raw material of the filter.
	ThetaNaive float64

	// ClockP and ClockC define the uncorrected clock in force after this
	// packet: C(T) = ClockP·T + ClockC.
	ClockP, ClockC float64

	// RTT is this packet's measured round-trip time, RTTHat the current
	// minimum estimate r̂, and PointError E_i = RTT − r̂ (after any
	// level-shift revision).
	RTT, RTTHat, PointError float64

	// Accepted reports whether the packet was accepted into the global
	// rate pair; RateUpdated whether p̂ changed.
	Accepted    bool
	RateUpdated bool

	// Quality flags.
	OffsetSanityTriggered bool // the E_s check duplicated the previous θ̂
	RateSanityTriggered   bool // the local-rate sanity duplicated p̂_l
	PoorQuality           bool // the E** fallback was used
	UpwardShiftDetected   bool // an upward level shift was detected now
	Warmup                bool // packet processed during warmup
}

// scanRec is the offset filter's view of a record, kept in a parallel
// ring: the weighted scan of updateOffset touches only these three
// fields, and packing them in 24 bytes (instead of striding across
// 64-byte records) cuts the scan's cache traffic by more than half.
// The ftf field is float64(tf); the one extra rounding against the
// reference's float64(now−tf) perturbs E^T by ~1e-19 s, invisible at
// the engine's 1e-12 equivalence budget.
type scanRec struct {
	ftf      float64
	pointErr float64
	theta    float64
}

// record is the per-packet history entry kept inside the top window.
type record struct {
	seq    int
	ta, tf uint64
	tb, te float64
	rtt    float64 // seconds, measured with p̂ at arrival
	// pointErr is E_i relative to the r̂ in force at arrival, revised
	// backwards when an upward level shift is detected (Section 6.2).
	// It is never negative: r̂ is at or below the record's own RTT when
	// the value is assigned, both at arrival and at revisions.
	pointErr float64
	theta    float64 // naive offset estimate θ̂_i (equation 19)
}

// Sync is the synchronization engine. Feed it completed exchanges in
// arrival order with Process; lost packets are simply never fed
// (Section 6.1: "any lost packets are simply excluded from the
// analysis"). Sync is not safe for concurrent use. Clock reads go
// through the published Readout, which is.
//
// Every per-packet operation is amortized O(1) in the window sizes:
// history lives in a ring buffer that slides without copying, and the
// two windowed minima the filters need — r̂ over the retained history
// and r̂_l over the shift window T_s — come from monotonic-deque
// trackers instead of per-packet scans. The only remaining per-packet
// loop is the offset filter's weighted combination, which is O(active
// offset window) by definition of the estimator (each in-window record
// contributes an age-dependent weight that changes every packet).
type Sync struct {
	cfg Config

	// Window sizes in packets.
	nOff, nLocalWin, nLocalNear, nLocalFar, nShift, nTop, nWarm int

	hist  window.Ring[record]
	scan  window.Ring[scanRec] // parallel to hist; see scanRec
	count int                  // total packets processed

	// Global rate state: the pair (j, i) and the clock C(T) = p·T + c.
	p        float64
	c        float64
	pairJ    record
	pairI    record
	havePair bool
	pQual    float64

	// Minimum RTT tracking. rHat caches the front of rMin, the deque
	// tracking the minimum over retained history at or after the last
	// upward shift point; r̂_l over the trailing T_s window comes from
	// the same deque via SuffixMin (the shift window always nests
	// inside the r̂ window, sharing its leading edge).
	rHat         float64
	rMin         window.MinTracker
	lastShiftSeq int // first seq at/after the most recent upward shift

	// Local rate state. The near and far sub-window argmin trackers
	// replace the per-packet O(τ̄/W) scans of updateLocalRate: both
	// windows slide forward by exactly one record per packet, so each is
	// a monotonic-deque sliding-window minimum keyed by record seq, with
	// the oldest-tie policy matching the scans' first-of-equal selection.
	// The far window lags the newest record by nLocalWin−nLocalFar
	// packets, so records enter it delayed, tracked by farNext.
	// Point-error REVISIONS (upward shift, identity re-base) rebuild
	// both trackers, since they rewrite values cached in the deques.
	pl      float64
	plValid bool
	nearMin window.MinTracker
	farMin  window.MinTracker
	farNext int

	// Offset state: the last estimate, where it was made, and its
	// estimated error (for the gap fallback of Section 6.1).
	theta    float64
	thetaTf  uint64
	thetaErr float64
	haveTh   bool

	// Server identity tracking (ObserveIdentity).
	ident      Identity
	identKnown bool

	// pub is the atomically published read snapshot (see readout.go):
	// the lock-free read side. Only the writer stores; readers load.
	pub pubState
}

// NewSync constructs an engine from a validated config.
func NewSync(cfg Config) (*Sync, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Sync{
		cfg:    cfg,
		nOff:   cfg.packets(cfg.OffsetWindow),
		nShift: cfg.packets(cfg.ShiftWindow),
		nTop:   cfg.packets(cfg.TopWindow),
		nWarm:  cfg.WarmupSamples,
		p:      cfg.PHatInit,
		rHat:   math.Inf(1),
	}
	if cfg.UseLocalRate {
		s.nLocalWin = cfg.packets(cfg.LocalRateWindow)
		s.nLocalNear = maxInt(1, s.nLocalWin/cfg.LocalRateW)
		s.nLocalFar = maxInt(1, 2*s.nLocalWin/cfg.LocalRateW)
		s.nearMin.KeepOldestTies = true
		s.farMin.KeepOldestTies = true
	}
	if s.nTop < 2*s.nWarm {
		s.nTop = 2 * s.nWarm
	}
	s.publish()
	return s, nil
}

// Config returns the engine's configuration.
func (s *Sync) Config() Config { return s.cfg }

// clockRead evaluates the uncorrected clock at counter value T.
func (s *Sync) clockRead(T uint64) float64 { return float64(T)*s.p + s.c }

// spanSeconds converts a counter span to seconds, preserving sign.
func spanSeconds(from, to uint64, p float64) float64 {
	if to >= from {
		return float64(to-from) * p
	}
	return -float64(from-to) * p
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Process ingests one completed exchange and returns the updated state.
// Exchanges must be fed in arrival order.
//
//repro:hotpath
func (s *Sync) Process(in Input) (Result, error) {
	if in.Tf <= in.Ta {
		//repro:alloc-ok rejected-input error path: allocates only for exchanges the engine refuses to process
		return Result{}, fmt.Errorf("core: counter stamps not increasing (Ta=%d, Tf=%d)", in.Ta, in.Tf)
	}
	if s.hist.Len() > 0 && in.Tf <= s.hist.Back().tf {
		//repro:alloc-ok rejected-input error path: allocates only for exchanges the engine refuses to process
		return Result{}, fmt.Errorf("core: exchange out of order (Tf=%d after %d)", in.Tf, s.hist.Back().tf)
	}

	seq := s.count
	s.count++
	res := Result{Seq: seq, Warmup: seq < s.nWarm}

	rec := record{seq: seq, ta: in.Ta, tf: in.Tf, tb: in.Tb, te: in.Te}
	rec.rtt = spanSeconds(in.Ta, in.Tf, s.p)

	// Minimum RTT: downward movements are unambiguous (congestion cannot
	// lower the minimum) and take effect immediately. The tracker sees
	// every sample; its window trails by eviction only.
	if rec.rtt < s.rHat {
		s.rHat = rec.rtt
	}
	s.rMin.Push(seq, rec.rtt)
	rec.pointErr = rec.rtt - s.rHat

	if seq == 0 {
		// Align the clock origin with the server: C(Ta,1) = Tb,1. The
		// first offset estimate is then the naive one, which equation
		// (19) makes ≈ −r/2 + noise relative to this alignment.
		s.c = in.Tb - float64(in.Ta)*s.p
	}

	// Global rate synchronization (warmup scheme, then the paired
	// estimator of Section 5.2).
	s.updateRate(&rec, &res)

	// The naive offset estimate uses the clock in force after the rate
	// update so that filtering and estimation stay decoupled.
	rec.theta = s.naiveTheta(rec)
	res.ThetaNaive = rec.theta

	*s.hist.PushSlot() = rec
	sc := s.scan.PushSlot()
	sc.ftf = float64(in.Tf)
	sc.pointErr = rec.pointErr
	sc.theta = rec.theta
	if s.cfg.UseLocalRate {
		s.pushLocalMinima(&rec)
	}

	// Upward level-shift detection (Section 6.2) may revise recent point
	// errors, so run it before the offset filter consumes them.
	s.detectUpwardShift(&res)

	// Local rate refinement.
	s.updateLocalRate(&res)

	// Offset estimation (Section 5.3 with the Section 6.1 additions).
	s.updateOffset(&rec, &res)

	// Top-level window maintenance.
	s.slideTopWindow()

	res.PHat = s.p
	res.PQuality = s.pQual
	res.PLocal = s.pl
	res.PLocalValid = s.plValid
	res.ClockP, res.ClockC = s.p, s.c
	res.RTT = rec.rtt
	res.RTTHat = s.rHat
	res.PointError = s.hist.Back().pointErr
	res.ThetaHat = s.theta
	s.publish()
	return res, nil
}

// naiveTheta computes equation (19) for a record with the current clock:
// θ̂_i = (C(Ta)+C(Tf))/2 − (Tb+Te)/2.
func (s *Sync) naiveTheta(rec record) float64 {
	return (s.clockRead(rec.ta)+s.clockRead(rec.tf))/2 - (rec.tb+rec.te)/2
}

// setRate installs a new global rate estimate, preserving offset
// continuity: the clock is redefined so that it agrees with the old one
// at the current counter value ("Clock Offset Consistency", Section 6.1).
func (s *Sync) setRate(pNew float64, at uint64) {
	if pNew == s.p {
		return
	}
	s.c += float64(at) * (s.p - pNew)
	s.p = pNew
}

// slideTopWindow discards the oldest half of the history once the top
// window is full, then re-derives r̂ and revalidates the rate pair
// (Section 6.1, "Windowing"). With the ring buffer the slide is a head
// advance — no copy, no reallocation — and r̂ over the retained history
// is a deque eviction instead of a full re-scan.
func (s *Sync) slideTopWindow() {
	if s.hist.Len() < s.nTop {
		return
	}
	drop := s.nTop / 2
	s.hist.DropFront(drop)
	s.scan.DropFront(drop)

	// r̂ first: the minimum over the retained history, using only values
	// beyond the last upward shift or server re-base point — a suffix
	// query from lastShiftSeq (the eviction to the new window start
	// only bounds deque memory; it is always at or before every future
	// suffix start, so no later query loses samples).
	s.rMin.EvictBefore(s.hist.Front().seq)
	if m, ok := s.rMin.SuffixMin(s.lastShiftSeq); ok {
		s.rHat = m
	}

	// Then p̂: if the pair's older packet fell out of the window, replace
	// it with the first retained packet of similar or better point
	// quality, and adopt the new pair only if its quality improves.
	if !s.havePair || s.pairI.seq <= s.pairJ.seq || s.pairJ.seq >= s.hist.Front().seq {
		return
	}
	eStar := s.cfg.EStar()
	var newJ *record
	for idx := 0; idx < s.hist.Len(); idx++ {
		cand := s.hist.At(idx)
		if cand.seq >= s.pairI.seq {
			break
		}
		if cand.rtt-s.rHat <= eStar {
			newJ = cand
			break
		}
	}
	if newJ == nil {
		// No packet meets E*; fall back to the best available so the
		// pair always has in-window provenance.
		best := math.Inf(1)
		for idx := 0; idx < s.hist.Len(); idx++ {
			cand := s.hist.At(idx)
			if cand.seq >= s.pairI.seq {
				break
			}
			if e := cand.rtt - s.rHat; e < best {
				best = e
				newJ = cand
			}
		}
	}
	if newJ == nil {
		return
	}
	pNew, qual, ok := s.pairEstimate(newJ, &s.pairI)
	s.pairJ = *newJ
	if ok && qual < s.pQual {
		s.setRate(pNew, s.hist.Back().tf)
		s.pQual = qual
	}
}

// detectUpwardShift derives the local minimum r̂_l over the shift
// window T_s from the r̂ deque (a suffix query: the shift window nests
// inside the deque's window whenever the length guard below holds) and
// reacts to upward level shifts: r̂ jumps to r̂_l and the point errors
// of packets back to the shift point are reassessed. The O(T_s) work
// happens only when a shift is actually detected — a rare event — so
// the per-packet cost is the suffix query on the deque.
func (s *Sync) detectUpwardShift(res *Result) {
	if s.hist.Len() < s.nShift || s.count <= s.nWarm {
		return
	}
	back := s.hist.Back()
	thresh := s.cfg.ShiftThresholdFactor * s.cfg.E()
	// r̂_l is bounded above by the newest RTT (it is in the window), so
	// a shift is only detectable when that RTT itself clears the
	// threshold — which skips the suffix query for almost every packet.
	if back.rtt-s.rHat <= thresh {
		return
	}
	rl, ok := s.rMin.SuffixMin(back.seq - s.nShift + 1)
	if !ok {
		return
	}
	if rl-s.rHat > thresh {
		start := s.hist.Len() - s.nShift
		s.rHat = rl
		s.lastShiftSeq = s.hist.At(start).seq
		s.rMin.EvictBefore(s.lastShiftSeq)
		for i := start; i < s.hist.Len(); i++ {
			h := s.hist.At(i)
			h.pointErr = h.rtt - s.rHat
			s.scan.At(i).pointErr = h.pointErr
		}
		// The revision rewrote point errors the local-rate argmin
		// trackers may have cached; reload them from live history.
		s.rebuildLocalMinima()
		// The pair survives, but its quality is reassessed against the
		// new error level (Section 6.2, "Asymmetry of offset and rate").
		if s.havePair {
			if _, qual, ok := s.pairEstimate(&s.pairJ, &s.pairI); ok {
				s.pQual = qual
			}
		}
		res.UpwardShiftDetected = true
	}
}
