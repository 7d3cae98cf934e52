// Package ensemble combines several independently synchronized TSC-NTP
// engines — one per upstream NTP server — into a single robust software
// clock, the scale-out step beyond the paper: its algorithms make one
// server's congestion, outages and faults survivable, but a single
// upstream is still a single point of failure. Running one core engine
// per server over a shared host counter makes the per-server absolute
// clocks directly comparable (they all map the same counter value to a
// time), and an interval-intersection selection stage followed by a
// weighted-median agreement step lets faulty — even mutually agreeing —
// servers be outvoted rather than followed.
//
// Four layers:
//
//   - per-server engines: each upstream server feeds its own core.Sync,
//     so per-server filtering state (r̂, point errors, windows) never
//     mixes across paths with different RTTs and asymmetries;
//   - trust scoring: each server's combining weight is derived from the
//     engine's own quality signals — the point-error level (congestion),
//     the stability of the minimum-RTT floor (route flap), and decaying
//     penalties for sanity triggers, poor-quality fallbacks, detected
//     level shifts and server identity changes;
//   - selection: each server asserts a correctness interval — its
//     absolute clock ± a bound from its error scale — and a
//     Marzullo/NTP-select sweep finds the maximal mutually-intersecting
//     majority. Servers outside it are flagged falsetickers and must
//     re-intersect for several consecutive exchanges before re-admission
//     (hysteresis), so a lying server cannot flap in and out of the
//     vote. The reference region is sticky: the selected set's own
//     intersection keeps defining it while the set still holds a strict
//     majority of the ready servers, so honest intervals that
//     transiently balloon under congestion cannot hand a tight lying
//     minority the vote;
//   - combining: absolute time and rate are the weighted medians of the
//     *selected* servers' estimates (breakdown point 1/2 within the
//     selected set, count-based breakdown ⌈N/2⌉−1 from the selection
//     stage), with a Marzullo-style agreement count over per-server
//     error intervals as the confidence signal.
//
// Selection closes the gap the weighted median alone leaves open: the
// median's breakdown is weight-based, so two colluding servers on clean
// low-jitter paths can accumulate more than half the total weight and
// drag the combined clock without ever being flagged. The intersection
// sweep is count-based — a minority of servers, however trusted, whose
// intervals do not intersect the majority's is excluded outright.
//
// The sweep also yields a first path-asymmetry diagnostic the
// single-server engine cannot observe (paper §2.3): the signed
// disagreement of each server's absolute clock against the selected
// set's interval midpoint. A server that is systematically early or
// late against the ensemble — while healthy by every single-path signal
// — is exactly what an uncalibrated path asymmetry looks like.
//
// The per-packet cost is one engine Process, O(1) scoring, and one
// O(N log N) selection sweep over the N per-server intervals (N is the
// server count — single digits — so the sweep is tens of nanoseconds);
// the combination itself is evaluated at read time, from the published
// Readout, with zero allocations (see BenchmarkEnsembleRead).
//
//repro:deterministic
package ensemble

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/core"
)

// Config configures an ensemble.
type Config struct {
	// Engines carries one engine configuration per upstream server. At
	// least one is required.
	Engines []core.Config

	// PenaltyDecay in (0,1] is the per-exchange decay factor of a
	// server's accumulated event penalty. Default: 0.9 (an isolated
	// sanity event fades in a few tens of exchanges).
	PenaltyDecay float64

	// ErrAlpha in (0,1] is the EWMA gain of the point-error level and
	// RTT-floor wobble trackers. Default: 1/8.
	ErrAlpha float64

	// AgreementFactor scales the per-server error intervals used by both
	// the selection sweep and the Marzullo-style agreement count.
	// Default: 4.
	AgreementFactor float64

	// ReadmitAfter is the number of consecutive selection sweeps a
	// flagged falseticker must intersect the majority before being
	// re-admitted to the selected set (hysteresis: one lucky overlap
	// does not restore the vote). Default: 8.
	ReadmitAfter int

	// DisableSelection turns the interval-intersection stage off: the
	// weighted median runs over every ready server, as the pre-selection
	// combiner did. For ablation and experiments.
	DisableSelection bool

	// AsymCorrection promotes the per-server asymmetry hints from
	// diagnostics to a damped first-order offset correction (see
	// asym.go): each selected server's absolute clock is shifted by an
	// EWMA of its signed disagreement with the selected-set midpoint
	// before it enters the combining median, pulling systematically
	// early or late servers — what uncalibrated path asymmetry looks
	// like from the outside (paper §2.3) — onto the ensemble consensus.
	// Off by default; the combined clock is bit-identical to the
	// uncorrected combiner while disabled.
	AsymCorrection bool

	// AsymAlpha in (0,1] is the EWMA gain of the asymmetry-correction
	// tracker: the damping that keeps the correction a contraction (one
	// noisy sweep moves it by at most AsymAlpha of the disturbance).
	// Default: 1/64.
	AsymAlpha float64

	// AsymClampFrac bounds the applied correction to this fraction of
	// the server's correctness-interval half-width
	// (AgreementFactor·noiseScale): a correction can re-center a server
	// within its own claim but never push it across it, so a wrong
	// correction degrades accuracy without being able to manufacture a
	// falseticker or flip a vote. Default: 1/2.
	AsymClampFrac float64

	// Degradation ladder (see ladder.go). MinVotingSynced is the voting
	// quorum for StateSynced (default: a strict majority, len/2+1).
	// RecoverAfter is the hysteresis: consecutive exchanges at a better
	// level before an upgrade takes (default 3). StaleAfterPolls is the
	// per-server freshness bound in polling periods — a server whose
	// last exchange is older loses its vote (default 8).
	MinVotingSynced int
	RecoverAfter    int
	StaleAfterPolls int

	// HoldoverAfter and UnsyncedAfter are read-time staleness caps in
	// seconds of combined-readout age: past HoldoverAfter the published
	// state is capped at StateHoldover, past UnsyncedAfter at
	// StateUnsynced. Defaults scale with the largest engine polling
	// period: max(8·poll, 60) and max(128·poll, 3600).
	HoldoverAfter float64
	UnsyncedAfter float64
}

func (c *Config) setDefaults() {
	if c.PenaltyDecay == 0 {
		c.PenaltyDecay = 0.9
	}
	if c.ErrAlpha == 0 {
		c.ErrAlpha = 1.0 / 8
	}
	if c.AgreementFactor == 0 {
		c.AgreementFactor = 4
	}
	if c.ReadmitAfter == 0 {
		c.ReadmitAfter = 8
	}
	if c.AsymAlpha == 0 {
		c.AsymAlpha = 1.0 / 64
	}
	if c.AsymClampFrac == 0 {
		c.AsymClampFrac = 0.5
	}
	if c.MinVotingSynced == 0 {
		c.MinVotingSynced = len(c.Engines)/2 + 1
	}
	if c.RecoverAfter == 0 {
		c.RecoverAfter = 3
	}
	if c.StaleAfterPolls == 0 {
		c.StaleAfterPolls = 8
	}
	maxPoll := 0.0
	for _, ec := range c.Engines {
		if ec.PollPeriod > maxPoll {
			maxPoll = ec.PollPeriod
		}
	}
	if c.HoldoverAfter == 0 {
		c.HoldoverAfter = math.Max(8*maxPoll, 60)
	}
	if c.UnsyncedAfter == 0 {
		c.UnsyncedAfter = math.Max(128*maxPoll, 3600)
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if len(c.Engines) == 0 {
		return fmt.Errorf("ensemble: at least one engine config required")
	}
	// Zero means "take the default"; anything else must lie in range.
	// The inverted comparisons are NaN-safe, like core's validation.
	if c.PenaltyDecay != 0 && !(c.PenaltyDecay > 0 && c.PenaltyDecay <= 1) {
		return fmt.Errorf("ensemble: PenaltyDecay %v outside (0,1]", c.PenaltyDecay)
	}
	if c.ErrAlpha != 0 && !(c.ErrAlpha > 0 && c.ErrAlpha <= 1) {
		return fmt.Errorf("ensemble: ErrAlpha %v outside (0,1]", c.ErrAlpha)
	}
	if c.AgreementFactor != 0 && !(c.AgreementFactor > 0) {
		return fmt.Errorf("ensemble: AgreementFactor must be positive")
	}
	if c.ReadmitAfter < 0 {
		return fmt.Errorf("ensemble: ReadmitAfter must be non-negative")
	}
	if c.AsymAlpha != 0 && !(c.AsymAlpha > 0 && c.AsymAlpha <= 1) {
		return fmt.Errorf("ensemble: AsymAlpha %v outside (0,1]", c.AsymAlpha)
	}
	if c.AsymClampFrac != 0 && !(c.AsymClampFrac > 0) {
		return fmt.Errorf("ensemble: AsymClampFrac %v must be positive", c.AsymClampFrac)
	}
	if c.MinVotingSynced != 0 && (c.MinVotingSynced < 1 || c.MinVotingSynced > len(c.Engines)) {
		return fmt.Errorf("ensemble: MinVotingSynced %d outside [1,%d]", c.MinVotingSynced, len(c.Engines))
	}
	if c.RecoverAfter < 0 {
		return fmt.Errorf("ensemble: RecoverAfter must be non-negative")
	}
	if c.StaleAfterPolls < 0 {
		return fmt.Errorf("ensemble: StaleAfterPolls must be non-negative")
	}
	if c.HoldoverAfter != 0 && !(c.HoldoverAfter > 0) {
		return fmt.Errorf("ensemble: HoldoverAfter %v must be positive", c.HoldoverAfter)
	}
	if c.UnsyncedAfter != 0 && !(c.UnsyncedAfter > 0) {
		return fmt.Errorf("ensemble: UnsyncedAfter %v must be positive", c.UnsyncedAfter)
	}
	if c.HoldoverAfter > 0 && c.UnsyncedAfter > 0 && c.UnsyncedAfter < c.HoldoverAfter {
		return fmt.Errorf("ensemble: UnsyncedAfter %v below HoldoverAfter %v", c.UnsyncedAfter, c.HoldoverAfter)
	}
	for i, ec := range c.Engines {
		if err := ec.Validate(); err != nil {
			return fmt.Errorf("ensemble: engine %d: %w", i, err)
		}
	}
	return nil
}

// member is the per-server trust and selection state.
type member struct {
	count     int
	ready     bool    // past warmup: the engine's estimates are trusted
	delta     float64 // the engine's δ: the floor of the error scale
	ewmaErr   float64 // EWMA of the point error (congestion level), s
	lastRHat  float64
	rttWobble float64 // EWMA of |Δr̂| (minimum-RTT floor stability), s
	penalty   float64 // decaying event penalty, s

	selected bool    // in the selected (truechimer) set
	streak   int     // consecutive sweeps intersecting the majority
	asym     float64 // signed clock error vs the selected-set midpoint, s

	// Asymmetry correction (see asym.go): corrEwma is the damped
	// tracker of the asymmetry hint, corr the clamped correction the
	// published combine subtracts (zero while the gate is closed).
	corrEwma float64
	corr     float64
}

// observe folds one engine result into the trust state.
func (m *member) observe(cfg *Config, ec *core.Config, res core.Result) {
	m.count++
	if m.count == 1 {
		m.ewmaErr = res.PointError
		m.lastRHat = res.RTTHat
	}
	m.ewmaErr += cfg.ErrAlpha * (res.PointError - m.ewmaErr)
	d := math.Abs(res.RTTHat - m.lastRHat)
	m.rttWobble += cfg.ErrAlpha * (d - m.rttWobble)
	m.lastRHat = res.RTTHat

	// Event penalties, in seconds on the same scale as the thresholds
	// that fired them. The offset sanity check is the strongest signal —
	// the server's timestamps contradicted its own recent history by
	// more than E_s — so it carries the E_s scale; a detected level
	// shift means the path (and so the asymmetry baked into θ̂) changed.
	m.penalty *= cfg.PenaltyDecay
	if res.PoorQuality {
		m.penalty += ec.E()
	}
	if res.OffsetSanityTriggered || res.RateSanityTriggered {
		m.penalty += ec.OffsetSanity
	}
	if res.UpwardShiftDetected {
		m.penalty += ec.ShiftThresholdFactor * ec.E()
	}
	if !m.ready && !res.Warmup {
		// Graduation: enter the selected set on trust — the very next
		// sweep evicts the server if its interval misses the majority.
		m.selected = true
		m.streak = 0
	}
	m.ready = !res.Warmup
}

// errScale is the server's current error scale in seconds: the basis of
// the combining weight (∝ 1/errScale²) and the agreement interval.
func (m *member) errScale() float64 {
	return m.delta + m.ewmaErr + m.rttWobble + m.penalty
}

// noiseScale is the error scale without the event penalty: the width of
// the server's correctness claim in the selection sweep. Penalties
// measure distrust, not measurement uncertainty — folding them into the
// interval would let a misbehaving server widen its own claim exactly
// when it should be easiest to convict (its sanity events would balloon
// the interval until it overlaps any majority).
func (m *member) noiseScale() float64 {
	return m.delta + m.ewmaErr + m.rttWobble
}

// endpoint is one interval edge in the selection sweep.
type endpoint struct {
	x float64
	d int8 // +1 interval start, −1 interval end
}

// Ensemble runs one synchronization engine per upstream server over a
// shared host counter and combines their clocks. It is not safe for
// concurrent use; the public tscclock.Ensemble wrapper adds locking.
// Every combined read goes through the published Readout, which is
// safe from any goroutine.
type Ensemble struct {
	cfg     Config
	engines []*core.Sync
	members []member

	// Scratch buffers for the zero-allocation sweep and publish paths
	// (the type is single-threaded by contract, so one set suffices).
	ws     []float64  // per-server weights
	eps    []endpoint // selection sweep endpoints
	lo     []float64  // per-server interval lower bounds
	hi     []float64  // per-server interval upper bounds
	widths []float64  // interval-width sort scratch (sweep voter filter)

	// Degradation ladder state (see ladder.go): the writer-side rung,
	// the recovery hysteresis streak, whether the combine was ever
	// trusted (gates HOLDOVER vs UNSYNCED), the rate frozen at the last
	// trusted combine, the serving health summary, and the voting set.
	base        State
	upStreak    int
	everTrusted bool
	frozenRate  float64
	health      Health
	voting      []bool
	votingCount int

	// Lock-free publication (see readout.go): lastTf anchors the
	// combined readout's staleness, pub holds the published snapshot.
	lastTf uint64
	pub    ensemblePub
}

// New constructs an ensemble from one engine configuration per server.
func New(cfg Config) (*Ensemble, error) {
	cfg.setDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := len(cfg.Engines)
	e := &Ensemble{
		cfg:     cfg,
		engines: make([]*core.Sync, n),
		members: make([]member, n),
		ws:      make([]float64, n),
		eps:     make([]endpoint, 0, 2*n),
		lo:      make([]float64, n),
		hi:      make([]float64, n),
		widths:  make([]float64, 0, n),
		voting:  make([]bool, n),
	}
	for i, ec := range cfg.Engines {
		s, err := core.NewSync(ec)
		if err != nil {
			return nil, fmt.Errorf("ensemble: engine %d: %w", i, err)
		}
		e.engines[i] = s
		e.members[i].delta = ec.Delta
	}
	e.publish()
	return e, nil
}

// Size returns the number of servers (engines).
func (e *Ensemble) Size() int { return len(e.engines) }

// Process feeds one completed exchange with server k to that server's
// engine, updates the server's trust state, and runs one selection
// sweep at the exchange's receive stamp. Exchanges must arrive in
// order per server; cross-server ordering is unconstrained.
//
//repro:hotpath
func (e *Ensemble) Process(server int, in core.Input) (core.Result, error) {
	if server < 0 || server >= len(e.engines) {
		//repro:alloc-ok rejected-input error path: allocates only for out-of-range server indices
		return core.Result{}, fmt.Errorf("ensemble: server %d out of range [0,%d)", server, len(e.engines))
	}
	res, err := e.engines[server].Process(in)
	if err != nil {
		return res, err
	}
	e.members[server].observe(&e.cfg, &e.cfg.Engines[server], res)
	e.updateSelection(in.Tf)
	if e.cfg.AsymCorrection {
		e.updateAsymCorrection()
	}
	e.lastTf = in.Tf
	e.updateLadder()
	e.publish()
	return res, nil
}

// BatchExchange is one completed exchange addressed to its server, the
// unit of ProcessBatch.
type BatchExchange struct {
	Server int
	In     core.Input
}

// ProcessBatch feeds a batch of completed exchanges — e.g. one poll
// round's worth, arriving together from a batched receive loop — and
// runs the combine stages ONCE for the whole batch instead of once per
// exchange. Engine updates are identical to calling Process per
// exchange (same engines, same order, so per-server in-order delivery
// is preserved); only the selection sweep, asymmetry promotion, ladder
// and publication are amortized, evaluated at the latest receive stamp
// in the batch. Cache locality is the other half: the engines' state
// is walked back-to-back while hot, then the member/selection arrays
// once, instead of interleaving the two per exchange.
//
// On an engine error the remaining exchanges are not applied (the
// caller cannot know which inputs a partial batch consumed otherwise),
// but the combine stages still run over what was applied, so the
// published readout never lags the engine state.
func (e *Ensemble) ProcessBatch(batch []BatchExchange) error {
	maxTf, applied := uint64(0), 0
	var procErr error
	for i := range batch {
		b := &batch[i]
		if b.Server < 0 || b.Server >= len(e.engines) {
			procErr = fmt.Errorf("ensemble: server %d out of range [0,%d)", b.Server, len(e.engines))
			break
		}
		res, err := e.engines[b.Server].Process(b.In)
		if err != nil {
			procErr = err
			break
		}
		e.members[b.Server].observe(&e.cfg, &e.cfg.Engines[b.Server], res)
		if b.In.Tf > maxTf {
			maxTf = b.In.Tf
		}
		applied++
	}
	if applied > 0 {
		e.updateSelection(maxTf)
		if e.cfg.AsymCorrection {
			e.updateAsymCorrection()
		}
		e.lastTf = maxTf
		e.updateLadder()
		e.publish()
	}
	return procErr
}

// ObserveIdentity feeds server k's identity data from the most recent
// exchange (after Process, mirroring core.Sync.ObserveIdentity). A
// detected change re-bases that engine's RTT filter and adds a trust
// penalty: the combined clock leans on the other servers until the new
// path proves itself.
func (e *Ensemble) ObserveIdentity(server int, id core.Identity) (bool, error) {
	if server < 0 || server >= len(e.engines) {
		return false, fmt.Errorf("ensemble: server %d out of range [0,%d)", server, len(e.engines))
	}
	before := e.engines[server].Readout()
	changed := e.engines[server].ObserveIdentity(id)
	if changed {
		e.members[server].penalty += e.cfg.Engines[server].OffsetSanity
	}
	// A new identity can change the advertised stratum chain, so the
	// serving health must track it (the voting set itself only moves on
	// Process).
	if e.votingCount > 0 {
		e.refreshHealth()
	}
	// The server's identity is part of the published readout (relay
	// serving derives its advertised stratum from it), so republish
	// when the engine published a new snapshot — a first observation
	// or a change — but not on the common unchanged-identity exchange,
	// which would double the publication cost for nothing.
	if changed || e.engines[server].Readout() != before {
		e.publish()
	}
	return changed, nil
}

// updateSelection runs one Marzullo/NTP-select sweep at counter value T:
// every ready server asserts the correctness interval
// [Ca_k(T) − bound_k, Ca_k(T) + bound_k] with bound_k =
// AgreementFactor·noiseScale_k, a sweep finds the majority region, and
// each server is classified by whether its interval reaches it.
// Falsetickers re-enter only after ReadmitAfter consecutive
// intersecting sweeps.
//
// The region is *sticky*: while the currently selected set's intervals
// still mutually intersect in a region backed by a strict majority of
// the ready servers, that incumbent region is the reference, and
// flagged servers only rebuild their re-admission streaks against it.
// Only when the incumbent set fractures does the full Marzullo sweep
// over every ready server decide afresh. Without stickiness, an honest
// server whose interval transiently balloons (a congestion episode
// inflates its noise scale) intersects everything — and two such wide
// intervals can hand a tight-but-lying minority a spurious maximal
// overlap, evicting the remaining honest servers. A ballooned interval
// widens a claim; it should not move the vote.
func (e *Ensemble) updateSelection(T uint64) {
	if e.cfg.DisableSelection {
		return
	}
	nReady := 0
	for k := range e.members {
		if e.members[k].ready {
			nReady++
		}
	}
	if nReady == 0 {
		return
	}
	if nReady == 1 {
		// A lone calibrated server cannot be outvoted; it is the
		// selected set, and the midpoint is its own clock.
		for k := range e.members {
			if m := &e.members[k]; m.ready {
				m.selected = true
				m.asym = 0
			}
		}
		return
	}

	// Correctness intervals of every ready server.
	for k := range e.members {
		m := &e.members[k]
		if !m.ready {
			continue
		}
		c := e.engines[k].Readout().AbsoluteTime(T)
		bound := e.cfg.AgreementFactor * m.noiseScale()
		e.lo[k] = c - bound
		e.hi[k] = c + bound
	}

	// Pass 1: the incumbent region. Pass 2, on fracture: the full sweep.
	bestLo, bestHi, ok := e.sweepRegion(nReady, true)
	if !ok {
		bestLo, bestHi, ok = e.sweepRegion(nReady, false)
	}
	if !ok {
		// No strict majority intersects: there is no evidence to
		// convict anyone, so the classification stands (NTP's select
		// likewise reports no survivors rather than guessing).
		return
	}

	// Classification is asymmetric, and deliberately so.
	//
	// Eviction is interval-based and immediate: a selected server stays
	// only while its correctness interval still reaches the region, so
	// an honest server whose interval widens under congestion keeps its
	// seat (a wide claim still covers the truth it asserts).
	for k := range e.members {
		m := &e.members[k]
		if !m.ready || !m.selected {
			continue
		}
		if e.lo[k] <= bestHi && e.hi[k] >= bestLo {
			m.streak++
		} else {
			m.streak = 0
			m.selected = false
		}
	}

	// The survivors' cluster: the intersection of the still-selected
	// intervals — the tightest range every truechimer agrees contains
	// the truth (the sweep region stands in after a mass eviction).
	iLo, iHi := e.selectedIntersection(bestLo, bestHi)

	// Re-admission is midpoint-based and slow: a flagged server builds
	// its streak only while its clock midpoint lies inside the
	// survivors' cluster, and returns after ReadmitAfter consecutive
	// such sweeps. Mere interval overlap is not evidence here — a lying
	// server whose own noise scale balloons during a congestion episode
	// can widen its claim until it touches any majority, but it cannot
	// move its clock into the cluster without actually agreeing.
	for k := range e.members {
		m := &e.members[k]
		if !m.ready || m.selected {
			continue
		}
		if mid := (e.lo[k] + e.hi[k]) / 2; iLo <= mid && mid <= iHi {
			m.streak++
			if m.streak >= e.cfg.ReadmitAfter {
				m.selected = true
			}
		} else {
			m.streak = 0
		}
	}

	// Selected-set midpoint: the center of the survivors' cluster
	// (recomputed so re-admissions count), the ensemble's best single
	// point of truth. Each ready server's signed disagreement against
	// it is the asymmetry hint: a persistent bias here, on a server
	// healthy by every single-path signal, is what an uncalibrated path
	// asymmetry error looks like from the outside (paper §2.3).
	iLo, iHi = e.selectedIntersection(bestLo, bestHi)
	mid := (iLo + iHi) / 2
	for k := range e.members {
		if m := &e.members[k]; m.ready {
			m.asym = (e.lo[k]+e.hi[k])/2 - mid
		}
	}
}

// selectedIntersection returns the intersection of the ready selected
// servers' intervals, falling back to the given sweep region when no
// selected interval remains or the intersection is empty.
func (e *Ensemble) selectedIntersection(regionLo, regionHi float64) (float64, float64) {
	iLo, iHi := math.Inf(-1), math.Inf(1)
	any := false
	for k := range e.members {
		if m := &e.members[k]; m.ready && m.selected {
			any = true
			iLo = math.Max(iLo, e.lo[k])
			iHi = math.Min(iHi, e.hi[k])
		}
	}
	if !any || iLo > iHi {
		return regionLo, regionHi
	}
	return iLo, iHi
}

// uninformativeWidthFactor disqualifies ballooned intervals from voting
// in the fresh (fallback) sweep: an interval wider than this multiple
// of the median ready interval width spans every camp at the decision
// scale, so counting it only inflates overlap everywhere — including
// around a tight lying minority. Such a server is still classified
// against the region; it just cannot help pick it.
const uninformativeWidthFactor = 4

// sweepRegion runs the Marzullo endpoint sweep over the ready servers'
// intervals (e.lo/e.hi) — restricted to the currently selected set when
// selectedOnly — and returns the maximal-overlap region. ok requires
// that maximal overlap to be a strict majority of ALL nReady ready
// servers, so the selected set defines the region only while it can
// still muster that majority by itself. The fresh sweep (selectedOnly
// false) additionally excludes uninformative ballooned intervals from
// voting.
func (e *Ensemble) sweepRegion(nReady int, selectedOnly bool) (lo, hi float64, ok bool) {
	widthCap := math.Inf(1)
	if !selectedOnly {
		e.widths = e.widths[:0]
		for k := range e.members {
			if e.members[k].ready {
				//repro:alloc-ok append into receiver-held scratch resliced from [:0]; capacity reaches the member count after the first sweep and never grows again
				e.widths = append(e.widths, e.hi[k]-e.lo[k])
			}
		}
		slices.Sort(e.widths)
		widthCap = uninformativeWidthFactor * e.widths[len(e.widths)/2]
	}

	// Interval endpoints, starts before ends at equal positions so
	// touching intervals count as intersecting.
	e.eps = e.eps[:0]
	for k := range e.members {
		m := &e.members[k]
		if !m.ready || (selectedOnly && !m.selected) {
			continue
		}
		if e.hi[k]-e.lo[k] > widthCap {
			continue
		}
		//repro:alloc-ok append into receiver-held scratch resliced from [:0]; capacity reaches 2x the member count after the first sweep and never grows again
		e.eps = append(e.eps, endpoint{x: e.lo[k], d: 1}, endpoint{x: e.hi[k], d: -1})
	}
	//repro:alloc-ok slices.SortFunc does not retain the comparison closure, so it stays on the stack (generic, no interface boxing)
	slices.SortFunc(e.eps, func(a, b endpoint) int {
		switch {
		case a.x < b.x:
			return -1
		case a.x > b.x:
			return 1
		default:
			return int(b.d) - int(a.d)
		}
	})

	// A new maximum can only appear at a start, and a start is never the
	// last endpoint, so eps[i+1] is always valid there.
	cnt, best := 0, 0
	for i := range e.eps {
		if e.eps[i].d > 0 {
			cnt++
			if cnt > best {
				best = cnt
				lo = e.eps[i].x
				hi = e.eps[i+1].x
			}
		} else {
			cnt--
		}
	}
	return lo, hi, best > nReady/2
}

// rawWeights fills the scratch weight buffer with the current combining
// weights (unnormalized) and returns it. Servers still in warmup weigh
// zero, and so do flagged falsetickers while selection is enabled; if
// every ready server is excluded (a transient, e.g. all in readmission
// probation) the ready servers vote as if selection were off, and if no
// server has graduated yet, every server with at least one exchange
// weighs equally, so the combined clock is defined from the first
// packet (matching the single-clock behaviour of reading during
// warmup).
func (e *Ensemble) rawWeights() []float64 {
	ws := e.ws
	anyReady, anySelected := false, false
	for k := range e.members {
		ws[k] = 0
		m := &e.members[k]
		if !m.ready {
			continue
		}
		anyReady = true
		if e.cfg.DisableSelection || m.selected {
			es := m.errScale()
			ws[k] = 1 / (es * es)
			anySelected = true
		}
	}
	switch {
	case anyReady && !anySelected:
		for k := range e.members {
			if m := &e.members[k]; m.ready {
				es := m.errScale()
				ws[k] = 1 / (es * es)
			}
		}
	case !anyReady:
		for k := range e.members {
			if e.members[k].count > 0 {
				ws[k] = 1
			}
		}
	}
	return ws
}

// wv is one (value, weight) pair of the weighted-median scratch.
type wv struct{ v, w float64 }

// medianOfItems returns the weighted median of positive-weight items:
// the value at which the cumulative weight reaches half the total. When
// the boundary is hit exactly — as with two equally weighted servers —
// the two straddling values are averaged, so the combined clock lands
// between them instead of on whichever reads earlier. The breakdown
// point is 1/2: items holding less than half the total weight cannot
// move the result beyond the others' values. It is the one median
// behind every combined read (absolute time and rate). items must be
// non-empty with positive weights summing to total; it is sorted in
// place.
func medianOfItems(items []wv, total float64) float64 {
	//repro:alloc-ok slices.SortFunc does not retain the comparison closure, so it stays on the stack (generic, no interface boxing)
	slices.SortFunc(items, func(a, b wv) int {
		switch {
		case a.v < b.v:
			return -1
		case a.v > b.v:
			return 1
		default:
			return 0
		}
	})
	half := total / 2
	acc := 0.0
	for i := range items {
		acc += items[i].w
		if acc == half {
			// Exactly at the half-weight boundary: the median lies
			// between this value and the next positive-weight one.
			// i+1 is in range — acc == total/2 < total means weight
			// remains, and every retained item has positive weight.
			return (items[i].v + items[i+1].v) / 2
		}
		if acc > half {
			return items[i].v
		}
	}
	return items[len(items)-1].v
}
