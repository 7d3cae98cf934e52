package ensemble

// The published combined readout: the lock-free read side of the
// ensemble, mirroring internal/core's Readout one layer up. The write
// path (Process → trust scoring → selection sweep) publishes an
// immutable snapshot of everything a combined-clock read needs through
// an atomic pointer; readers — the public tscclock.Ensemble/MultiLive
// wrappers, and through them every downstream NTP shard stamping
// replies — load the pointer once and evaluate pure functions, with no
// lock shared with the writer and no possibility of observing a torn
// combine (a half-updated weight/selection set).

import (
	"sync/atomic"

	"repro/internal/core"
)

// ServerReadout is one server's slice of a combined readout: its
// engine's published clock snapshot plus the ensemble-level trust and
// selection view of it.
//
//repro:immutable
type ServerReadout struct {
	// Clock is the server engine's own published readout (affine
	// clock, offset anchor, quality, identity) — shared by pointer,
	// not copied: engine readouts are immutable once published, and
	// sharing keeps the per-packet publication cost flat in the
	// snapshot size (the combine captures whichever engine snapshots
	// were current at publish time; later engine publications swap
	// pointers elsewhere and never mutate these).
	Clock *core.Readout

	// Weight is the normalized combining weight (zero for warmup
	// servers and flagged falsetickers, with the documented mass-
	// eviction and pre-graduation fallbacks already applied): the
	// weight behind every combining median.
	Weight float64

	// Trust and selection diagnostics, as ServerState reports them.
	Ready           bool
	Selected        bool
	Falseticker     bool
	IntersectStreak int
	AsymmetryHint   float64
	AsymCorrection  float64
	ErrScale        float64
	PointErrLevel   float64
	RTTWobble       float64
	Penalty         float64
	Exchanges       int

	// AgreementBound is the half-width of this server's error interval
	// (AgreementFactor × ErrScale): the Agreement count and any
	// downstream dispersion advertisement derive from it.
	AgreementBound float64
}

// Readout is an immutable snapshot of the combined clock: the
// selection result, the per-server states, and the combined rate. It
// is published after every Process (one selection sweep per exchange)
// and after every identity-change penalty; a Readout obtained once
// keeps answering consistently while the ensemble processes further
// exchanges. All methods are pure functions of the snapshot.
//
//repro:immutable
type Readout struct {
	// Servers holds one entry per configured server, in server order.
	Servers []ServerReadout

	// Rate is the combined rate estimate (seconds per counter cycle):
	// the trust-weighted median of the selected servers' p̂,
	// precomputed at publish time (it does not depend on the counter).
	Rate float64

	// Counts over Servers, precomputed for consumers that only gate on
	// health: ready (past warmup), selected (truechimers), and flagged
	// falsetickers.
	ReadyCount    int
	SelectedCount int
	Falsetickers  int

	// Exchanges is the total exchange count across all servers.
	Exchanges int

	// LastTf is the host counter value of the most recent exchange fed
	// to any server: the staleness anchor of the whole combine. Age
	// converts it to seconds.
	LastTf uint64

	// Degradation ladder (see ladder.go). BaseState is the writer-side
	// rung at publish time; State(T) caps it by the readout's age.
	// Health is the serving summary of the voting set (frozen at the
	// last trusted combine while nothing votes); VotingCount is the
	// number of servers behind it. In BaseState < StateDegraded the
	// published Rate is the frozen holdover rate, not a live median.
	BaseState   State
	Health      Health
	VotingCount int

	// HoldoverAfter and UnsyncedAfter are the read-time staleness caps
	// (seconds of readout age), copied from the configuration so State
	// stays a pure function of the snapshot.
	HoldoverAfter float64
	UnsyncedAfter float64
}

// State returns the degradation-ladder state at counter value T: the
// published base state capped by the readout's age. A combine whose
// newest exchange is older than HoldoverAfter cannot claim better than
// HOLDOVER no matter how healthy it looked when it was published —
// this is the only ladder path that works during a *total* outage,
// when no exchange arrives to move the writer-side state at all. Past
// UnsyncedAfter the frozen drift bound itself is stale and the clock
// reports UNSYNCED.
//
//repro:readpath
func (r *Readout) State(T uint64) State {
	if r.BaseState == StateUnsynced {
		return StateUnsynced
	}
	age := r.Age(T)
	switch {
	case age > r.UnsyncedAfter:
		return StateUnsynced
	case age > r.HoldoverAfter && r.BaseState > StateHoldover:
		return StateHoldover
	}
	return r.BaseState
}

// readScratch bounds the stack scratch of the lock-free read path;
// ensembles larger than this still read correctly but the median
// scratch spills to the heap. Real ensembles are single digits.
const readScratch = 16

// AbsoluteTime reads the combined absolute clock at a counter value:
// the weighted median of the positive-weight servers' absolute clocks.
// With three or more comparable servers, a faulty minority — even one
// whose members agree with each other — is excluded by the selection
// stage and outvoted by the median.
//
//repro:readpath
//repro:hotpath
func (r *Readout) AbsoluteTime(T uint64) float64 {
	combined, _ := r.combine(T, nil)
	return combined
}

// combine returns the weighted median of the positive-weight servers'
// votes at counter value T, each vote the server's absolute clock less
// its asymmetry correction. A non-nil votes gets every server's vote
// appended, in server order, and is returned extended. This is the one
// place the correction is applied; it is identically zero while the
// feature is off (x − 0 is the identity for every float), so the
// uncorrected combine is unchanged bit for bit.
//
//repro:readpath
func (r *Readout) combine(T uint64, votes []float64) (float64, []float64) {
	var buf [readScratch]wv
	items, total := buf[:0], 0.0
	for k := range r.Servers {
		sr := &r.Servers[k]
		if sr.Weight <= 0 && votes == nil {
			continue
		}
		v := sr.Clock.AbsoluteTime(T) - sr.AsymCorrection
		if votes != nil {
			//repro:alloc-ok append into the caller's readScratch stack buffer; spills to the heap only past readScratch servers (documented above)
			votes = append(votes, v)
		}
		if sr.Weight > 0 {
			//repro:alloc-ok append into the readScratch stack buffer; spills to the heap only past readScratch servers (documented above)
			items = append(items, wv{v, sr.Weight})
			total += sr.Weight
		}
	}
	switch {
	case len(items) > 0:
		return medianOfItems(items, total), votes
	case len(r.Servers) > 0:
		// No server holds weight (before the first exchange): the
		// first server's clock stands in, as a single clock would read.
		return r.Servers[0].Clock.AbsoluteTime(T), votes
	}
	return 0, votes
}

// RateHat returns the combined rate estimate (seconds per cycle).
//
//repro:readpath
func (r *Readout) RateHat() float64 { return r.Rate }

// DifferenceSpan measures the interval between two counter readings
// with the combined difference clock (combined rate only).
//
//repro:readpath
func (r *Readout) DifferenceSpan(T1, T2 uint64) float64 {
	if T2 >= T1 {
		return float64(T2-T1) * r.Rate
	}
	return -float64(T1-T2) * r.Rate
}

// Agreement counts the servers whose error interval — the server's
// absolute clock ± AgreementBound, Marzullo-style — contains the
// combined absolute time at counter value T. len(Servers) means full
// agreement; below a majority means the ensemble is running on a
// minority of self-consistent servers and should be treated with
// suspicion.
//
//repro:readpath
//repro:hotpath
func (r *Readout) Agreement(T uint64) int {
	var buf [readScratch]float64
	combined, votes := r.combine(T, buf[:0])
	n := 0
	for k := range r.Servers {
		sr := &r.Servers[k]
		if sr.Exchanges == 0 {
			continue
		}
		d := votes[k] - combined
		if d < 0 {
			d = -d
		}
		if d <= sr.AgreementBound {
			n++
		}
	}
	return n
}

// Weights returns the normalized per-server combining weights as a
// fresh slice.
//
//repro:readpath
func (r *Readout) Weights() []float64 {
	ws := make([]float64, len(r.Servers))
	for k := range r.Servers {
		ws[k] = r.Servers[k].Weight
	}
	return ws
}

// Age returns the seconds elapsed (per the combined difference clock)
// since the exchange this readout was published from — the staleness
// bound of the combine. Before any exchange it measures from the
// counter origin.
//
//repro:readpath
func (r *Readout) Age(T uint64) float64 {
	return r.DifferenceSpan(r.LastTf, T)
}

// Synced reports whether the combined clock is calibrated: at least
// one server past warmup holds positive combining weight and an offset
// estimate. Downstream NTP serving advertises unsynchronized until
// this holds.
//
//repro:readpath
func (r *Readout) Synced() bool {
	for k := range r.Servers {
		s := &r.Servers[k]
		if s.Ready && s.Weight > 0 && s.Clock.HaveTheta {
			return true
		}
	}
	return false
}

// ServerState is the diagnostic view of one server's trust and
// selection state.
type ServerState struct {
	Exchanges     int     // exchanges processed
	Ready         bool    // past warmup
	Weight        float64 // normalized combining weight
	ErrScale      float64 // error scale (s) behind the weight
	PointErrLevel float64 // EWMA of the point error (s)
	RTTWobble     float64 // EWMA of |Δr̂| (s)
	Penalty       float64 // current decaying event penalty (s)

	// Selected reports membership in the selected (truechimer) set;
	// Falseticker is a ready server currently voted out by the
	// interval-intersection stage. IntersectStreak counts consecutive
	// sweeps intersecting the majority (a flagged server re-enters at
	// ReadmitAfter). AsymmetryHint is the signed disagreement of this
	// server's absolute clock against the selected-set midpoint (s) —
	// an estimate of path-asymmetry error no single path can observe.
	Selected        bool
	Falseticker     bool
	IntersectStreak int
	AsymmetryHint   float64

	// AsymCorrection is the damped, clamped asymmetry correction (s)
	// currently subtracted from this server's absolute clock in the
	// combining median (see asym.go); zero unless Config.AsymCorrection
	// is on and the server is selected and unpenalized.
	AsymCorrection float64
}

// ServerStates derives the per-server diagnostic view from the
// snapshot. The returned slice is freshly allocated.
//
//repro:readpath
func (r *Readout) ServerStates() []ServerState {
	out := make([]ServerState, len(r.Servers))
	for k := range r.Servers {
		sr := &r.Servers[k]
		out[k] = ServerState{
			Exchanges:       sr.Exchanges,
			Ready:           sr.Ready,
			Weight:          sr.Weight,
			ErrScale:        sr.ErrScale,
			PointErrLevel:   sr.PointErrLevel,
			RTTWobble:       sr.RTTWobble,
			Penalty:         sr.Penalty,
			Selected:        sr.Selected,
			Falseticker:     sr.Falseticker,
			IntersectStreak: sr.IntersectStreak,
			AsymmetryHint:   sr.AsymmetryHint,
			AsymCorrection:  sr.AsymCorrection,
		}
	}
	return out
}

// publish makes the current combine visible to lock-free readers.
// Called after every Process (post-selection) and after identity
// penalties; also once at construction so Readout is never nil.
//
//repro:builder
func (e *Ensemble) publish() {
	raw := e.rawWeights()
	total := 0.0
	for k := range raw {
		total += raw[k]
	}
	ro := e.pub.nextSlot(len(e.members))
	ro.LastTf = e.lastTf
	ro.BaseState = e.base
	ro.Health = e.health
	ro.VotingCount = e.votingCount
	ro.HoldoverAfter = e.cfg.HoldoverAfter
	ro.UnsyncedAfter = e.cfg.UnsyncedAfter
	for k := range e.members {
		m := &e.members[k]
		sr := &ro.Servers[k]
		sr.Clock = e.engines[k].Readout()
		if total > 0 {
			sr.Weight = raw[k] / total
		}
		sr.Ready = m.ready
		sr.Selected = m.ready && m.selected
		sr.Falseticker = m.ready && !m.selected && !e.cfg.DisableSelection
		sr.IntersectStreak = m.streak
		sr.AsymmetryHint = m.asym
		sr.AsymCorrection = m.corr
		sr.ErrScale = m.errScale()
		sr.PointErrLevel = m.ewmaErr
		sr.RTTWobble = m.rttWobble
		sr.Penalty = m.penalty
		sr.Exchanges = m.count
		sr.AgreementBound = e.cfg.AgreementFactor * sr.ErrScale
		ro.Exchanges += m.count
		if sr.Ready {
			ro.ReadyCount++
		}
		if sr.Selected {
			ro.SelectedCount++
		}
		if sr.Falseticker {
			ro.Falsetickers++
		}
	}
	// Combined rate: the weighted median of the per-server p̂, through
	// the same median walk as AbsoluteTime.
	var buf [readScratch]wv
	items, wTotal := buf[:0], 0.0
	for k := range ro.Servers {
		if w := ro.Servers[k].Weight; w > 0 {
			//repro:alloc-ok append into the readScratch stack buffer; spills to the heap only past readScratch servers
			items = append(items, wv{ro.Servers[k].Clock.P, w})
			wTotal += w
		}
	}
	switch {
	case len(items) > 0:
		ro.Rate = medianOfItems(items, wTotal)
	case len(ro.Servers) > 0:
		ro.Rate = ro.Servers[0].Clock.P
	}
	// Holdover rate freeze: below DEGRADED the last trusted rate is
	// served (coasting on a live median of unfit servers would defeat
	// holdover); at or above it the live median becomes the new trusted
	// rate.
	if e.frozenActive() {
		ro.Rate = e.frozenRate
	} else {
		e.frozenRate = ro.Rate
	}
	e.pub.store(ro)
}

// Readout returns the most recently published combined snapshot. It is
// safe to call from any goroutine at any time, including concurrently
// with the writer: the returned value is immutable and never nil.
//
//repro:readpath
func (e *Ensemble) Readout() *Readout { return e.pub.Load() }

// pubSlabSize is how many publication slots one slab allocation hands
// out; see the identically named constant in internal/core. Carving
// slots from writer-owned blocks removes the two per-combine heap
// allocations (the Readout and its Servers slice) in exchange for a
// reader pinning at most one slab's worth of history (~pubSlabSize
// combines) while it holds an old snapshot.
const pubSlabSize = 256

// ensemblePub is the atomic publication slot plus the writer-owned
// slabs publication slots are carved from. nextSlot is called only by
// the combine path (under the ensemble's writer mutex); Load is
// wait-free from any goroutine.
type ensemblePub struct {
	p       atomic.Pointer[Readout]
	roSlab  []Readout
	srvSlab []ServerReadout
}

// Load returns the latest published snapshot.
//
//repro:readpath
func (ep *ensemblePub) Load() *Readout { return ep.p.Load() }

// nextSlot returns a zeroed, never-reused Readout with a Servers slice
// of length nSrv, carved from the slabs. The caller fills it and then
// publishes it with store.
//
//repro:builder
func (ep *ensemblePub) nextSlot(nSrv int) *Readout {
	if len(ep.roSlab) == 0 {
		//repro:alloc-ok amortized slab refill: one allocation per pubSlabSize combines (PERF.md)
		ep.roSlab = make([]Readout, pubSlabSize)
	}
	ro := &ep.roSlab[0]
	ep.roSlab = ep.roSlab[1:]
	if len(ep.srvSlab) < nSrv {
		//repro:alloc-ok amortized slab refill: one allocation per pubSlabSize combines (PERF.md)
		ep.srvSlab = make([]ServerReadout, pubSlabSize*nSrv)
	}
	// Full-capacity reslice so appends by a confused caller could never
	// bleed into the next combine's slots.
	ro.Servers = ep.srvSlab[:nSrv:nSrv]
	ep.srvSlab = ep.srvSlab[nSrv:]
	return ro
}

// store publishes a slot obtained from nextSlot.
func (ep *ensemblePub) store(ro *Readout) { ep.p.Store(ro) }
