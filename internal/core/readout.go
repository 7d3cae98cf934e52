package core

// The published readout: the lock-free read side of the engine.
//
// The clock is read far more often than it is written — one Process
// call per poll period (tens of seconds on the live path) against
// arbitrarily many AbsoluteTime/DifferenceSpan reads per second — so
// the read state is split out into a small immutable value that
// Process publishes through an atomic pointer after every packet.
// Readers load the pointer once and evaluate pure functions of the
// snapshot; they never touch the engine's mutable filtering state, so
// reads are safe under unbounded concurrency, never block the writer,
// and never observe a half-updated clock (a torn p̂/K̂ pair would step
// the absolute clock; the snapshot swap is all-or-nothing).

import "sync/atomic"

// Readout is an immutable snapshot of everything a clock read needs:
// the affine counter→time parameters (p̂, K̂, the θ̂ anchor), the local
// rate used for linear offset prediction, and the quality/status
// fields a consumer needs to judge the reading. Values are plain —
// copying a Readout is safe and cheap, and all methods are pure
// functions, so a Readout obtained once keeps answering consistently
// even while the engine processes further packets.
//
//repro:immutable
type Readout struct {
	// P and K define the uncorrected clock C(T) = P·T + K (seconds on
	// the server timescale at counter value T).
	P float64
	K float64

	// Theta is the offset estimate θ̂ made at counter value ThetaTf;
	// HaveTheta reports whether any estimate exists yet (it does from
	// the first processed packet onward).
	Theta     float64
	ThetaTf   uint64
	HaveTheta bool

	// PLocal is the quasi-local rate estimate p̂_l and PLocalValid its
	// freshness flag; UseLocalRate mirrors the engine configuration.
	// Offset reads apply linear prediction only when all three align,
	// exactly as the engine does.
	PLocal       float64
	PLocalValid  bool
	UseLocalRate bool

	// Quality and status.
	PQuality float64 // estimated relative error bound of P
	RTTHat   float64 // current minimum-RTT estimate r̂ (s)
	Count    int     // packets processed when this readout was published
	Warmup   bool    // the engine was still in warmup

	// LastTf is the host counter value of the most recent processed
	// exchange: the staleness anchor. Age converts it to seconds.
	LastTf uint64

	// Ident is the last observed server identity (zero when none was
	// ever observed; see IdentKnown).
	Ident      Identity
	IdentKnown bool
}

// ClockAt evaluates the uncorrected clock C(T) = P·T + K.
//
//repro:readpath
func (r *Readout) ClockAt(T uint64) float64 { return float64(T)*r.P + r.K }

// ThetaAt extrapolates the offset estimate to counter value T, using
// the local rate linear prediction when it is valid (equation 23).
//
//repro:readpath
func (r *Readout) ThetaAt(T uint64) float64 {
	if !r.HaveTheta {
		return 0
	}
	if r.UseLocalRate && r.PLocalValid && r.P > 0 {
		gl := r.PLocal/r.P - 1
		return r.Theta - gl*spanSeconds(r.ThetaTf, T, r.P)
	}
	return r.Theta
}

// AbsoluteTime reads the absolute (offset-corrected) clock
// Ca(T) = C(T) − θ̂(T) at counter value T (equation 7).
//
//repro:readpath
func (r *Readout) AbsoluteTime(T uint64) float64 {
	return r.ClockAt(T) - r.ThetaAt(T)
}

// DifferenceSpan measures the interval between two counter readings
// with the difference clock Cd (equation 6): smooth, driven only by P.
//
//repro:readpath
func (r *Readout) DifferenceSpan(T1, T2 uint64) float64 {
	return spanSeconds(T1, T2, r.P)
}

// Age returns the seconds elapsed (per the difference clock) since the
// exchange this readout was published from — the staleness bound a
// consumer should weigh a reading by. Before the first exchange it
// measures from the counter origin.
//
//repro:readpath
func (r *Readout) Age(T uint64) float64 { return spanSeconds(r.LastTf, T, r.P) }

// readout builds the current read snapshot from the engine state.
func (s *Sync) readout() Readout {
	var lastTf uint64
	if s.hist.Len() > 0 {
		lastTf = s.hist.Back().tf
	}
	return Readout{
		P:            s.p,
		K:            s.c,
		Theta:        s.theta,
		ThetaTf:      s.thetaTf,
		HaveTheta:    s.haveTh,
		PLocal:       s.pl,
		PLocalValid:  s.plValid,
		UseLocalRate: s.cfg.UseLocalRate,
		PQuality:     s.pQual,
		RTTHat:       s.rHat,
		Count:        s.count,
		Warmup:       s.count <= s.nWarm,
		LastTf:       lastTf,
		Ident:        s.ident,
		IdentKnown:   s.identKnown,
	}
}

// publish makes the current engine state visible to lock-free readers.
// Called after every mutation (Process, ObserveIdentity re-base).
func (s *Sync) publish() {
	s.pub.Store(s.readout())
}

// Readout returns the most recently published read snapshot. It is
// safe to call from any goroutine at any time, including concurrently
// with Process: the returned value is immutable. It is never nil — a
// pre-first-packet readout (nominal rate, no offset) is published at
// construction.
//
//repro:readpath
func (s *Sync) Readout() *Readout { return s.pub.Load() }

// pubSlabSize is how many publication slots one slab allocation hands
// out. Each published readout must live in its own never-reused slot
// (readers may hold the pointer indefinitely), so publication cannot be
// allocation-free — but carving slots out of a block cuts the write
// path from one heap allocation per packet to one per pubSlabSize
// packets. The trade: a reader pinning one old readout keeps its whole
// slab (≈ pubSlabSize·sizeof(Readout) ≈ 34 KiB) reachable.
const pubSlabSize = 256

// pubState is the atomic publication slot plus the writer-owned slab
// the slots are carved from, split into its own type solely so sync.go
// stays focused on the algorithms. Store is called only by the writer
// (under the engine's external serialization); Load is wait-free from
// any goroutine.
type pubState struct {
	p    atomic.Pointer[Readout]
	slab []Readout
}

// Load returns the latest published snapshot.
//
//repro:readpath
func (ps *pubState) Load() *Readout { return ps.p.Load() }

// Store copies r into a fresh never-reused slot and publishes it.
//
//repro:builder
func (ps *pubState) Store(r Readout) {
	if len(ps.slab) == 0 {
		//repro:alloc-ok amortized slab refill: one allocation per pubSlabSize publishes, the documented publication cost (PERF.md)
		ps.slab = make([]Readout, pubSlabSize)
	}
	slot := &ps.slab[0]
	ps.slab = ps.slab[1:]
	*slot = r
	ps.p.Store(slot)
}
