package main

import (
	"math/rand/v2"
	"time"
)

// class is the kind of one generated datagram.
type class uint8

const (
	cHonest    class = iota // client request from the honest population
	cAbusive                // client request from the abusive /24
	cShort                  // 20-byte datagram, below the NTP header size
	cVersion0               // 48 bytes with version 0
	cNonClient              // 48 bytes in server mode
)

// load is an open-loop offered traffic mix, in datagrams per second.
// Honest and invalid datagrams arrive one by one; the abusive /24 sends
// trains of burst datagrams back to back, the way flood tools do.
type load struct {
	honest  float64
	abusive float64
	burst   int     // datagrams per abusive train (≥ 1 when abusive > 0)
	invalid float64 // split evenly over cShort, cVersion0, cNonClient
}

// total is the offered datagram rate.
func (l load) total() float64 { return l.honest + l.abusive + l.invalid }

// events is the rate of arrival events: datagrams, counting each
// abusive train once.
func (l load) events() float64 {
	ev := l.honest + l.invalid
	if l.abusive > 0 {
		ev += l.abusive / float64(l.burst)
	}
	return ev
}

// Honest clients come from honestPrefixes /24s of 127.1.0.0/16 with
// honestHosts hosts each; the abusive /24 is 127.200.0.0/24; invalid
// datagrams come from invalidPrefixes /24s of 127.201.0.0/16, each
// well under the rate budget so they reach the protocol drop paths.
const (
	honestPrefixes  = 64
	honestHosts     = 16
	abusiveHosts    = 250
	invalidPrefixes = 16
	invalidHosts    = 16
)

// arrival is one scheduled datagram.
type arrival struct {
	due int64 // ns since the schedule's start
	cls class
	src [4]byte
}

// schedule draws Poisson arrivals of a load from a seed: the same seed
// gives the same datagrams, classes, sources and due times, whatever
// happens to the run.
type schedule struct {
	rng   *rand.Rand
	ld    load
	t     float64 // ns
	train int     // datagrams left in the current abusive train
}

func newSchedule(ld load, seed uint64) *schedule {
	return &schedule{rng: rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15)), ld: ld}
}

func (s *schedule) next() arrival {
	abusive := func() arrival {
		s.train--
		return arrival{due: int64(s.t), cls: cAbusive, src: [4]byte{127, 200, 0, byte(1 + s.rng.IntN(abusiveHosts))}}
	}
	if s.train > 0 {
		return abusive()
	}
	rate := s.ld.events()
	s.t += s.rng.ExpFloat64() / rate * 1e9
	a := arrival{due: int64(s.t)}
	u := s.rng.Float64() * rate
	switch {
	case u < s.ld.honest:
		a.cls = cHonest
		a.src = [4]byte{127, 1, byte(s.rng.IntN(honestPrefixes)), byte(1 + s.rng.IntN(honestHosts))}
	case u < s.ld.honest+s.ld.abusive/float64(max(s.ld.burst, 1)):
		s.train = max(s.ld.burst, 1)
		return abusive()
	default:
		a.cls = cShort + class(s.rng.IntN(3))
		a.src = [4]byte{127, 201, byte(s.rng.IntN(invalidPrefixes)), byte(1 + s.rng.IntN(invalidHosts))}
	}
	return a
}

// pacer sends a schedule open-loop: every datagram goes out as soon as
// it is due, whether or not earlier ones were answered, and all those
// due at one wake-up leave in one batch. Lateness — send time minus
// due time — is accounted per datagram, so a stalled generator shows
// instead of silently thinning the load.
type pacer struct {
	now      func() int64   // ns since the schedule's start
	sleep    func(ns int64) // block for about ns
	send     func(b []arrival, sentAt int64)
	maxBatch int
}

// run paces s until the first arrival due at or after end, and returns
// the lateness of every datagram sent, in ns, in schedule order.
func (p *pacer) run(s *schedule, end int64, late []int64) []int64 {
	batch := make([]arrival, 0, p.maxBatch)
	next := s.next()
	for next.due < end {
		now := p.now()
		if next.due > now {
			p.sleep(next.due - now)
			continue
		}
		for next.due <= now && next.due < end && len(batch) < p.maxBatch {
			batch = append(batch, next)
			next = s.next()
		}
		sentAt := p.now()
		p.send(batch, sentAt)
		for _, a := range batch {
			late = append(late, sentAt-a.due)
		}
		batch = batch[:0]
	}
	return late
}

// An honest client that has heard nothing resends its request, as NTP
// clients do: attempt k goes out retryAt[k] after the request was due,
// if no attempt has been answered by then (attempt 0 is the request
// itself). The request fails only if no attempt is answered within
// replyDeadline of its due time: one datagram lost in a socket queue
// that overflowed while the host stalled is what a UDP client meets and
// recovers from, not a request the relay failed.
var retryAt = [...]time.Duration{0, 250 * time.Millisecond, 750 * time.Millisecond, 1750 * time.Millisecond}

const replyDeadline = 2750 * time.Millisecond

// retry is one resend: attempt of honest request seq.
type retry struct {
	seq     int
	attempt int
}

// retrier finds the honest requests due for another attempt. Requests
// are numbered in the order they were due, so each attempt walks them
// with a cursor of its own.
type retrier struct {
	due      func(seq int) int64 // ns since the schedule's start
	answered func(seq int) bool
	next     [len(retryAt)]int // the request each attempt looks at next; [0] unused
}

// collect appends to out, up to its capacity, the resends due at now
// among the first n requests, and moves past every request it looked
// at.
func (r *retrier) collect(now int64, n int, out []retry) []retry {
	for k := 1; k < len(retryAt); k++ {
		for r.next[k] < n && r.due(r.next[k])+int64(retryAt[k]) <= now && len(out) < cap(out) {
			if !r.answered(r.next[k]) {
				out = append(out, retry{r.next[k], k})
			}
			r.next[k]++
		}
	}
	return out
}

// done reports whether the last attempt of each of the first n
// requests is behind it.
func (r *retrier) done(n int) bool { return r.next[len(retryAt)-1] >= n }
