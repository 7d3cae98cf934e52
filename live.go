package tscclock

import (
	"context"
	"fmt"
	"net"
	"time"

	"repro/internal/ntp"
)

// LiveOptions configures a live UDP synchronizer.
type LiveOptions struct {
	// Server is the NTP server address ("host:123").
	Server string
	// Poll is the polling interval. Default: 64 s. Be conservative:
	// public stratum-1 servers must not be overloaded.
	Poll time.Duration
	// Timeout bounds each exchange. Default: 4 s.
	Timeout time.Duration
	// Clock carries the calibration options. NominalPeriod defaults to
	// 1 ns (the monotonic counter's resolution); PollPeriod is derived
	// from Poll.
	Clock Options
	// NoKernelStamps disables kernel SO_TIMESTAMPING on the client
	// socket. By default (Linux, UDP) every exchange stamps Ta from the
	// kernel's error-queue transmit stamp and Tf from the RX cmsg
	// arrival stamp, falling back per-stamp to userspace readings —
	// strictly less host noise, counted in StampStats. Set this to keep
	// the historical pure-userspace stamping.
	NoKernelStamps bool
}

// Live runs the full TSC-NTP pipeline against a real NTP server over
// UDP: raw monotonic counter stamps on the host side, standard NTP
// packets on the wire, and the robust calibration algorithms in between.
//
// Live is deliberately not a one-upstream MultiLive. Its ServerSample
// follows the single engine's readout, with no degradation ladder:
// unsynced until calibrated, then root dispersion r̂/2 + 15 PPM·age,
// where MultiLive advertises the ensemble's voting health and its
// holdover drift bound. Live also offers RunAdaptive (poller-driven
// intervals, which MultiLive's staggered per-server schedules do not
// use), and it keeps the one socket it dialed, where MultiLive re-dials
// an upstream after repeated failures.
type Live struct {
	clock   *Clock
	client  *ntp.Client
	conn    net.Conn
	counter ntp.Counter
	period  float64 // the counter's nominal period (s/cycle)
	poll    time.Duration
}

// DialLive connects to the server and prepares the synchronizer. Call
// Step for single exchanges or Run for a polling loop.
func DialLive(opts LiveOptions) (*Live, error) {
	if opts.Server == "" {
		return nil, fmt.Errorf("tscclock: LiveOptions.Server is required")
	}
	poll := opts.Poll
	if poll <= 0 {
		poll = 64 * time.Second
	}
	counter, period := ntp.MonotonicCounter()
	clockOpts := opts.Clock
	if clockOpts.NominalPeriod == 0 {
		clockOpts.NominalPeriod = period
	}
	if clockOpts.PollPeriod == 0 {
		clockOpts.PollPeriod = poll.Seconds()
	}
	clock, err := New(clockOpts)
	if err != nil {
		return nil, err
	}
	conn, err := net.Dial("udp", opts.Server)
	if err != nil {
		return nil, fmt.Errorf("tscclock: dial %s: %w", opts.Server, err)
	}
	client := ntp.NewClient(conn, counter, opts.Timeout)
	if !opts.NoKernelStamps {
		client.EnableKernelStamps(clockOpts.NominalPeriod)
	}
	return &Live{
		clock:   clock,
		client:  client,
		conn:    conn,
		counter: counter,
		period:  clockOpts.NominalPeriod,
		poll:    poll,
	}, nil
}

// Clock returns the underlying calibrated clock.
func (l *Live) Clock() *Clock { return l.clock }

// Counter reads the raw host counter, for timestamping events that will
// later be converted with the calibrated clock.
func (l *Live) Counter() uint64 { return l.counter() }

// StampStats returns the client's kernel-stamp coverage and measured
// kernel-vs-userspace stamp deltas (all zeros when kernel stamping is
// off or unsupported).
func (l *Live) StampStats() ntp.ClientStampStats { return l.client.StampStats() }

// Step performs one NTP exchange and feeds it to the clock, including
// the server's identity for server-change detection. A failed exchange
// (timeout, loss) returns an error and feeds nothing — exactly the
// lost-packet behaviour the algorithms are designed for.
func (l *Live) Step() (Status, error) {
	raw, err := l.client.Exchange()
	if err != nil {
		return Status{}, err
	}
	return l.clock.ProcessNTPExchangeFrom(raw.Ta, raw.Tf, raw.Tb, raw.Te, raw.RefID, raw.Stratum)
}

// Run polls until the context is cancelled. Exchange failures are
// tolerated silently (the clock coasts on its calibration); persistent
// protocol errors are only surfaced through OnStep if installed.
func (l *Live) Run(ctx context.Context, onStep func(Status, error)) error {
	ticker := time.NewTicker(l.poll)
	defer ticker.Stop()
	for {
		st, err := l.Step()
		if onStep != nil {
			onStep(st, err)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ticker.C:
		}
	}
}

// RunAdaptive polls with intervals recommended by the Poller: fast
// during warmup and after disturbances, backing off to the poller's
// maximum once calibrated (the paper's controlled-emission extension).
func (l *Live) RunAdaptive(ctx context.Context, p *Poller, onStep func(Status, error)) error {
	if p == nil {
		p = NewPoller(0, l.poll)
	}
	timer := time.NewTimer(0)
	defer timer.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-timer.C:
		}
		st, err := l.Step()
		if onStep != nil {
			onStep(st, err)
		}
		timer.Reset(p.Observe(st, err))
	}
}

// Now reads the absolute clock as a wall-clock time, resolving the NTP
// era with the system clock as pivot. Lock-free, like all clock reads.
//
//repro:readpath
func (l *Live) Now() time.Time {
	sec := l.clock.AbsoluteTime(l.counter())
	return ntp.Time64FromSeconds(sec).Time(time.Now())
}

// ServerSample returns an ntp.SampleClock that stamps downstream NTP
// replies from this synchronized clock: the single-upstream relay
// adapter. Each sample is a pure function of the latest published
// readout — safe to call from every serving shard concurrently, with
// no lock shared with the polling loop. While the clock is still in
// warmup — or the upstream itself advertises an unsynchronized chain
// (stratum ≥ 15) — the sample advertises LeapNotSynced/stratum 16 so
// clients reject it; once calibrated it advertises the upstream
// server's stratum + 1, the minimum path RTT as root delay, and a
// dispersion grown from the readout's staleness at the standard
// 15 PPM rate.
//
//repro:readpath
func (l *Live) ServerSample(refID uint32) ntp.SampleClock {
	precision := ntp.PrecisionFromPeriod(l.period)
	return func() ntp.ClockSample {
		T := l.counter()
		r := l.clock.Readout()
		s := ntp.ClockSample{
			Time:      ntp.Time64FromSeconds(r.AbsoluteTime(T)),
			RefID:     refID,
			Precision: precision,
		}
		// Unsynced also when the upstream itself advertises stratum
		// ≥ 15: a calibrated clock hanging off an unsynchronized chain
		// must propagate that condition, not mask it as stratum 2.
		upstreamDead := r.IdentKnown && r.Ident.Stratum >= ntp.StratumUnsynced-1
		if !r.HaveTheta || r.Warmup || upstreamDead {
			s.Leap = ntp.LeapNotSynced
			s.Stratum = ntp.StratumUnsynced
			return s
		}
		s.Leap = ntp.LeapNone
		s.Stratum = 2 // identity unknown (simulated feeds): assume stratum-1 upstream
		if r.IdentKnown && r.Ident.Stratum > 0 {
			s.Stratum = r.Ident.Stratum + 1
		}
		s.RootDelay = ntp.Short32FromSeconds(r.RTTHat)
		s.RootDisp = ntp.Short32FromSeconds(r.RTTHat/2 + ntp.DispersionRate*r.Age(T))
		return s
	}
}

// Close releases the UDP socket.
func (l *Live) Close() error { return l.conn.Close() }
