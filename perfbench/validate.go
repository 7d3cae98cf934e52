package main

import (
	"encoding/binary"
	"fmt"

	"repro/internal/ntp"
)

// Cookies: every client request carries a cookie in its Transmit field
// and the relay must echo it in Origin. The top 16 bits tag this
// benchmark, the next 8 the request class, the next 2 the attempt (an
// honest client's resends of one request, 0 for the first send) and the
// low 38 the request's sequence number within its class.
const (
	cookieTag    = 0xBE7C
	cookieShift  = 48
	classShift   = 40
	attemptShift = 38
	seqMask      = 1<<attemptShift - 1
)

func makeCookie(cls class, seq uint64) uint64 {
	return cookieTag<<cookieShift | uint64(cls)<<classShift | seq&seqMask
}

// retryCookie is the cookie of attempt of honest request seq.
func retryCookie(seq uint64, attempt int) uint64 {
	return makeCookie(cHonest, seq) | uint64(attempt&3)<<attemptShift
}

// splitCookie returns the class, sequence number and attempt of a
// cookie, or ok false when it is not one of ours.
func splitCookie(c uint64) (cls class, seq uint64, attempt int, ok bool) {
	if c>>cookieShift != cookieTag {
		return 0, 0, 0, false
	}
	cls = class(c >> classShift & 0xff)
	attempt = int(c >> attemptShift & 3)
	if cls != cHonest && (cls != cAbusive || attempt != 0) {
		return 0, 0, 0, false
	}
	return cls, c & seqMask, attempt, true
}

// datagram fills b with the datagram of class cls and returns its
// length. Client requests are NTPv4 client mode with the cookie in
// Transmit.
func datagram(b *[ntp.PacketSize]byte, cls class, cookie uint64) int {
	*b = [ntp.PacketSize]byte{}
	switch cls {
	case cShort:
		b[0] = 4<<3 | byte(ntp.ModeClient)
		return 20
	case cVersion0:
		b[0] = byte(ntp.ModeClient)
		return ntp.PacketSize
	case cNonClient:
		b[0] = 4<<3 | byte(ntp.ModeServer)
		return ntp.PacketSize
	}
	b[0] = 4<<3 | byte(ntp.ModeClient)
	binary.BigEndian.PutUint64(b[40:48], cookie)
	return ntp.PacketSize
}

// reply is the part of a relay reply the benchmark uses.
type reply struct {
	origin  uint64
	receive ntp.Time64
	xmit    ntp.Time64
}

// checkReply validates one reply to a client request: server mode, a
// version the relay may answer (1–4), Receive ≤ Transmit, and — since
// every measured reply comes after set-up — stratum 2 with a leap
// indicator other than 3 (unsynchronized). The cookie match is checked
// by the caller, which knows which requests are outstanding.
func checkReply(b []byte) (reply, error) {
	var p ntp.Packet
	if len(b) < ntp.PacketSize {
		return reply{}, fmt.Errorf("reply of %d bytes", len(b))
	}
	if err := p.Unmarshal(b); err != nil {
		return reply{}, fmt.Errorf("unparseable reply: %v", err)
	}
	switch {
	case p.Mode != ntp.ModeServer:
		return reply{}, fmt.Errorf("reply mode %d, want server", p.Mode)
	case p.Version < 1 || p.Version > 4:
		return reply{}, fmt.Errorf("reply version %d", p.Version)
	case p.Receive > p.Transmit:
		return reply{}, fmt.Errorf("Receive after Transmit")
	case p.Stratum != 2:
		return reply{}, fmt.Errorf("stratum %d, want 2", p.Stratum)
	case p.Leap == ntp.LeapNotSynced:
		return reply{}, fmt.Errorf("leap indicator unsynchronized")
	}
	return reply{origin: uint64(p.Origin), receive: p.Receive, xmit: p.Transmit}, nil
}

// unixNs converts an NTP timestamp to ns since the Unix epoch, exactly
// (no float rounding), for the era around the pivot year 2036.
func unixNs(t ntp.Time64) int64 {
	const ntpToUnix = 2208988800
	sec := int64(uint64(t) >> 32)
	if sec < ntpToUnix {
		sec += 1 << 32 // era 1
	}
	frac := (uint64(t) & 0xffffffff) * 1e9 >> 32
	return (sec-ntpToUnix)*1e9 + int64(frac)
}

// accounting is a relay run's request bookkeeping, warm-up included:
// what the generator sent and got back, the relay's refusal and drop
// counters, and the receive drops of the relay's and the generator's
// socket queues.
type accounting struct {
	abusiveSent, abusiveReplied int
	invalidSent                 int
	honestUnanswered            int
	rateLimited, dropped        uint64 // the relay's Stats
	srvDrops, cliDrops          uint64
}

// check returns the honest requests the limiter provably refused and
// every way the books do not balance. The limiter refused each abusive
// request that got no reply, unless a socket queue dropped it first;
// whatever it refused beyond those was honest. With socket drops that
// count is only a lower bound, so the honest requests left unanswered
// must also be no more than the sockets dropped: any beyond that were
// refused or lost inside the relay.
func (a accounting) check() (refusedHonest float64, failures []string) {
	refusedHonest = max(0, float64(a.rateLimited)-float64(a.abusiveSent-a.abusiveReplied))
	if refusedHonest > 0 {
		failures = append(failures, fmt.Sprintf("%.0f honest requests refused by the limiter", refusedHonest))
	}
	sockDrops := a.srvDrops + a.cliDrops
	if sockDrops == 0 && a.dropped != uint64(a.invalidSent) {
		failures = append(failures, fmt.Sprintf("relay dropped %d invalid datagrams, %d were sent", a.dropped, a.invalidSent))
	}
	if uint64(a.honestUnanswered) > sockDrops {
		failures = append(failures, fmt.Sprintf("%d honest requests unanswered, more than the %d datagrams the sockets dropped",
			a.honestUnanswered, sockDrops))
	}
	return refusedHonest, failures
}
