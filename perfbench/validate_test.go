package main

import (
	"strings"
	"testing"
	"time"

	"repro/internal/ntp"
)

// goodReply is a valid relay reply to the honest request with cookie c.
func goodReply(c uint64) ntp.Packet {
	now := ntp.Time64FromTime(time.Unix(1_800_000_000, 0))
	return ntp.Packet{
		Leap: ntp.LeapNone, Version: 4, Mode: ntp.ModeServer, Stratum: 2,
		Origin: ntp.Time64(c), Receive: now, Transmit: now.Add(5 * time.Microsecond),
	}
}

func TestCheckReply(t *testing.T) {
	cookie := makeCookie(cHonest, 42)
	for _, c := range []struct {
		name   string
		mutate func(p *ntp.Packet, b []byte) []byte
		want   string // substring of the error; "" means valid
	}{
		{"valid", func(p *ntp.Packet, b []byte) []byte { return b }, ""},
		{"short", func(p *ntp.Packet, b []byte) []byte { return b[:47] }, "47 bytes"},
		{"client mode", func(p *ntp.Packet, b []byte) []byte { b[0] = b[0]&^7 | byte(ntp.ModeClient); return b }, "mode 3"},
		{"version 0", func(p *ntp.Packet, b []byte) []byte { b[0] &^= 7 << 3; return b }, "unparseable"},
		{"version 5", func(p *ntp.Packet, b []byte) []byte { b[0] = b[0]&^(7<<3) | 5<<3; return b }, "unparseable"},
		{"receive after transmit", func(p *ntp.Packet, b []byte) []byte {
			p.Receive, p.Transmit = p.Transmit, p.Receive
			w := p.Marshal()
			return w[:]
		}, "Receive after Transmit"},
		{"stratum 16", func(p *ntp.Packet, b []byte) []byte { p.Stratum = 16; w := p.Marshal(); return w[:] }, "stratum 16"},
		{"stratum 1", func(p *ntp.Packet, b []byte) []byte { p.Stratum = 1; w := p.Marshal(); return w[:] }, "stratum 1"},
		{"unsynchronized", func(p *ntp.Packet, b []byte) []byte { p.Leap = ntp.LeapNotSynced; w := p.Marshal(); return w[:] }, "unsynchronized"},
	} {
		t.Run(c.name, func(t *testing.T) {
			p := goodReply(cookie)
			w := p.Marshal()
			rp, err := checkReply(c.mutate(&p, w[:]))
			switch {
			case c.want == "" && err != nil:
				t.Fatalf("valid reply rejected: %v", err)
			case c.want == "" && rp.origin != cookie:
				t.Fatalf("origin %#x, want %#x", rp.origin, cookie)
			case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
				t.Fatalf("error %v, want one mentioning %q", err, c.want)
			}
		})
	}
}

func TestCookies(t *testing.T) {
	for _, cls := range []class{cHonest, cAbusive} {
		for _, seq := range []uint64{0, 1, 1<<38 - 1} {
			gc, gs, ga, ok := splitCookie(makeCookie(cls, seq))
			if !ok || gc != cls || gs != seq || ga != 0 {
				t.Errorf("cookie (%d, %d) came back as (%d, %d, %d, %v)", cls, seq, gc, gs, ga, ok)
			}
		}
	}
	for attempt := range len(retryAt) {
		for _, seq := range []uint64{0, 1, 1<<38 - 1} {
			gc, gs, ga, ok := splitCookie(retryCookie(seq, attempt))
			if !ok || gc != cHonest || gs != seq || ga != attempt {
				t.Errorf("retry cookie (%d, %d) came back as (%d, %d, %d, %v)", seq, attempt, gc, gs, ga, ok)
			}
		}
	}
	for _, c := range []uint64{0, 0x1234, makeCookie(cShort, 1), makeCookie(cHonest, 1) ^ 1<<63,
		makeCookie(cAbusive, 1) | 1<<attemptShift} {
		if _, _, _, ok := splitCookie(c); ok {
			t.Errorf("foreign value %#x accepted as a cookie", c)
		}
	}
}

func TestUnixNs(t *testing.T) {
	at := time.Unix(1_800_000_000, 123_456_789)
	if got := unixNs(ntp.Time64FromTime(at)); got-at.UnixNano() > 1 || at.UnixNano()-got > 1 {
		t.Errorf("unixNs = %d, want %d ±1", got, at.UnixNano())
	}
}

func TestDatagrams(t *testing.T) {
	var b [ntp.PacketSize]byte
	for _, c := range []struct {
		cls  class
		n    int
		mode ntp.Mode
		ver  byte
	}{
		{cHonest, 48, ntp.ModeClient, 4}, {cAbusive, 48, ntp.ModeClient, 4},
		{cShort, 20, ntp.ModeClient, 4}, {cVersion0, 48, ntp.ModeClient, 0}, {cNonClient, 48, ntp.ModeServer, 4},
	} {
		n := datagram(&b, c.cls, 99)
		if n != c.n || ntp.Mode(b[0]&7) != c.mode || b[0]>>3&7 != c.ver {
			t.Errorf("class %d: %d bytes, mode %d, version %d", c.cls, n, b[0]&7, b[0]>>3&7)
		}
	}
}

func TestAccountingCheck(t *testing.T) {
	// A flood run whose books balance: 1000 abusive sent, 100 answered,
	// 900 refused; 50 invalid sent and dropped; no socket drops.
	ok := accounting{abusiveSent: 1000, abusiveReplied: 100, invalidSent: 50, rateLimited: 900, dropped: 50}
	for _, c := range []struct {
		name        string
		mutate      func(a *accounting)
		wantRefused float64
		want        []string // substrings of the failures, in order
	}{
		{"balanced", func(a *accounting) {}, 0, nil},
		{"paced, nothing refused", func(a *accounting) { *a = accounting{} }, 0, nil},
		{"honest refused", func(a *accounting) { a.rateLimited += 3; a.honestUnanswered = 3 }, 3,
			[]string{"3 honest requests refused", "3 honest requests unanswered"}},
		{"invalid miscounted", func(a *accounting) { a.dropped = 49 }, 0, []string{"dropped 49 invalid"}},
		{"invalid check skipped when a socket dropped", func(a *accounting) { a.dropped, a.srvDrops = 49, 1 }, 0, nil},
		// Abusive requests dropped by a socket queue look like limiter
		// refusals, hiding honest ones from the subtraction; the
		// unanswered count still catches them.
		{"honest refusals hidden by socket drops", func(a *accounting) {
			a.srvDrops, a.abusiveReplied = 5, 95
			a.honestUnanswered = 6
		}, 0, []string{"6 honest requests unanswered, more than the 5"}},
		{"honest losses explained by socket drops", func(a *accounting) {
			a.srvDrops, a.cliDrops, a.honestUnanswered = 4, 2, 6
		}, 0, nil},
		{"unanswered without drops", func(a *accounting) { a.honestUnanswered = 1 }, 0,
			[]string{"1 honest requests unanswered, more than the 0"}},
	} {
		a := ok
		c.mutate(&a)
		refused, fails := a.check()
		if refused != c.wantRefused {
			t.Errorf("%s: refused honest %v, want %v", c.name, refused, c.wantRefused)
		}
		if len(fails) != len(c.want) {
			t.Errorf("%s: failures %q, want %d", c.name, fails, len(c.want))
			continue
		}
		for i, w := range c.want {
			if !strings.Contains(fails[i], w) {
				t.Errorf("%s: failure %q, want it to contain %q", c.name, fails[i], w)
			}
		}
	}
}
