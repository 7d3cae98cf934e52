package main

import (
	"math"
	"testing"
)

func TestScheduleSeeded(t *testing.T) {
	a, b, c := newSchedule(floodLoad, 7), newSchedule(floodLoad, 7), newSchedule(floodLoad, 8)
	same := true
	for i := 0; i < 1000; i++ {
		x, y, z := a.next(), b.next(), c.next()
		if x != y {
			t.Fatalf("arrival %d differs between two schedules of one seed: %+v vs %+v", i, x, y)
		}
		same = same && x == z
	}
	if same {
		t.Error("seeds 7 and 8 gave the same schedule")
	}
}

func TestSchedulePoisson(t *testing.T) {
	s := newSchedule(floodLoad, 1)
	const n = 400_000
	var counts [cNonClient + 1]int
	var last, prev int64
	trains, inTrain := 0, 0
	var gaps []float64
	for i := 0; i < n; i++ {
		a := s.next()
		if a.due < prev {
			t.Fatalf("arrival %d due %d before its predecessor %d", i, a.due, prev)
		}
		counts[a.cls]++
		switch {
		case a.cls == cAbusive && inTrain > 0:
			if a.due != prev {
				t.Fatalf("abusive train split in time")
			}
			inTrain--
		case a.cls == cAbusive:
			trains++
			inTrain = floodLoad.burst - 1
		default:
			if inTrain != 0 {
				t.Fatalf("train cut short by %v", a.cls)
			}
		}
		if a.cls == cHonest {
			if a.src[0] != 127 || a.src[1] != 1 || a.src[2] >= honestPrefixes || a.src[3] < 1 || a.src[3] > honestHosts {
				t.Fatalf("honest source %v outside the population", a.src)
			}
		}
		if inTrain == floodLoad.burst-1 || a.cls != cAbusive {
			gaps = append(gaps, float64(a.due-prev))
		}
		prev, last = a.due, a.due
	}
	secs := float64(last) / 1e9
	for _, c := range []struct {
		name string
		got  float64
		want float64
	}{
		{"honest", float64(counts[cHonest]) / secs, floodLoad.honest},
		{"abusive", float64(counts[cAbusive]) / secs, floodLoad.abusive},
		{"invalid", float64(counts[cShort]+counts[cVersion0]+counts[cNonClient]) / secs, floodLoad.invalid},
	} {
		if math.Abs(c.got/c.want-1) > 0.02 {
			t.Errorf("%s rate %.0f/s, want %.0f/s ±2%%", c.name, c.got, c.want)
		}
	}
	// Exponential gaps between arrival events: the coefficient of
	// variation is 1.
	var sum, sq float64
	for _, g := range gaps {
		sum += g
		sq += g * g
	}
	mean := sum / float64(len(gaps))
	cv := math.Sqrt(sq/float64(len(gaps))-mean*mean) / mean
	if math.Abs(mean/(1e9/floodLoad.events())-1) > 0.02 || math.Abs(cv-1) > 0.02 {
		t.Errorf("event gaps: mean %.0f ns (want %.0f), cv %.3f (want 1)", mean, 1e9/floodLoad.events(), cv)
	}
}

// fakeClock is a pacer clock whose sleeps overshoot by a fixed amount
// and whose sends take a fixed time.
type fakeClock struct {
	t                  int64
	overshoot, sendDur int64
}

func TestPacerLateness(t *testing.T) {
	for _, c := range []struct {
		name               string
		overshoot, sendDur int64
	}{
		{"exact", 0, 0},
		{"overshoot", 7_000, 0},
		{"slow sends", 0, 30_000},
	} {
		t.Run(c.name, func(t *testing.T) {
			fc := &fakeClock{overshoot: c.overshoot, sendDur: c.sendDur}
			var sent []arrival
			var sentAt []int64
			p := &pacer{
				now:      func() int64 { return fc.t },
				sleep:    func(ns int64) { fc.t += ns + fc.overshoot },
				maxBatch: 8,
				send: func(b []arrival, at int64) {
					if len(b) == 0 || len(b) > 8 {
						t.Fatalf("batch of %d", len(b))
					}
					for _, a := range b {
						if a.due > at {
							t.Fatalf("datagram due %d sent early at %d", a.due, at)
						}
						sent = append(sent, a)
						sentAt = append(sentAt, at)
					}
					fc.t += fc.sendDur
				},
			}
			const end = int64(50e6) // 50 ms of flood
			late := p.run(newSchedule(floodLoad, 3), end, nil)
			ref := newSchedule(floodLoad, 3)
			for i := range sent {
				if want := ref.next(); sent[i] != want {
					t.Fatalf("datagram %d: sent %+v, schedule has %+v", i, sent[i], want)
				}
			}
			if next := ref.next(); next.due < end {
				t.Fatalf("datagram due %d before the end was never sent", next.due)
			}
			if len(late) != len(sent) {
				t.Fatalf("%d lateness records for %d datagrams", len(late), len(sent))
			}
			var worst int64
			for i, l := range late {
				if l != sentAt[i]-sent[i].due || l < 0 {
					t.Fatalf("datagram %d: lateness %d, want %d", i, l, sentAt[i]-sent[i].due)
				}
				worst = max(worst, l)
			}
			switch {
			case c.overshoot == 0 && c.sendDur == 0 && worst > 0:
				t.Errorf("exact clock: worst lateness %d ns, want 0", worst)
			case c.overshoot > 0 && worst < c.overshoot/2:
				t.Errorf("sleep overshoot %d ns not visible: worst lateness %d", c.overshoot, worst)
			case c.sendDur > 0 && worst < c.sendDur:
				t.Errorf("slow sends not visible: worst lateness %d", worst)
			}
		})
	}
}

// TestRetrier resends exactly the unanswered requests, each attempt at
// its offset from the due time, and finishes with the last attempt of
// the last request.
func TestRetrier(t *testing.T) {
	const n = 200
	due := func(seq int) int64 { return int64(seq) * 10e6 } // one request every 10 ms
	// Request seq loses its first seq%5 attempts; the next one is
	// answered 100 ms after it was sent. Requests with seq%5 == 4 lose
	// every attempt.
	lost := func(seq int) int { return seq % 5 }
	var now int64
	sentAt := map[retry]int64{}
	rt := &retrier{
		due: due,
		answered: func(seq int) bool {
			k := lost(seq)
			at, sent := sentAt[retry{seq, k}]
			if k == 0 {
				at, sent = due(seq), true
			}
			return sent && at+100e6 <= now
		},
	}
	out := make([]retry, 0, 3) // small, so collect resumes where it stopped
	for now = 0; !rt.done(n); now += 1e6 {
		out = rt.collect(now, n, out[:0])
		for _, r := range out {
			if _, dup := sentAt[r]; dup {
				t.Fatalf("attempt %d of request %d sent twice", r.attempt, r.seq)
			}
			sentAt[r] = now
		}
	}
	if last := due(n-1) + int64(retryAt[len(retryAt)-1]); now < last || now > last+10e6 {
		t.Errorf("done at %d ns, last attempt due at %d", now, last)
	}
	for seq := 0; seq < n; seq++ {
		for k := 1; k < len(retryAt); k++ {
			at, sent := sentAt[retry{seq, k}]
			if want := k <= lost(seq); sent != want {
				t.Fatalf("request %d (loses %d attempts): attempt %d sent %v", seq, lost(seq), k, sent)
			}
			if at0 := due(seq) + int64(retryAt[k]); sent && (at < at0 || at > at0+5e6) {
				t.Fatalf("request %d attempt %d sent at %d, due %d", seq, k, at, at0)
			}
		}
	}
}
