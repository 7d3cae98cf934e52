package main

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// genStartDelay is the margin between starting the generator and its
// first due time.
const genStartDelay = 100 * time.Millisecond

// genConfig is what the benchmark hands its generator.
type genConfig struct {
	target    *net.UDPAddr // the relay
	seed      uint64
	load      load
	startWall int64         // Unix ns of due time zero, roughly
	total     time.Duration // schedule length
	replyWait time.Duration // how long to keep receiving after the last send, resends included
}

// honestLog holds one honest request's stamps, all Unix ns, from its
// first send and from the first reply to any of its attempts.
type honestLog struct {
	due, sent  int64
	rx, read   int64 // kernel arrival stamp and read time of the reply
	recv, xmit int64 // the relay's Receive and Transmit stamps
	src        [4]byte
	answer     int8 // the attempt the reply answered
	// tries has bit k set once attempt k is sent and bit
	// answeredShift+k once it is answered: the sender sets the first,
	// the receiver the second.
	tries atomic.Uint32
}

const answeredShift = 8

// replied reports whether any attempt of the request was answered.
func (l *honestLog) replied() bool { return l.tries.Load()>>answeredShift != 0 }

// mark sets bits in tries. It is a compare-and-swap loop, not
// atomic.Uint32.Or: go1.24.0 on amd64 miscompiles code around an Or
// (a reply's stamps came out garbled).
func (l *honestLog) mark(bits uint32) {
	for {
		old := l.tries.Load()
		if l.tries.CompareAndSwap(old, old|bits) {
			return
		}
	}
}

// genResult is what the generator reports back.
type genResult struct {
	port                 int   // the generator socket's local port
	startWall            int64 // Unix ns of due time zero, exactly
	logs                 []honestLog
	abusiveSent          int
	invalidSent          int
	abusiveReplied       int
	invalidReplies       int
	badReplies           []string // the first few
	sent                 int      // scheduled datagrams
	resent               int      // honest resends
	lateP50Us, lateP99Us float64
}

// generator is an open-loop traffic source with every buffer it needs
// for one run already allocated, so it adds no garbage to the measured
// run and its buffers can be told apart from the relay's heap.
type generator struct {
	cfg         genConfig
	g           *genSock
	logs        []honestLog
	abusiveSeen []bool
	late        []int64
}

// newGenerator opens the generator's socket and allocates its buffers.
func newGenerator(cfg genConfig) (*generator, error) {
	g, err := openGenSock(cfg.target)
	if err != nil {
		return nil, err
	}
	ld, secs := cfg.load, cfg.total.Seconds()
	return &generator{
		cfg: cfg, g: g,
		logs:        make([]honestLog, int(ld.honest*secs*1.2)+1000),
		abusiveSeen: make([]bool, int(ld.abusive*secs*1.2)+1000),
		late:        make([]int64, 0, int(ld.total()*secs*1.2)+1000),
	}, nil
}

// run sends the schedule open-loop from one socket, validates and logs
// every reply, and closes the socket.
func (gen *generator) run() (*genResult, error) {
	g, cfg := gen.g, gen.cfg
	defer g.close()
	ld := cfg.load
	res := &genResult{port: g.port}
	logs, abusiveSeen, late := gen.logs, gen.abusiveSeen, gen.late
	capHonest := len(logs)
	honestSent := 0
	// logged publishes the honest log entries the sender has filled
	// to the receiver.
	var logged atomic.Int64

	var abusiveReplied, invalidReplies atomic.Int64
	var badMu sync.Mutex
	bad := func(format string, args ...any) {
		badMu.Lock()
		if len(res.badReplies) < 10 {
			res.badReplies = append(res.badReplies, fmt.Sprintf(format, args...))
		}
		badMu.Unlock()
		invalidReplies.Add(1)
	}

	// Receiver: validate every reply and log the honest ones.
	recvDone := make(chan error, 1)
	go func() {
		recvDone <- g.recvLoop(func(b []byte, rxNs, readNs int64) {
			rp, err := checkReply(b)
			if err != nil {
				bad("%v", err)
				return
			}
			cls, seq, attempt, ok := splitCookie(rp.origin)
			if !ok {
				bad("Origin %#x is not a cookie of ours", rp.origin)
				return
			}
			if cls == cAbusive {
				if seq >= uint64(len(abusiveSeen)) || abusiveSeen[seq] {
					bad("reply to abusive request %d that is unknown or already answered", seq)
					return
				}
				abusiveSeen[seq] = true
				abusiveReplied.Add(1)
				return
			}
			if seq >= uint64(logged.Load()) {
				bad("reply to honest request %d that is unknown", seq)
				return
			}
			l := &logs[seq]
			tries := l.tries.Load()
			if tries&(1<<attempt) == 0 || tries&(1<<(answeredShift+attempt)) != 0 {
				bad("reply to attempt %d of honest request %d that was not sent or is already answered", attempt, seq)
				return
			}
			l.mark(1 << (answeredShift + attempt))
			// Only the receiver sets answered bits, so tries tells
			// whether this reply is the request's first.
			if tries>>answeredShift != 0 {
				return // an earlier reply to another attempt counted
			}
			l.answer, l.rx, l.read = int8(attempt), rxNs, readNs
			l.recv, l.xmit = unixNs(rp.receive), unixNs(rp.xmit)
		})
	}()

	// Sender: the open-loop schedule, on its own OS thread so it can
	// sleep with nanosecond timer slack.
	// Due times count from the actual start: the sleep wakes up to a
	// millisecond late.
	time.Sleep(time.Until(time.Unix(0, cfg.startWall)))
	start := time.Now()
	base := start.UnixNano()
	res.startWall = base
	var sendErr error
	sendDone := make(chan struct{})
	go func() {
		defer close(sendDone)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		preciseSleepThread()
		cookies := make([]uint64, genBatch)
		resends := make([]retry, 0, genBatch)
		again := make([]arrival, genBatch)
		rt := &retrier{
			due:      func(seq int) int64 { return logs[seq].due - base },
			answered: func(seq int) bool { return logs[seq].replied() },
		}
		// resend sends every attempt due at now of the requests sent
		// so far, from the source address of the first.
		resend := func(now int64) {
			for sendErr == nil {
				resends = rt.collect(now, min(honestSent, capHonest), resends[:0])
				if len(resends) == 0 {
					return
				}
				for i, r := range resends {
					l := &logs[r.seq]
					again[i] = arrival{cls: cHonest, src: l.src}
					cookies[i] = retryCookie(uint64(r.seq), r.attempt)
					l.mark(1 << r.attempt)
				}
				sendErr = g.send(again[:len(resends)], cookies)
				res.resent += len(resends)
			}
		}
		p := &pacer{
			now:      func() int64 { return int64(time.Since(start)) },
			sleep:    sleepNs,
			maxBatch: genBatch,
			send: func(b []arrival, sentAt int64) {
				if sendErr != nil {
					return
				}
				for i, a := range b {
					switch a.cls {
					case cHonest:
						if honestSent < capHonest {
							l := &logs[honestSent]
							l.due, l.sent, l.src = base+a.due, base+sentAt, a.src
							l.tries.Store(1)
							logged.Store(int64(honestSent + 1))
						}
						cookies[i] = makeCookie(cHonest, uint64(honestSent))
						honestSent++
					case cAbusive:
						cookies[i] = makeCookie(cAbusive, uint64(res.abusiveSent))
						res.abusiveSent++
					default:
						res.invalidSent++
					}
				}
				sendErr = g.send(b, cookies)
				resend(sentAt)
			},
		}
		late = p.run(newSchedule(ld, cfg.seed), int64(cfg.total), late)
		// The schedule is over; its last requests may still need
		// resending.
		for sendErr == nil && !rt.done(min(honestSent, capHonest)) {
			resend(int64(time.Since(start)))
			sleepNs(int64(time.Millisecond))
		}
	}()
	<-sendDone
	time.Sleep(cfg.replyWait)
	g.close()
	if err := <-recvDone; err != nil && !errors.Is(err, net.ErrClosed) {
		return nil, fmt.Errorf("receiver: %w", err)
	}
	if sendErr != nil {
		return nil, fmt.Errorf("sender: %w", sendErr)
	}
	if honestSent > capHonest {
		return nil, fmt.Errorf("honest log overflow: %d requests, room for %d", honestSent, capHonest)
	}
	res.logs = logs[:honestSent]
	res.abusiveReplied, res.invalidReplies = int(abusiveReplied.Load()), int(invalidReplies.Load())
	res.sent = len(late)
	lateUs := make([]float64, len(late))
	for i, v := range late {
		lateUs[i] = float64(v) / 1e3
	}
	lt := newDist(lateUs)
	res.lateP50Us, res.lateP99Us = lt.median(), lt.pct(99)
	return res, nil
}
