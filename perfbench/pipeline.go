package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	tscclock "repro"
	"repro/internal/metrics"
	"repro/internal/ntp"
	"repro/internal/ratelimit"
)

// Relay limiter settings: a /24 budget no honest prefix reaches.
const (
	limitRate  = 1000.0 // requests per second per /24
	limitBurst = 2000.0
)

// pipelineDatagrams is how many datagrams the socket-free harness
// serves per measurement.
const pipelineDatagrams = 400_000

// sampleProbe wraps a SampleClock: while on, it times every call and
// records it as a span. Safe for the concurrent shard goroutines.
type sampleProbe struct {
	inner ntp.SampleClock
	tr    *tracer
	on    atomic.Bool
	calls atomic.Int64
	ns    []atomic.Int32
	next  atomic.Int64
}

func newSampleProbe(inner ntp.SampleClock, tr *tracer) *sampleProbe {
	return &sampleProbe{inner: inner, tr: tr, ns: make([]atomic.Int32, 1<<21)}
}

func (p *sampleProbe) sample() ntp.ClockSample {
	if !p.on.Load() {
		return p.inner()
	}
	t0 := p.tr.now()
	s := p.inner()
	t1 := p.tr.now()
	p.tr.span(lSample, 0, t0, t1)
	p.calls.Add(1)
	if i := p.next.Add(1) - 1; i < int64(len(p.ns)) {
		p.ns[i].Store(int32(t1 - t0))
	}
	return s
}

// p50 returns the median recorded call time in ns.
func (p *sampleProbe) p50() float64 {
	n := min(p.next.Load(), int64(len(p.ns)))
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(p.ns[i].Load())
	}
	return newDist(xs).median()
}

// memConn is a net.PacketConn over a fixed datagram mix: ReadFrom
// cycles through the mix until n datagrams were read, then reports the
// connection closed; WriteTo counts replies. It lets Server.Serve run
// its per-packet pipeline — limiter, validation, sampling, marshalling
// — without any socket.
type memConn struct {
	pkts    [][]byte
	srcs    []net.Addr
	dues    []int64
	clock   *int64 // the limiter's virtual time, ns
	n, i    int
	span    int64 // ns covered by one cycle through the mix
	replies int
}

func (c *memConn) ReadFrom(b []byte) (int, net.Addr, error) {
	if c.i >= c.n {
		return 0, nil, net.ErrClosed
	}
	k := c.i % len(c.pkts)
	*c.clock = int64(c.i/len(c.pkts))*c.span + c.dues[k]
	c.i++
	return copy(b, c.pkts[k]), c.srcs[k], nil
}

func (c *memConn) WriteTo(b []byte, _ net.Addr) (int, error) {
	c.replies++
	return len(b), nil
}

func (c *memConn) Close() error                     { return nil }
func (c *memConn) LocalAddr() net.Addr              { return &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 123} }
func (c *memConn) SetDeadline(time.Time) error      { return nil }
func (c *memConn) SetReadDeadline(time.Time) error  { return nil }
func (c *memConn) SetWriteDeadline(time.Time) error { return nil }

// newMemConn draws a mix of datagrams of ld from seed. The limiter's
// clock follows the datagrams' due times, so it sees the load's real
// per-prefix rates however fast the harness runs.
func newMemConn(ld load, seed uint64, clock *int64) *memConn {
	const distinct = 1 << 16
	s := newSchedule(ld, seed)
	c := &memConn{clock: clock, n: pipelineDatagrams}
	var buf [ntp.PacketSize]byte
	for i := 0; i < distinct; i++ {
		a := s.next()
		n := datagram(&buf, a.cls, makeCookie(a.cls, uint64(i)))
		c.pkts = append(c.pkts, append([]byte(nil), buf[:n]...))
		c.srcs = append(c.srcs, &net.UDPAddr{IP: net.IP(a.src[:]).To16(), Port: 40000 + i%1000})
		c.dues = append(c.dues, a.due)
	}
	c.span = s.next().due
	return c
}

// pipelineLayers measures the socket-free serving pipeline over ld's
// datagram mix, answering from the relay's sample clock through its
// probe, and reports serve.pipeline_ns.
func pipelineLayers(rep *report, probe *sampleProbe, ld load, rc runConfig) error {
	var vclock int64
	lim := ratelimit.New(ratelimit.Config{Rate: limitRate, Burst: limitBurst, Now: func() int64 { return vclock }})
	srv, err := ntp.NewServer(ntp.ServerConfig{Sample: probe.sample, Limit: lim})
	if err != nil {
		return err
	}
	conn := newMemConn(ld, rc.seed, &vclock)
	t0 := rc.tr.now()
	err = srv.Serve(conn)
	t1 := rc.tr.now()
	if !errors.Is(err, net.ErrClosed) {
		return fmt.Errorf("pipeline harness: Serve returned %v", err)
	}
	rc.tr.span(lPipeline, 0, t0, t1)
	st := srv.Stats()
	if st.Requests != uint64(conn.n) || st.Replied != uint64(conn.replies) {
		return fmt.Errorf("pipeline harness: %d requests, %d replied, %d written", st.Requests, st.Replied, conn.replies)
	}
	rep.layer("serve.pipeline_ns", float64(t1-t0)/float64(conn.n), "ns")
	rep.note("socket-free pipeline: %d datagrams, %d replies, %d rate-limited, %d dropped",
		st.Requests, st.Replied, st.RateLimited, st.Dropped())
	return nil
}

// metricsEndpoint serves a relay registry over HTTP on loopback.
type metricsEndpoint struct {
	hs   *http.Server
	done chan struct{}
	url  string
	cl   *http.Client
}

func startMetrics(reg *metrics.Registry, ready func() bool) (*metricsEndpoint, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ep := &metricsEndpoint{
		hs:   &http.Server{Handler: tscclock.NewObservabilityMux(reg, ready)},
		done: make(chan struct{}), url: "http://" + ln.Addr().String() + "/metrics",
		cl: &http.Client{Timeout: 5 * time.Second},
	}
	go func() { defer close(ep.done); _ = ep.hs.Serve(ln) }()
	return ep, nil
}

// scrape fetches /metrics once and returns its latency in µs.
func (ep *metricsEndpoint) scrape(tr *tracer) (float64, error) {
	t0 := time.Now()
	s0 := tr.now()
	resp, err := ep.cl.Get(ep.url)
	if err != nil {
		return 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, err
	}
	d := time.Since(t0)
	tr.span(lScrape, 0, s0, tr.now())
	if resp.StatusCode != http.StatusOK || len(body) == 0 {
		return 0, fmt.Errorf("/metrics: status %d, %d bytes", resp.StatusCode, len(body))
	}
	return float64(d.Nanoseconds()) / 1e3, nil
}

func (ep *metricsEndpoint) close() {
	ep.hs.Close()
	<-ep.done
	ep.cl.CloseIdleConnections()
}
