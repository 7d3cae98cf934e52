package main

import (
	"context"
	"fmt"
	"math"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	tscclock "repro"
	"repro/internal/ensemble"
	"repro/internal/ntp"
	"repro/internal/ratelimit"
)

// The offered loads. Every rate is a constant, never derived from a
// measurement, so every commit receives the same traffic.
var (
	// pacedLoad: honest clients only, about a fifth of the ~75k
	// replies/s at which honest-only load starts losing requests on a
	// 2-vCPU Xeon.
	pacedLoad = load{honest: 15_000}
	// floodLoad: the same honest clients beside an abusive /24 twenty
	// times over its budget, in trains of 32, and a stream of invalid
	// datagrams: 40k datagrams/s in all, which keeps the relay's
	// socket queues from overflowing whenever the shared host slows.
	floodLoad = load{honest: 15_000, abusive: 20_000, burst: 32, invalid: 5_000}
)

// Relay set-up and measurement constants.
const (
	relayUpstreams = 3
	relayPoll      = 20 * time.Millisecond // fixed upstream poll interval (floor and ceiling)
	relayShards    = 2
	relayWarm      = time.Second           // load before the measured section
	goodputLimit   = 10 * time.Millisecond // goodput counts replies within this latency
	scrapeEvery    = time.Second
	readyTimeout   = 30 * time.Second
	setupRounds    = 3           // set-ups per run; setup_s is their median
	subWindow      = time.Second // latency and offset statistics are per second, then medians
)

// relay is one assembled stratum-2 relay: loopback stratum-1 upstreams,
// MultiLive synchronizing against them, the sharded server answering
// from its readout, the limiter, and the observability endpoint.
type relay struct {
	upConns  []net.PacketConn
	upDone   sync.WaitGroup
	ml       *tscclock.MultiLive
	stopPoll context.CancelFunc
	pollDone chan struct{}
	pollErrs atomic.Int64
	lim      *ratelimit.Limiter
	srv      *ntp.Server
	sh       *ntp.Shards
	stopSrv  context.CancelFunc
	srvDone  chan error
	metrics  *metricsEndpoint
	probe    *sampleProbe
}

// startRelay assembles a relay and waits until it is ready to serve
// (MultiLive.Ready), returning the time that took.
func startRelay(tr *tracer) (*relay, time.Duration, error) {
	t0 := time.Now()
	r := &relay{}
	var addrs []string
	for i := 0; i < relayUpstreams; i++ {
		pc, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			r.close()
			return nil, 0, err
		}
		up, err := ntp.NewServer(ntp.ServerConfig{Clock: ntp.SystemServerClock()})
		if err != nil {
			pc.Close()
			r.close()
			return nil, 0, err
		}
		r.upConns = append(r.upConns, pc)
		r.upDone.Add(1)
		go func() { defer r.upDone.Done(); _ = up.Serve(pc) }()
		addrs = append(addrs, pc.LocalAddr().String())
	}
	ml, err := tscclock.DialMultiLive(tscclock.MultiLiveOptions{
		Servers: addrs, Poll: relayPoll, MaxPoll: relayPoll, Timeout: time.Second,
	})
	if err != nil {
		r.close()
		return nil, 0, err
	}
	r.ml = ml
	ctx, cancel := context.WithCancel(context.Background())
	r.stopPoll, r.pollDone = cancel, make(chan struct{})
	go func() {
		defer close(r.pollDone)
		_ = ml.Run(ctx, func(_ int, _ tscclock.EnsembleStatus, err error) {
			if err != nil {
				r.pollErrs.Add(1)
			}
		})
	}()
	r.lim = ratelimit.New(ratelimit.Config{Rate: limitRate, Burst: limitBurst})
	sample := ml.ServerSample(ntp.RefIDFromString("TSCC"))
	if tr != nil {
		r.probe = newSampleProbe(sample, tr)
		sample = r.probe.sample
	}
	if r.srv, err = ntp.NewServer(ntp.ServerConfig{Sample: sample, Limit: r.lim}); err != nil {
		r.close()
		return nil, 0, err
	}
	if r.sh, err = r.srv.ListenShards("udp", "127.0.0.1:0", relayShards); err != nil {
		r.close()
		return nil, 0, err
	}
	sctx, scancel := context.WithCancel(context.Background())
	r.stopSrv, r.srvDone = scancel, make(chan error, 1)
	go func() { r.srvDone <- r.sh.Serve(sctx) }()
	reg := tscclock.NewRelayMetrics(tscclock.RelayMetricsConfig{Server: r.srv, Shards: r.sh, Multi: ml, Limit: r.lim})
	if r.metrics, err = startMetrics(reg, ml.Ready); err != nil {
		r.close()
		return nil, 0, err
	}
	for !ml.Ready() {
		if time.Since(t0) > readyTimeout {
			r.close()
			return nil, 0, fmt.Errorf("relay not ready after %v", readyTimeout)
		}
		time.Sleep(time.Millisecond)
	}
	return r, time.Since(t0), nil
}

// close tears the relay down and waits for every goroutine it started.
func (r *relay) close() {
	if r.metrics != nil {
		r.metrics.close()
	}
	if r.stopSrv != nil {
		r.stopSrv()
		<-r.srvDone
	}
	if r.stopPoll != nil {
		r.stopPoll()
		<-r.pollDone
	}
	if r.ml != nil {
		r.ml.Close()
	}
	for _, pc := range r.upConns {
		pc.Close()
	}
	r.upDone.Wait()
}

func (r *relay) port() uint16 { return uint16(r.sh.Addr().(*net.UDPAddr).Port) }

// snapshot is the relay's counters at one instant.
type snapshot struct {
	cpu       time.Duration
	stats     ntp.Stats
	drops     map[uint16]uint64
	exchanges int
	pollErrs  int64
	restarts  uint64
}

func (r *relay) snap() snapshot {
	s := snapshot{cpu: cpuTime(), stats: r.srv.Stats(), drops: readUDPDrops(),
		exchanges: r.ml.Ensemble().Readout().Exchanges, pollErrs: r.pollErrs.Load()}
	for _, st := range r.sh.Stats() {
		s.restarts += st.Restarts
	}
	return s
}

// runRelay runs one relay workload.
func runRelay(rc runConfig, ld load) (*report, error) {
	rep := newReport()
	var setups []float64
	var r *relay
	for i := 0; i < setupRounds; i++ {
		var tr *tracer
		if i == setupRounds-1 {
			tr = rc.tr
		}
		rr, d, err := startRelay(tr)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		if i < setupRounds-1 {
			rr.close()
		} else {
			r = rr
		}
	}
	defer r.close()
	rep.e2e("setup_s", medianOf(setups), "s")
	rep.note("relay: %d loopback stratum-1 upstreams polled every %v, %d shards, limiter %.0f/s burst %.0f per /24",
		relayUpstreams, relayPoll, relayShards, limitRate, limitBurst)
	rep.note("offered: %.0f honest + %.0f abusive + %.0f invalid datagrams/s (Poisson), warm-up %v",
		ld.honest, ld.abusive, ld.invalid, relayWarm)

	// Windows of the measured section: one untraced; a traced run adds a
	// traced one of the same length after it.
	measure := rc.seconds
	nWin := 1
	if rc.trace {
		measure = rc.seconds / 2
		nWin = 2
	}
	total := relayWarm + time.Duration(nWin)*measure

	// The generator's buffers are the benchmark's, not the relay's:
	// live_heap_mb leaves them out.
	runtime.GC()
	heap0 := liveHeap()
	gen, err := newGenerator(genConfig{
		target: r.sh.Addr().(*net.UDPAddr), seed: rc.seed, load: ld,
		total: total, replyWait: replyDeadline - retryAt[len(retryAt)-1] + 50*time.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	runtime.GC()
	genHeap := liveHeap() - heap0

	// Scraper: /metrics once per second for the whole run.
	scrapeStop := make(chan struct{})
	scrapeDone := make(chan struct{})
	var scrapeUs []float64
	var scrapeErr error
	go func() {
		defer close(scrapeDone)
		t := time.NewTicker(scrapeEvery)
		defer t.Stop()
		for {
			select {
			case <-scrapeStop:
				return
			case <-t.C:
			}
			d, err := r.metrics.scrape(rc.tr)
			if err != nil {
				scrapeErr = err
				return
			}
			scrapeUs = append(scrapeUs, d)
		}
	}()

	startWall := time.Now().Add(genStartDelay).UnixNano()
	start := time.Unix(0, startWall)
	gen.cfg.startWall = startWall
	var res *genResult
	var genErr error
	genDone := make(chan struct{})
	go func() {
		defer close(genDone)
		res, genErr = gen.run()
	}()

	// Counter snapshots at the window boundaries; CPU and the
	// hypervisor's steal time every second.
	subs := int(measure / subWindow)
	secs := make([]second, nWin*subs)
	var snaps []snapshot
	var cpuPrev time.Duration
	var stealPrev int64
	for k := 0; k <= len(secs); k++ {
		time.Sleep(time.Until(start.Add(relayWarm + time.Duration(k)*subWindow)))
		cpu, steal := cpuTime(), stealTicks()
		if k > 0 {
			secs[k-1].cpu, secs[k-1].steal = cpu-cpuPrev, steal-stealPrev
		}
		cpuPrev, stealPrev = cpu, steal
		if k%subs != 0 {
			continue
		}
		if k/subs == 1 && r.probe != nil {
			r.probe.on.Store(true)
		}
		snaps = append(snaps, r.snap())
	}
	time.Sleep(time.Until(start.Add(total + replyDeadline + 50*time.Millisecond)))
	final := r.snap()
	close(scrapeStop)
	<-scrapeDone
	<-genDone
	if genErr != nil {
		return nil, genErr
	}
	// The heap the relay keeps while serving, marked by a forced GC
	// once the load has stopped: at a heap this small the live heap a
	// GC marks mid-run swings with whatever short-lived buffers (a
	// /metrics response in flight) it catches.
	runtime.GC()
	rep.e2e("live_heap_mb", (liveHeap()-genHeap)/(1<<20), "MB")
	runtime.KeepAlive(gen)
	if scrapeErr != nil {
		rep.fail("metrics scrape: %v", scrapeErr)
	}
	logs := res.logs

	// Sort the honest requests into the seconds they were due in.
	var dwell []float64
	var lateReplies, resentOK int
	for i := range logs {
		l := &logs[i]
		off := time.Duration(l.due-res.startWall) - relayWarm
		if off < 0 || int(off/subWindow) >= len(secs) {
			continue
		}
		sc := &secs[off/subWindow]
		sc.attempted++
		if !l.replied() || l.rx == 0 || time.Duration(l.rx-l.due) > replyDeadline {
			sc.failed++
			if l.replied() {
				lateReplies++
			}
			continue
		}
		lat := time.Duration(l.rx - l.due)
		sc.lat = append(sc.lat, float64(lat.Nanoseconds())/1e3)
		if lat <= goodputLimit {
			sc.good++
		}
		if l.answer > 0 {
			// Answered on a resend, whose send time was not logged:
			// the served offset needs it.
			resentOK++
			continue
		}
		sc.theta = append(sc.theta, (float64(l.recv-l.sent)+float64(l.xmit-l.rx))/2e3)
		dwell = append(dwell, float64(l.read-l.rx)/1e3)
		if rc.trace {
			id := makeCookie(cHonest, uint64(i))
			recv := min(max(l.recv, l.sent), l.rx)
			xmit := min(max(l.xmit, recv), l.rx)
			rc.tr.span(lRequest, id, rc.tr.at(l.due), rc.tr.at(l.rx))
			rc.tr.span(lGen, id, rc.tr.at(l.due), rc.tr.at(l.sent))
			rc.tr.span(lNetIn, id, rc.tr.at(l.sent), rc.tr.at(recv))
			rc.tr.span(lServe, id, rc.tr.at(recv), rc.tr.at(xmit))
			rc.tr.span(lNetOut, id, rc.tr.at(xmit), rc.tr.at(l.rx))
			rc.tr.span(lClient, id, rc.tr.at(l.rx), rc.tr.at(l.read))
		}
	}
	w0 := secs[:subs]
	f0 := relayFigures(w0)
	for _, sc := range w0 {
		rep.attempted += int64(sc.attempted)
		rep.failed += int64(sc.failed)
		if len(sc.lat) > 0 && !hasTail(len(sc.lat), 99) {
			rep.fail("a second with %d replies: its p99 has fewer than %d samples beyond it", len(sc.lat), minBeyond)
		}
	}
	rep.e2e("throughput_per_s", f0.goodput, "1/s")
	rep.e2e("latency_p50_us", f0.lat50, "us")
	rep.e2e("cpu_us_per_op", f0.cpuPerReply, "us")
	// The tail and the served-time accuracy move too much between runs
	// on a shared host to gate a change; the traced run reports them.
	rep.layer("tail.latency_p99_us", f0.lat99, "us")
	rep.layer("accuracy.err_p50_us", f0.jit50, "us")
	rep.layer("accuracy.err_p99_us", f0.jit99, "us")
	var good int
	var lats []float64
	for _, sc := range w0 {
		good += sc.good
		lats = append(lats, sc.lat...)
	}
	all := newDist(lats)
	tail := tailPercentile(len(all))
	rep.note("honest: %d attempted, %d failed (fail_frac %.2e; %d answered after %v), %d answered on a resend, %d within %v",
		rep.attempted, rep.failed, float64(rep.failed)/float64(max(rep.attempted, 1)), lateReplies, replyDeadline, resentOK, good, goodputLimit)
	rep.note("reply latency from due time, all seconds: n=%d p50 %.1f µs p99 %.1f µs p%g %.1f µs",
		len(all), all.median(), all.pct(99), tail, all.pct(tail))
	rep.note("figures from the %d of %d seconds with the least steal (%d ticks in them, %d in all)",
		len(f0.picked), subs, f0.steal, f0.stealAll)
	rep.note("served θ: relay sync bias %.2f µs, spread around it p50 %.2f µs p99 %.2f µs",
		f0.bias, f0.jit50, f0.jit99)

	dw := newDist(dwell)
	rep.note("generator: %d sent and %d honest resends, lateness p50 %.1f µs p99 %.1f µs; client rx dwell p50 %.1f µs",
		res.sent, res.resent, res.lateP50Us, res.lateP99Us, dw.median())

	// Checks.
	if n := res.invalidReplies; n > 0 {
		rep.fail("%d invalid replies, e.g. %v", n, res.badReplies)
	}
	st0, stEnd := snaps[0].stats, final.stats
	relayPort, genPort := r.port(), uint16(res.port)
	srvDrops := final.drops[relayPort] - snaps[0].drops[relayPort]
	cliDrops := final.drops[genPort] - snaps[0].drops[genPort]
	// Refusal accounting over the whole run, warm-up included: both
	// sockets' drop counters start with the run's relay and generator.
	unanswered := 0
	for i := range logs {
		if !logs[i].replied() {
			unanswered++
		}
	}
	acct := accounting{
		abusiveSent: res.abusiveSent, abusiveReplied: res.abusiveReplied, invalidSent: res.invalidSent,
		honestUnanswered: unanswered, rateLimited: stEnd.RateLimited, dropped: stEnd.Dropped(),
		srvDrops: final.drops[relayPort], cliDrops: final.drops[genPort],
	}
	refusedHonest, failures := acct.check()
	for _, f := range failures {
		rep.fail("%s", f)
	}
	if acct.srvDrops+acct.cliDrops > 0 {
		rep.note("socket drops (relay %d, generator %d), %d honest requests unanswered: limiter refusals are a lower bound",
			acct.srvDrops, acct.cliDrops, unanswered)
	}
	if stEnd.WriteErrors > 0 {
		rep.fail("%d reply write errors", stEnd.WriteErrors)
	}
	if err := r.serveErr(); err != nil {
		rep.fail("serving: %v", err)
	}

	// The ensemble behind the relay, checked off-line against sim truth
	// after the measured section.
	in, err := genTrace(rc.seed)
	if err != nil {
		return nil, err
	}
	if err := checkEnsemble(rep, in); err != nil {
		return nil, err
	}

	if rc.trace {
		lw := nWin - 1
		fl := relayFigures(secs[lw*subs:])
		rep.layer("trace.overhead_pct", 100*(fl.cpuPerReply-f0.cpuPerReply)/f0.cpuPerReply, "%")
		rep.note("tracing overhead: %.3f µs CPU per reply untraced, %.3f traced", f0.cpuPerReply, fl.cpuPerReply)
		d := func(a, b uint64) float64 { return float64(b - a) }
		rep.layer("serve.syscalls_per_reply", (d(st0.RecvCalls, stEnd.RecvCalls)+d(st0.SendCalls, stEnd.SendCalls))/d(st0.Replied, stEnd.Replied), "count")
		rep.layer("serve.rx_batch_avg", d(st0.Requests, stEnd.Requests)/d(st0.RecvCalls, stEnd.RecvCalls), "count")
		rep.layer("serve.kernel_rx_cov", d(st0.KernelRx, stEnd.KernelRx)/(d(st0.KernelRx, stEnd.KernelRx)+d(st0.KernelRxMissing, stEnd.KernelRxMissing)), "ratio")
		rep.layer("serve.dropped_invalid", float64(acct.dropped), "count")
		rep.layer("serve.write_errors", float64(stEnd.WriteErrors), "count")
		rep.layer("serve.shard_restarts", float64(final.restarts), "count")
		if ld.abusive > 0 {
			rep.layer("ratelimit.refused_abusive_frac", float64(res.abusiveSent-res.abusiveReplied)/float64(res.abusiveSent), "ratio")
		} else {
			rep.layer("ratelimit.refused_abusive_frac", 0, "ratio")
		}
		rep.layer("ratelimit.refused_honest", refusedHonest, "count")
		rep.layer("ratelimit.tracked", float64(r.lim.Len()), "count")
		var kta, ktf, miss uint64
		for _, u := range r.ml.UpstreamStates() {
			kta, ktf, miss = kta+u.KernelTa, ktf+u.KernelTf, miss+u.StampMisses
		}
		rep.layer("upstream.exchanges", float64(final.exchanges-snaps[0].exchanges), "count")
		rep.layer("upstream.failures", float64(final.pollErrs-snaps[0].pollErrs), "count")
		rep.layer("upstream.kernel_stamp_frac", float64(kta+ktf)/float64(max(kta+ktf+miss, 1)), "ratio")
		rep.layer("upstream.ladder_state", float64(r.ml.Ensemble().State(r.ml.Counter())), "state")
		rep.layer("kernel.server_sock_drops", float64(srvDrops), "count")
		rep.layer("kernel.client_sock_drops", float64(cliDrops), "count")
		rep.layer("metrics.scrape_us", medianOf(scrapeUs), "us")
		rep.layer("readout.sample_ns_p50", r.probe.p50(), "ns")
		rep.layer("readout.sample_calls", float64(r.probe.calls.Load()), "count")
		rep.note("ladder %s, %d upstream exchanges in the run", ensemble.State(r.ml.Ensemble().State(r.ml.Counter())), final.exchanges)
		if err := pipelineLayers(rep, r.probe, ld, rc); err != nil {
			return nil, err
		}
		if err := engineLayers(rep, in, rc.tr); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// serveErr reports a serving loop that ended before the run did.
func (r *relay) serveErr() error {
	select {
	case err := <-r.srvDone:
		r.srvDone <- err // for close
		if err == nil {
			return fmt.Errorf("serving stopped early")
		}
		return err
	default:
		return nil
	}
}

// second is one second of a measured window.
type second struct {
	attempted, failed, good int
	lat, theta              []float64 // µs, per valid honest reply
	cpu                     time.Duration
	steal                   int64 // hypervisor steal ticks
}

// figures are a window's end-to-end results.
type figures struct {
	goodput, lat50, lat99 float64
	jit50, jit99, bias    float64
	cpuPerReply           float64
	picked                []int
	steal, stealAll       int64
}

// relayFigures computes a window's figures from the half of its
// seconds with the least hypervisor steal: on a shared host, a second
// in which the guest's vCPUs were descheduled measures the neighbours,
// not the relay. Latency and served-time statistics are taken per
// second and their median reported.
func relayFigures(secs []second) figures {
	steal := make([]int64, len(secs))
	var f figures
	for i, sc := range secs {
		steal[i] = sc.steal
		f.stealAll += sc.steal
	}
	f.picked = leastStolen(steal)
	var lat50, lat99, jit50, jit99, bias []float64
	var cpu time.Duration
	var replies, good int
	for _, i := range f.picked {
		sc := secs[i]
		f.steal += sc.steal
		cpu += sc.cpu
		replies += len(sc.lat)
		good += sc.good
		if len(sc.lat) == 0 {
			continue
		}
		ls := newDist(sc.lat)
		lat50, lat99 = append(lat50, ls.median()), append(lat99, ls.pct(99))
		// The served offset θ splits into the relay's sync bias this
		// second (the median θ) and the error each reply carries
		// around it: a bias near zero is no steadier a figure than
		// its sign, so the spread is what the metrics report.
		th := newDist(sc.theta)
		center := th.median()
		jit := make([]float64, len(th))
		for k, v := range th {
			jit[k] = math.Abs(v - center)
		}
		jd := newDist(jit)
		jit50, jit99, bias = append(jit50, jd.median()), append(jit99, jd.pct(99)), append(bias, center)
	}
	f.goodput = float64(good) / (float64(len(f.picked)) * subWindow.Seconds())
	f.lat50, f.lat99 = medianOf(lat50), medianOf(lat99)
	f.jit50, f.jit99, f.bias = medianOf(jit50), medianOf(jit99), medianOf(bias)
	f.cpuPerReply = cpu.Seconds() * 1e6 / float64(max(replies, 1))
	return f
}
