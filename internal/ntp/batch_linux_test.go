//go:build linux && (amd64 || arm64)

package ntp

import (
	"encoding/binary"
	"net"
	"syscall"
	"testing"
	"time"
	"unsafe"

	"repro/internal/ratelimit"
)

// tsCmsg builds a well-formed SCM_TIMESTAMPING control message: 16-byte
// cmsghdr followed by three timespecs, software stamp in ts[0].
func tsCmsg(sec, nsec int64) []byte {
	b := make([]byte, 64)
	binary.LittleEndian.PutUint64(b[0:8], 64)
	binary.LittleEndian.PutUint32(b[8:12], uint32(syscall.SOL_SOCKET))
	binary.LittleEndian.PutUint32(b[12:16], scmTimestamping)
	binary.LittleEndian.PutUint64(b[16:24], uint64(sec))
	binary.LittleEndian.PutUint64(b[24:32], uint64(nsec))
	return b
}

// TestParseRxTimestamp drives the OOB walker over real, absent,
// truncated and hostile control-message buffers: every shape the
// kernel can hand the hot loop, plus shapes only a bug could.
func TestParseRxTimestamp(t *testing.T) {
	// A realistic foreign cmsg to precede the timestamp: SO_RXQ_OVFL
	// (level SOL_SOCKET, type 40) carrying a uint32, padded to 24.
	other := make([]byte, 24)
	binary.LittleEndian.PutUint64(other[0:8], 20)
	binary.LittleEndian.PutUint32(other[8:12], uint32(syscall.SOL_SOCKET))
	binary.LittleEndian.PutUint32(other[12:16], 40)

	cases := []struct {
		name     string
		oob      []byte
		wantSec  int64
		wantNsec int64
		wantOK   bool
	}{
		{"real", tsCmsg(1700000000, 123456789), 1700000000, 123456789, true},
		{"empty", nil, 0, 0, false},
		{"absent", other, 0, 0, false},
		{"after other cmsg", append(append([]byte{}, other...), tsCmsg(42, 7)...), 42, 7, true},
		{"truncated header", tsCmsg(1, 2)[:12], 0, 0, false},
		{"truncated payload", tsCmsg(1, 2)[:24], 0, 0, false},
		{"header only", tsCmsg(1, 2)[:16], 0, 0, false},
		{"zero stamp", tsCmsg(0, 0), 0, 0, false},
		{"negative nsec", tsCmsg(5, -1), 0, 0, false},
		{"nsec overflow", tsCmsg(5, 2e9), 0, 0, false},
		{"negative sec", tsCmsg(-5, 0), 0, 0, false},
		{"len zero", func() []byte { b := tsCmsg(1, 2); binary.LittleEndian.PutUint64(b[0:8], 0); return b }(), 0, 0, false},
		{"len beyond buffer", func() []byte { b := tsCmsg(1, 2); binary.LittleEndian.PutUint64(b[0:8], 1<<40); return b }(), 0, 0, false},
		{"wrong level", func() []byte { b := tsCmsg(1, 2); binary.LittleEndian.PutUint32(b[8:12], 41); return b }(), 0, 0, false},
		{"wrong type", func() []byte { b := tsCmsg(1, 2); binary.LittleEndian.PutUint32(b[12:16], 29); return b }(), 0, 0, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sec, nsec, ok := parseRxTimestamp(tc.oob)
			if sec != tc.wantSec || nsec != tc.wantNsec || ok != tc.wantOK {
				t.Errorf("parseRxTimestamp = (%d, %d, %v), want (%d, %d, %v)",
					sec, nsec, ok, tc.wantSec, tc.wantNsec, tc.wantOK)
			}
		})
	}
}

// FuzzParseRxTimestamp: no byte sequence may panic the OOB walker or
// yield an out-of-range timestamp. The loop trusts the kernel; the
// fuzzer does not.
func FuzzParseRxTimestamp(f *testing.F) {
	f.Add(tsCmsg(1700000000, 123456789))
	f.Add([]byte{})
	f.Add(make([]byte, 15))
	f.Add(tsCmsg(0, 0)[:24])
	hostile := tsCmsg(1, 2)
	binary.LittleEndian.PutUint64(hostile[0:8], ^uint64(0))
	f.Add(hostile)
	f.Fuzz(func(t *testing.T, oob []byte) {
		sec, nsec, ok := parseRxTimestamp(oob)
		if ok && (sec < 0 || nsec < 0 || nsec >= 1e9) {
			t.Errorf("accepted out-of-range stamp (%d, %d)", sec, nsec)
		}
		if !ok && (sec != 0 || nsec != 0) {
			t.Errorf("ok=false with nonzero stamp (%d, %d)", sec, nsec)
		}
	})
}

// newTestBatchLoop hand-assembles a batchLoop with filled slabs, as if
// recvmmsg had just returned n valid client requests from distinct v4
// sources, each carrying a fresh kernel RX stamp.
func newTestBatchLoop(t *testing.T, s *Server, n int) *batchLoop {
	t.Helper()
	bl := &batchLoop{
		srv:    s,
		batch:  n,
		pktIn:  make([]byte, n*rxBufSize),
		pktOut: make([]byte, n*PacketSize),
		names:  make([]syscall.RawSockaddrInet6, n),
		oob:    make([]byte, n*oobSize),
		riovs:  make([]syscall.Iovec, n),
		rmsgs:  make([]mmsghdr, n),
		siovs:  make([]syscall.Iovec, n),
		smsgs:  make([]mmsghdr, n),
	}
	now := time.Now()
	cmsg := tsCmsg(now.Unix(), int64(now.Nanosecond()))
	for i := 0; i < n; i++ {
		copy(bl.pktIn[i*rxBufSize:], clientPacket(4))
		bl.rmsgs[i].nrecv = PacketSize
		sa := (*syscall.RawSockaddrInet4)(unsafe.Pointer(&bl.names[i]))
		sa.Family = syscall.AF_INET
		sa.Addr = [4]byte{192, 0, 2, byte(i)}
		copy(bl.oob[i*oobSize:], cmsg)
		bl.rmsgs[i].hdr.Controllen = uint64(len(cmsg))
	}
	return bl
}

// TestBatchProcessZeroAlloc is the steady-state allocation gate for the
// batched hot path: process() over a full batch — rate limiting by raw
// sockaddr, kernel-stamp parsing, validation, stamping, marshalling —
// must not allocate. This is the runtime check backing the reprolint
// //repro:hotpath static gate, and the satellite assertion that the
// batched rate-limit path has shed the per-packet net.Addr boxing.
func TestBatchProcessZeroAlloc(t *testing.T) {
	lim := ratelimit.New(ratelimit.Config{Rate: 1e12, Burst: 1e12})
	srv, err := NewServer(ServerConfig{Clock: SystemServerClock(), Limit: lim})
	if err != nil {
		t.Fatal(err)
	}
	bl := newTestBatchLoop(t, srv, 16)
	allocs := testing.AllocsPerRun(200, func() {
		if got := bl.process(bl.batch); got != bl.batch {
			t.Fatalf("process replied to %d of %d", got, bl.batch)
		}
		bl.resetHeaders(bl.batch)
	})
	if allocs != 0 {
		t.Errorf("batch process allocates %.1f times per batch, want 0", allocs)
	}
}

// TestBatchProcessReplies checks the pipeline output of a hand-built
// batch: replies are compacted into the out slab in order, carry
// server mode, and each send header is aimed back at its source.
func TestBatchProcessReplies(t *testing.T) {
	srv, err := NewServer(ServerConfig{Clock: SystemServerClock()})
	if err != nil {
		t.Fatal(err)
	}
	bl := newTestBatchLoop(t, srv, 8)
	// Slot 3: too short. Slot 5: wrong mode. Both must be dropped and
	// the replies around them compacted.
	bl.rmsgs[3].nrecv = 12
	bl.pktIn[5*rxBufSize] = bl.pktIn[5*rxBufSize]&^0x7 | byte(ModeServer)

	nOut := bl.process(8)
	if nOut != 6 {
		t.Fatalf("process kept %d replies, want 6", nOut)
	}
	wantSrc := []byte{0, 1, 2, 4, 6, 7} // last octet of each replied-to source
	for k := 0; k < nOut; k++ {
		var resp Packet
		if err := resp.Unmarshal(bl.pktOut[k*PacketSize : (k+1)*PacketSize]); err != nil {
			t.Fatalf("reply %d: %v", k, err)
		}
		if resp.Mode != ModeServer {
			t.Errorf("reply %d: mode = %v", k, resp.Mode)
		}
		sa := (*syscall.RawSockaddrInet4)(unsafe.Pointer(bl.smsgs[k].hdr.Name))
		if sa.Addr[3] != wantSrc[k] {
			t.Errorf("reply %d aimed at .%d, want .%d", k, sa.Addr[3], wantSrc[k])
		}
	}
	st := srv.Stats()
	if st.Short != 1 || st.NonClient != 1 {
		t.Errorf("drop counters = %+v, want Short=1 NonClient=1", st)
	}
	if st.KernelRx != 8 {
		t.Errorf("KernelRx = %d, want 8 (stamps are counted per received datagram, before validation drops)", st.KernelRx)
	}
}

// TestBatchSyscallReduction is the measured acceptance check for the
// batching itself: with a batch's worth of requests queued in the
// socket before the loop starts, serving them all must cost at least
// 8× fewer syscalls than the per-packet loop's two per reply. This is
// deterministic even on a single-core runner, where a closed-loop
// client would never build queue depth.
func TestBatchSyscallReduction(t *testing.T) {
	const queued = 64
	srv, err := NewServer(ServerConfig{Clock: SystemServerClock(), Batch: batchMax})
	if err != nil {
		t.Fatal(err)
	}
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cli, err := net.Dial("udp", pc.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	// Queue the whole load in the kernel receive buffer first, so the
	// loop's first recvmmsg sees real depth.
	for i := 0; i < queued; i++ {
		if _, err := cli.Write(clientPacket(4)); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(10 * time.Millisecond)

	done := make(chan struct{})
	go func() { defer close(done); _ = srv.Serve(pc) }()
	defer func() { pc.Close(); <-done }()

	cli.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 512)
	for i := 0; i < queued; i++ {
		if _, err := cli.Read(buf); err != nil {
			t.Fatalf("reply %d/%d never arrived: %v", i+1, queued, err)
		}
	}
	// The reply counter is bumped after sendmmsg returns, so the last
	// datagram can reach the client a beat before the counter does:
	// poll for settling like the other counter tests.
	var st Stats
	for deadline := time.Now().Add(2 * time.Second); ; {
		st = srv.Stats()
		if st.Replied == queued {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replied = %d, want %d", st.Replied, queued)
		}
		time.Sleep(time.Millisecond)
	}
	sys := st.RecvCalls + st.SendCalls
	// Per-packet cost would be 2*queued syscalls; require ≥8× less.
	if sys*8 > 2*st.Replied {
		t.Errorf("served %d replies in %d syscalls (%d recv + %d send): less than an 8x reduction over the per-packet loop's %d",
			st.Replied, sys, st.RecvCalls, st.SendCalls, 2*st.Replied)
	}
	if st.KernelRx+st.KernelRxMissing != st.Replied {
		t.Errorf("kernel stamp accounting: KernelRx=%d + KernelRxMissing=%d != Replied=%d",
			st.KernelRx, st.KernelRxMissing, st.Replied)
	}
}

// TestBatchKernelStamps: over a real loopback socket the kernel's RX
// stamps must be observed and must backdate Receive, never past
// Transmit (Tb ≤ Te is what downstream clients rely on).
func TestBatchKernelStamps(t *testing.T) {
	srv, err := NewServer(ServerConfig{Clock: SystemServerClock()})
	if err != nil {
		t.Fatal(err)
	}
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { defer close(done); _ = srv.Serve(pc) }()
	defer func() { pc.Close(); <-done }()

	for i := 0; i < 4; i++ {
		reply := rawQuery(t, pc.LocalAddr(), clientPacket(4), true)
		var resp Packet
		if err := resp.Unmarshal(reply); err != nil {
			t.Fatal(err)
		}
		if tb, te := resp.Receive.Seconds(), resp.Transmit.Seconds(); tb > te {
			t.Errorf("exchange %d: Tb %.9f > Te %.9f", i, tb, te)
		}
	}
	st := srv.Stats()
	if st.KernelRx == 0 {
		if st.KernelRxMissing > 0 {
			t.Skipf("kernel provided no RX timestamps here (%d missing); loop fell back to sample stamps", st.KernelRxMissing)
		}
		t.Errorf("neither KernelRx nor KernelRxMissing counted over a batched socket: %+v", st)
	}
}

// TestBatchServeIPv6 exercises the AF_INET6 arm of the raw-sockaddr
// path end to end over ::1.
func TestBatchServeIPv6(t *testing.T) {
	lim := ratelimit.New(ratelimit.Config{})
	srv, err := NewServer(ServerConfig{Clock: SystemServerClock(), Limit: lim})
	if err != nil {
		t.Fatal(err)
	}
	pc, err := net.ListenPacket("udp6", "[::1]:0")
	if err != nil {
		t.Skipf("no IPv6 loopback: %v", err)
	}
	done := make(chan struct{})
	go func() { defer close(done); _ = srv.Serve(pc) }()
	defer func() { pc.Close(); <-done }()

	reply := rawQuery(t, pc.LocalAddr(), clientPacket(4), true)
	var resp Packet
	if err := resp.Unmarshal(reply); err != nil {
		t.Fatal(err)
	}
	if resp.Mode != ModeServer {
		t.Errorf("mode = %v, want server", resp.Mode)
	}
	if lim.Len() == 0 {
		t.Errorf("limiter tracked no prefixes: the v6 raw-sockaddr key path was not taken")
	}
}

// TestBatchForcedOff: Batch=1 must route even a *net.UDPConn through
// the portable per-packet loop (one recv and one send syscall per
// reply — the syscall counters tell the loops apart).
func TestBatchForcedOff(t *testing.T) {
	srv, err := NewServer(ServerConfig{Clock: SystemServerClock(), Batch: 1})
	if err != nil {
		t.Fatal(err)
	}
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { defer close(done); _ = srv.Serve(pc) }()
	defer func() { pc.Close(); <-done }()

	rawQuery(t, pc.LocalAddr(), clientPacket(4), true)
	st := srv.Stats()
	if st.Replied != 1 || st.RecvCalls != 1 || st.SendCalls != 1 {
		t.Errorf("Batch=1 stats = %+v, want the per-packet loop's 1 recv + 1 send for 1 reply", st)
	}
	if st.KernelRx+st.KernelRxMissing != 0 {
		t.Errorf("per-packet loop counted kernel stamps: %+v", st)
	}
}

// TestBatchTruncatedRequests pins that sizing the receive slots to the
// 48-byte header is harmless. Over a real socket and the batched loop,
// requests carrying 464 and 1152 bytes past the header (extension
// fields, padding) are truncated by the kernel to their header and
// answered exactly like the bare header: the replies match byte for
// byte outside Receive, which each kernel RX stamp backdates
// separately. None counts as Short or Malformed; an oversized
// version-0 datagram still counts as Malformed.
func TestBatchTruncatedRequests(t *testing.T) {
	fixed := Time64FromTime(time.Unix(1_700_000_000, 0))
	srv, err := NewServer(ServerConfig{Clock: func() Time64 { return fixed }})
	if err != nil {
		t.Fatal(err)
	}
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { defer close(done); _ = srv.Serve(pc) }()
	defer func() { pc.Close(); <-done }()

	header := clientPacket(4)
	padded := func(size int, hdr []byte) []byte {
		b := make([]byte, size)
		copy(b, hdr)
		for i := PacketSize; i < size; i++ {
			b[i] = 0xA5
		}
		return b
	}
	// The Receive stamp: bytes 32–39 of the reply.
	const recvOff, recvEnd = 32, 40
	want := rawQuery(t, pc.LocalAddr(), header, true)
	for _, size := range []int{512, 1200} {
		got := rawQuery(t, pc.LocalAddr(), padded(size, header), true)
		if len(got) != len(want) {
			t.Fatalf("%d-byte request: %d-byte reply, want %d", size, len(got), len(want))
		}
		for i := range got {
			if (i < recvOff || i >= recvEnd) && got[i] != want[i] {
				t.Errorf("%d-byte request: reply byte %d = %#x, want %#x as for the 48-byte request", size, i, got[i], want[i])
			}
		}
	}

	v0 := padded(1200, clientPacket(0))
	rawQuery(t, pc.LocalAddr(), v0, false)

	var st Stats
	for deadline := time.Now().Add(2 * time.Second); ; {
		st = srv.Stats()
		if st.Replied == 3 && st.Malformed == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stats = %+v, want Replied=3 Malformed=1", st)
		}
		time.Sleep(time.Millisecond)
	}
	if st.Short != 0 || st.Malformed != 1 {
		t.Errorf("drop counters = %+v, want Short=0 Malformed=1 (the version-0 datagram only)", st)
	}
	if st.KernelRx+st.KernelRxMissing != st.Requests {
		t.Errorf("stats = %+v: every request must pass through the batched loop (it counts kernel stamps)", st)
	}
}
