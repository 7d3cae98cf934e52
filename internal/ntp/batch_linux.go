//go:build linux && (amd64 || arm64)

// Batched serving hot loop: recvmmsg/sendmmsg syscall batching plus
// SO_TIMESTAMPING kernel RX stamps.
//
// The per-packet loop pays two syscalls per reply and stamps Receive
// from a user-space clock read, so every reply carries the scheduler's
// wakeup latency as apparent network delay. This loop drains up to
// Batch datagrams per recvmmsg into preallocated slabs, runs the same
// per-packet pipeline (limit → validate → stamp → marshal) over the
// batch in place, and answers with one sendmmsg — ~2/Batch syscalls
// per reply — while parsing each datagram's SCM_TIMESTAMPING control
// message so the reply's Receive stamp can be backdated to the
// kernel's arrival time. Every buffer the kernel writes into (packet
// slab, sockaddr slab, control slab, iovec and mmsghdr arrays) is
// allocated once per shard at setup; the steady state allocates
// nothing (//repro:hotpath on process, gated by reprolint and
// TestBatchProcessZeroAlloc).
//
// The loop integrates with the Go netpoller through syscall.RawConn:
// recvmmsg runs with MSG_DONTWAIT inside RawConn.Read, returning false
// on EAGAIN so the goroutine parks until the socket is readable
// instead of spinning. A closed socket surfaces as net.ErrClosed from
// RawConn.Read/Write, which is the same shutdown signal the per-packet
// loop and the shard supervisor already speak.
//
// The syscall package is used directly (this repository deliberately
// avoids x/sys/unix); SO_TIMESTAMPING and the sendmmsg syscall number
// (frozen out of package syscall before kernel 3.0) are defined
// locally for the two supported architectures.

package ntp

import (
	"encoding/binary"
	"errors"
	"net"
	"os"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/ratelimit"
)

const (
	// batchDefault and batchMax bound ServerConfig.Batch: 32 packets
	// per syscall already cuts the syscall budget 16×; past 64 the
	// slab footprint grows faster than the amortization shrinks.
	batchDefault = 32
	batchMax     = 64

	// rxBufSize is one receive slot: the 48-byte header, the only
	// bytes handlePacket parses. The kernel silently truncates a longer
	// datagram (extension fields, padding) to the slot and reports the
	// copied length, so it is answered exactly like a bare header.
	rxBufSize = PacketSize

	// oobSize holds one scm_timestamping control message (16-byte
	// cmsghdr + three timespecs = 64 bytes) with room for one more
	// cmsg (e.g. SO_RXQ_OVFL) before truncation.
	oobSize = 128

	// errBatch and errBufSize size the TX error-queue drain slabs: one
	// recvmmsg drains up to errBatch looped-back replies, each at most
	// IPv6+UDP headers plus the 48-byte payload (96 bytes) — errBufSize
	// leaves headroom for options. The drain runs after every flush, so
	// the queue depth tracks the send batch.
	errBatch   = 16
	errBufSize = 128

	// txRingSize is the reply→send-time correlation ring (open
	// addressed by a hash of the Transmit cookie, txRingProbe-way
	// set-associative). A full probe window evicts the oldest entry —
	// that stamp is counted as KernelTxMissing, never wrong. Sized so
	// a full sendmmsg batch of distinct cookies correlates with
	// negligible collision loss.
	txRingSize  = 512
	txRingProbe = 4
)

// mmsghdr mirrors struct mmsghdr from <sys/socket.h>: one msghdr plus
// the kernel-written datagram length. The trailing pad keeps the
// 64-bit layout the kernel expects when given an array of these.
type mmsghdr struct {
	hdr   syscall.Msghdr
	nrecv uint32
	_     [4]byte
}

// Compile-time layout guards: the kernel ABI expects 64-byte mmsghdr
// entries (56-byte msghdr + length + pad) on both supported
// architectures; a negative array length here breaks the build if the
// struct drifts.
var (
	_ [unsafe.Sizeof(mmsghdr{}) - 64]byte
	_ [64 - unsafe.Sizeof(mmsghdr{})]byte
)

// serveBatch runs the batched loop when the transport and
// configuration allow it: a *net.UDPConn (raw fd access) and an
// effective batch size above 1. handled=false means the caller should
// fall back to the per-packet loop.
func (s *Server) serveBatch(pc net.PacketConn) (handled bool, err error) {
	batch := s.batch
	if batch == 0 {
		batch = batchDefault
	}
	if batch > batchMax {
		batch = batchMax
	}
	if batch <= 1 {
		return false, nil
	}
	uc, ok := pc.(*net.UDPConn)
	if !ok {
		return false, nil
	}
	rc, err := uc.SyscallConn()
	if err != nil {
		// No raw fd access (wrapped or already-closed conn): the
		// per-packet loop will surface whatever is wrong.
		return false, nil
	}
	bl := newBatchLoop(s, rc, batch)
	return true, bl.run()
}

// batchLoop is one shard's batched serving state: the slabs the kernel
// reads and writes, the mmsghdr arrays wired into them once at setup,
// and the RawConn callbacks (created once — a closure per batch would
// be a steady-state allocation).
type batchLoop struct {
	srv        *Server
	rc         syscall.RawConn
	batch      int
	stamping   bool // SO_TIMESTAMPING RX armed on the socket
	txStamping bool // SOF_TIMESTAMPING_TX_SOFTWARE armed (ServerConfig.TxStamp)

	pktIn  []byte                     // batch × rxBufSize receive slab
	pktOut []byte                     // batch × PacketSize reply slab
	names  []syscall.RawSockaddrInet6 // packet sources; sockaddr_in6 is the largest a UDP socket reports
	oob    []byte                     // batch × oobSize control slab
	riovs  []syscall.Iovec
	rmsgs  []mmsghdr
	siovs  []syscall.Iovec
	smsgs  []mmsghdr

	// TX error-queue drain slabs (allocated only when txStamping) and
	// the cookie→send-time correlation ring. procWall is the wall time
	// the current batch was processed at, recorded so flush can stamp
	// every sent reply's ring entry without re-reading the clock.
	errPkt   []byte // errBatch × errBufSize looped-packet slab
	errOob   []byte // errBatch × oobSize control slab
	erriovs  []syscall.Iovec
	errmsgs  []mmsghdr
	txRing   []txRingEntry
	procWall int64

	// Syscall results, carried out of the RawConn callbacks.
	recvN   int
	recvErr syscall.Errno
	sentN   int
	sendErr syscall.Errno
	sendOff int // first unsent smsgs entry of the current flush
	sendCnt int // smsgs entries in the current flush

	readFn  func(fd uintptr) bool
	writeFn func(fd uintptr) bool
	drainFn func(fd uintptr)
}

// txRingEntry correlates one sent reply (by its Transmit cookie) with
// the wall time its batch was processed, so the error-queue stamp can
// be turned into a userspace→kernel dwell.
type txRingEntry struct {
	cookie uint64
	sent   int64 // procWall nanos at handlePacket time
}

// txRingIdx hashes a Transmit cookie to its home slot in the
// correlation ring (Fibonacci hashing; the cookie's low bits are
// fractional-second noise, the multiply spreads them across the
// table).
//
//repro:hotpath
func txRingIdx(cookie uint64) int {
	return int((cookie * 0x9E3779B97F4A7C15) >> (64 - 9)) // log2(txRingSize) bits
}

// txRingInsert records a sent reply in the correlation ring: take the
// first free (or same-cookie) slot in the probe window, else evict the
// oldest entry — whose stamp, if it ever loops back, is simply counted
// missing. A cookie of zero marks a free slot; Marshal never emits a
// zero Transmit for a served reply.
//
//repro:hotpath
func (bl *batchLoop) txRingInsert(cookie uint64, sent int64) {
	base := txRingIdx(cookie)
	victim := base
	oldest := int64(1<<63 - 1)
	for p := 0; p < txRingProbe; p++ {
		i := (base + p) & (txRingSize - 1)
		ent := &bl.txRing[i]
		if ent.cookie == 0 || ent.cookie == cookie {
			ent.cookie, ent.sent = cookie, sent
			return
		}
		if ent.sent < oldest {
			oldest, victim = ent.sent, i
		}
	}
	bl.txRing[victim] = txRingEntry{cookie: cookie, sent: sent}
}

// txRingTake looks a looped-back cookie up in the probe window and
// frees the slot on a hit, keeping ring occupancy proportional to the
// stamps still in flight.
//
//repro:hotpath
func (bl *batchLoop) txRingTake(cookie uint64) (int64, bool) {
	base := txRingIdx(cookie)
	for p := 0; p < txRingProbe; p++ {
		ent := &bl.txRing[(base+p)&(txRingSize-1)]
		if ent.cookie == cookie {
			ent.cookie = 0
			return ent.sent, true
		}
	}
	return 0, false
}

// newBatchLoop allocates and wires the slabs. Receive-side mmsghdrs
// point at fixed per-slot buffers; send-side mmsghdrs have fixed
// iovecs into the reply slab (reply k always lands in out slot k) and
// only their Name/Namelen vary per batch, set during process.
func newBatchLoop(s *Server, rc syscall.RawConn, batch int) *batchLoop {
	bl := &batchLoop{
		srv:    s,
		rc:     rc,
		batch:  batch,
		pktIn:  make([]byte, batch*rxBufSize),
		pktOut: make([]byte, batch*PacketSize),
		names:  make([]syscall.RawSockaddrInet6, batch),
		oob:    make([]byte, batch*oobSize),
		riovs:  make([]syscall.Iovec, batch),
		rmsgs:  make([]mmsghdr, batch),
		siovs:  make([]syscall.Iovec, batch),
		smsgs:  make([]mmsghdr, batch),
	}
	for i := 0; i < batch; i++ {
		bl.riovs[i].Base = &bl.pktIn[i*rxBufSize]
		bl.riovs[i].Len = rxBufSize
		bl.rmsgs[i].hdr.Name = (*byte)(unsafe.Pointer(&bl.names[i]))
		bl.rmsgs[i].hdr.Iov = &bl.riovs[i]
		bl.rmsgs[i].hdr.Iovlen = 1
		bl.rmsgs[i].hdr.Control = &bl.oob[i*oobSize]

		bl.siovs[i].Base = &bl.pktOut[i*PacketSize]
		bl.siovs[i].Len = PacketSize
		bl.smsgs[i].hdr.Iov = &bl.siovs[i]
		bl.smsgs[i].hdr.Iovlen = 1
	}
	bl.resetHeaders(batch)

	// Arm RX stamps always; add TX stamps when configured. A kernel
	// that rejects the combined flags (no TX loopback support) falls
	// back to RX-only rather than losing both.
	rxFlags := sofTimestampingRxSoftware | sofTimestampingSoftware
	if s.txStamp && armTimestamping(rc, rxFlags|sofTimestampingTxSoftware) {
		bl.stamping, bl.txStamping = true, true
	} else {
		bl.stamping = armTimestamping(rc, rxFlags)
	}
	if bl.txStamping {
		bl.errPkt = make([]byte, errBatch*errBufSize)
		bl.errOob = make([]byte, errBatch*oobSize)
		bl.erriovs = make([]syscall.Iovec, errBatch)
		bl.errmsgs = make([]mmsghdr, errBatch)
		bl.txRing = make([]txRingEntry, txRingSize)
		for i := 0; i < errBatch; i++ {
			bl.erriovs[i].Base = &bl.errPkt[i*errBufSize]
			bl.erriovs[i].Len = errBufSize
			bl.errmsgs[i].hdr.Iov = &bl.erriovs[i]
			bl.errmsgs[i].hdr.Iovlen = 1
			bl.errmsgs[i].hdr.Control = &bl.errOob[i*oobSize]
		}
		bl.drainFn = func(fd uintptr) { bl.drainErrqueue(fd) }
	}

	bl.readFn = func(fd uintptr) bool {
		n, _, e := syscall.Syscall6(syscall.SYS_RECVMMSG, fd,
			uintptr(unsafe.Pointer(&bl.rmsgs[0])), uintptr(bl.batch),
			syscall.MSG_DONTWAIT, 0, 0)
		if e == syscall.EAGAIN {
			// A pending error-queue entry raises POLLERR, which wakes
			// this read without making the receive queue readable;
			// draining here both harvests the TX stamps and clears the
			// condition so the park is not a spin.
			if bl.txStamping {
				bl.drainErrqueue(fd)
			}
			return false // park on the netpoller until readable
		}
		bl.srv.stats.recvCalls.Add(1)
		if e != 0 {
			bl.recvN, bl.recvErr = 0, e
		} else {
			bl.recvN, bl.recvErr = int(n), 0
		}
		return true
	}
	bl.writeFn = func(fd uintptr) bool {
		n, _, e := syscall.Syscall6(sysSendmmsg, fd,
			uintptr(unsafe.Pointer(&bl.smsgs[bl.sendOff])), uintptr(bl.sendCnt-bl.sendOff),
			syscall.MSG_DONTWAIT, 0, 0)
		if e == syscall.EAGAIN {
			return false // park until writable (rare for UDP)
		}
		bl.srv.stats.sendCalls.Add(1)
		if e != 0 {
			bl.sentN, bl.sendErr = 0, e
		} else {
			bl.sentN, bl.sendErr = int(n), 0
		}
		return true
	}
	return bl
}

// run is the shard loop: drain a batch, process it in place, flush the
// replies, reset the kernel-written header fields, repeat. Error
// semantics match the per-packet loop: timeouts continue, a closed
// socket (or genuine socket failure) returns and lets the shard
// supervisor decide.
func (bl *batchLoop) run() error {
	for {
		if err := bl.rc.Read(bl.readFn); err != nil {
			var nerr net.Error
			if errors.As(err, &nerr) && nerr.Timeout() {
				continue
			}
			return err
		}
		if bl.recvErr != 0 {
			if bl.recvErr == syscall.EINTR {
				continue
			}
			return os.NewSyscallError("recvmmsg", bl.recvErr)
		}
		n := bl.recvN
		if n <= 0 {
			continue
		}
		nOut := bl.process(n)
		if nOut > 0 {
			if err := bl.flush(nOut); err != nil {
				return err
			}
			if bl.txStamping {
				// Harvest the TX stamps the kernel queued while (and
				// right after) the flush; anything not yet looped back
				// is picked up by the next drain or the POLLERR wake.
				_ = bl.rc.Control(bl.drainFn)
			}
		}
		bl.resetHeaders(n)
	}
}

// process runs the per-packet pipeline over one received batch and
// compacts the replies into the send slots, returning how many replies
// to flush. Reply k's payload is already in out slot k (fixed iovec);
// only its destination sockaddr is wired here, pointing at the
// receive-side name slot the kernel filled.
//
//repro:hotpath
func (bl *batchLoop) process(n int) int {
	s := bl.srv
	s.stats.requests.Add(uint64(n))
	// One wall read ages every kernel stamp in the batch: the spread
	// within a batch is microseconds, far below stampMaxAge. The same
	// read anchors the TX correlation ring (procWall) and one
	// txAdvance lookup forward-dates every reply in the batch.
	now := time.Now()
	bl.procWall = now.UnixNano()
	var txAdv time.Duration
	if bl.txStamping {
		txAdv = s.txAdvance()
	}
	kStamped, kMissing, kClamped := uint64(0), uint64(0), uint64(0)
	nOut := 0
	for i := 0; i < n; i++ {
		if s.limit != nil {
			// The batched rate-limit path keys straight off the raw
			// sockaddr bytes the kernel wrote — no net.Addr boxing, no
			// net.IP allocation (see Limiter.AllowAddr for the
			// per-packet loop's boxed equivalent).
			if key, ok := bl.prefixKey(i); ok && !s.limit.Allow(key) {
				s.stats.rateLimited.Add(1)
				continue
			}
		}
		var rxAge time.Duration
		if sec, nsec, ok := parseRxTimestamp(bl.oob[i*oobSize : i*oobSize+int(bl.rmsgs[i].hdr.Controllen)]); ok {
			rxAge = now.Sub(time.Unix(sec, nsec))
			if rxAge >= 0 && rxAge <= stampMaxAge {
				kStamped++
			} else if rxAge >= -stampSlack && rxAge < 0 {
				// Sub-millisecond negative age is wall-clock jitter
				// between the kernel stamp and our read, not a lie.
				rxAge = 0
				kStamped++
				kClamped++
			} else {
				rxAge = 0 // a clock step; the sample time is safer
				kMissing++
				kClamped++
			}
		} else {
			kMissing++
		}
		in := bl.pktIn[i*rxBufSize : i*rxBufSize+int(bl.rmsgs[i].nrecv)]
		out := (*[PacketSize]byte)(bl.pktOut[nOut*PacketSize:])
		if !s.handlePacket(in, out, rxAge, txAdv) {
			continue
		}
		bl.smsgs[nOut].hdr.Name = (*byte)(unsafe.Pointer(&bl.names[i]))
		bl.smsgs[nOut].hdr.Namelen = bl.rmsgs[i].hdr.Namelen
		nOut++
	}
	s.stats.kernelRx.Add(kStamped)
	s.stats.kernelRxMissing.Add(kMissing)
	if kClamped > 0 {
		s.stats.stampClamped.Add(kClamped)
	}
	return nOut
}

// flush sends the first n compacted replies with as few sendmmsg
// calls as the kernel allows. Partial sends resume at the first
// unsent message; a per-message failure (spoofed unroutable source,
// transient ENOBUFS) is counted and skipped, exactly like the
// per-packet loop's WriteTo error path. Only a closed socket aborts.
func (bl *batchLoop) flush(n int) error {
	bl.sendOff, bl.sendCnt = 0, n
	for bl.sendOff < bl.sendCnt {
		if err := bl.rc.Write(bl.writeFn); err != nil {
			return err
		}
		if bl.sendErr != 0 {
			if bl.sendErr == syscall.EINTR {
				continue
			}
			// sendmmsg failed on the head message without sending
			// anything: charge that one message and move past it.
			bl.srv.stats.writeErrors.Add(1)
			bl.sendOff++
			continue
		}
		bl.srv.stats.replied.Add(uint64(bl.sentN))
		if bl.txStamping {
			// Record every sent reply's Transmit cookie against the
			// batch's process time so the looped-back error-queue copy
			// can be correlated into a userspace→kernel dwell.
			for k := bl.sendOff; k < bl.sendOff+bl.sentN; k++ {
				ck := binary.BigEndian.Uint64(bl.pktOut[k*PacketSize+40:])
				bl.txRingInsert(ck, bl.procWall)
			}
		}
		bl.sendOff += bl.sentN
	}
	return nil
}

// drainErrqueue empties the socket error queue of looped-back TX
// copies: each recvmmsg with MSG_ERRQUEUE drains up to errBatch
// entries into the preallocated slabs, processTxStamps correlates them
// to sent replies, and the loop stops when a drain comes back short
// (queue empty). Runs inside a RawConn callback (fd is valid for the
// duration); never blocks.
//
//repro:hotpath
func (bl *batchLoop) drainErrqueue(fd uintptr) {
	for {
		bl.resetErrHeaders()
		n, _, e := syscall.Syscall6(syscall.SYS_RECVMMSG, fd,
			uintptr(unsafe.Pointer(&bl.errmsgs[0])), uintptr(errBatch),
			syscall.MSG_ERRQUEUE|syscall.MSG_DONTWAIT, 0, 0)
		if e != 0 || n == 0 {
			return
		}
		bl.processTxStamps(int(n))
		if int(n) < errBatch {
			return
		}
	}
}

// processTxStamps turns n drained error-queue entries into TX dwell
// samples: parse the SCM_TIMESTAMPING cmsg, read the Transmit cookie
// off the looped payload's tail, look up the send time in the
// correlation ring, and feed the clamp-checked dwell into the server's
// EWMA and histogram. Split from drainErrqueue so the deterministic
// correlation test and the zero-alloc gate can drive it with
// hand-built slabs.
//
//repro:hotpath
func (bl *batchLoop) processTxStamps(n int) {
	s := bl.srv
	var stamped, missing, clamped uint64
	for i := 0; i < n; i++ {
		oob := bl.errOob[i*oobSize : i*oobSize+int(bl.errmsgs[i].hdr.Controllen)]
		sec, nsec, ok := parseTxTimestamp(oob)
		if !ok {
			missing++
			continue
		}
		ck, ok := txPayloadCookie(bl.errPkt[i*errBufSize : i*errBufSize+int(bl.errmsgs[i].nrecv)])
		if !ok {
			missing++
			continue
		}
		sent, ok := bl.txRingTake(ck)
		if !ok {
			// Evicted by a colliding cookie (or a stamp for a reply
			// sent before this loop started): uncorrelatable.
			missing++
			continue
		}
		dwell := sec*1e9 + nsec - sent
		if dwell < -int64(stampSlack) || dwell > int64(stampMaxAge) {
			// A clock step between process time and the kernel stamp;
			// the dwell would poison the EWMA.
			clamped++
			missing++
			continue
		}
		if dwell < 0 {
			clamped++
			dwell = 0
		}
		s.recordTxDwell(dwell)
		stamped++
	}
	if stamped > 0 {
		s.stats.kernelTx.Add(stamped)
	}
	if missing > 0 {
		s.stats.kernelTxMissing.Add(missing)
	}
	if clamped > 0 {
		s.stats.stampClamped.Add(clamped)
	}
}

// resetErrHeaders restores the kernel-written header fields of the
// error-queue receive slots before the next drain.
//
//repro:hotpath
func (bl *batchLoop) resetErrHeaders() {
	for i := 0; i < errBatch; i++ {
		bl.errmsgs[i].hdr.Controllen = oobSize
		bl.errmsgs[i].hdr.Flags = 0
		bl.errmsgs[i].nrecv = 0
	}
}

// resetHeaders restores the kernel-written in/out header fields of the
// first n receive slots before the next recvmmsg: the kernel shrinks
// Namelen/Controllen to the actual lengths and sets Flags, and would
// otherwise truncate the next batch's sockaddrs and control messages.
//
//repro:hotpath
func (bl *batchLoop) resetHeaders(n int) {
	for i := 0; i < n; i++ {
		bl.rmsgs[i].hdr.Namelen = syscall.SizeofSockaddrInet6
		bl.rmsgs[i].hdr.Controllen = oobSize
		bl.rmsgs[i].hdr.Flags = 0
	}
}

// prefixKey derives the rate-limiter key for packet i straight from
// the raw sockaddr the kernel wrote, mirroring ratelimit.PrefixKey's
// classification (v4 and v4-mapped addresses share the v4 key space).
// ok=false (unknown family) fails open, like AllowAddr.
//
//repro:hotpath
func (bl *batchLoop) prefixKey(i int) (uint64, bool) {
	sa := &bl.names[i]
	switch sa.Family {
	case syscall.AF_INET:
		sa4 := (*syscall.RawSockaddrInet4)(unsafe.Pointer(sa))
		return ratelimit.PrefixKey4(sa4.Addr), true
	case syscall.AF_INET6:
		return ratelimit.PrefixKey16(&sa.Addr), true
	}
	return 0, false
}
