//go:build linux && (amd64 || arm64)

package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/ntp"
)

// The generator's socket: one unconnected UDP socket bound to the
// wildcard address. Each datagram picks its source address through an
// IP_PKTINFO control message, so one socket speaks for a whole client
// population — the relay's SO_REUSEPORT hash spreads it over the
// shards, and its limiter sees many prefixes. Replies to every source
// address in 127/8 come back to the same socket, stamped by the kernel
// on arrival (SO_TIMESTAMPNS).

// mmsghdr mirrors struct mmsghdr on 64-bit Linux.
type mmsghdr struct {
	hdr syscall.Msghdr
	n   uint32
	_   [4]byte
}

const (
	genBatch  = 64
	pktinfoSz = int(unsafe.Sizeof(syscall.Inet4Pktinfo{}))
	ctlSize   = 64
)

type genSock struct {
	conn *net.UDPConn
	rc   syscall.RawConn
	port int
	dst  syscall.RawSockaddrInet4

	// Send slabs.
	shdr [genBatch]mmsghdr
	siov [genBatch]syscall.Iovec
	spkt [genBatch][ntp.PacketSize]byte
	sctl [genBatch][ctlSize]byte

	// Receive slabs.
	rhdr [genBatch]mmsghdr
	riov [genBatch]syscall.Iovec
	rpkt [genBatch][128]byte
	rctl [genBatch][ctlSize]byte
}

// openGenSock opens the generator socket aimed at dst.
func openGenSock(dst *net.UDPAddr) (*genSock, error) {
	conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4zero})
	if err != nil {
		return nil, err
	}
	g := &genSock{conn: conn, port: conn.LocalAddr().(*net.UDPAddr).Port}
	if g.rc, err = conn.SyscallConn(); err != nil {
		conn.Close()
		return nil, err
	}
	var serr error
	if err := g.rc.Control(func(fd uintptr) {
		serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_TIMESTAMPNS, 1)
		if serr == nil {
			// The generator must not be the bottleneck: a deep queue for
			// the replies (the kernel caps it at rmem_max).
			serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RCVBUF, 4<<20)
		}
	}); err != nil || serr != nil {
		conn.Close()
		return nil, errors.Join(err, serr)
	}
	g.dst.Family = syscall.AF_INET
	copy(g.dst.Addr[:], dst.IP.To4())
	binary.BigEndian.PutUint16((*[2]byte)(unsafe.Pointer(&g.dst.Port))[:], uint16(dst.Port))
	for i := range g.shdr {
		h := &g.shdr[i].hdr
		h.Name = (*byte)(unsafe.Pointer(&g.dst))
		h.Namelen = syscall.SizeofSockaddrInet4
		h.Iov = &g.siov[i]
		h.Iovlen = 1
		g.siov[i].Base = &g.spkt[i][0]
		cm := (*syscall.Cmsghdr)(unsafe.Pointer(&g.sctl[i][0]))
		cm.Level = syscall.IPPROTO_IP
		cm.Type = syscall.IP_PKTINFO
		cm.SetLen(syscall.CmsgLen(pktinfoSz))
		h.Control = &g.sctl[i][0]
		h.SetControllen(syscall.CmsgSpace(pktinfoSz))
	}
	for i := range g.rhdr {
		h := &g.rhdr[i].hdr
		h.Iov = &g.riov[i]
		h.Iovlen = 1
		g.riov[i].Base = &g.rpkt[i][0]
		g.riov[i].SetLen(len(g.rpkt[i]))
		h.Control = &g.rctl[i][0]
	}
	return g, nil
}

// send transmits one batch: datagram i has class b[i].cls, source
// address b[i].src and cookie cookies[i].
func (g *genSock) send(b []arrival, cookies []uint64) error {
	for i, a := range b {
		n := datagram(&g.spkt[i], a.cls, cookies[i])
		g.siov[i].SetLen(n)
		pi := (*syscall.Inet4Pktinfo)(unsafe.Pointer(&g.sctl[i][syscall.CmsgLen(0)]))
		*pi = syscall.Inet4Pktinfo{Spec_dst: a.src}
	}
	for off := 0; off < len(b); {
		var sent int
		var errno syscall.Errno
		err := g.rc.Write(func(fd uintptr) bool {
			r, _, e := syscall.Syscall6(sysSendmmsg, fd, uintptr(unsafe.Pointer(&g.shdr[off])),
				uintptr(len(b)-off), 0, 0, 0)
			if e == syscall.EAGAIN {
				return false
			}
			sent, errno = int(r), e
			return true
		})
		switch {
		case err != nil:
			return err
		case errno == syscall.EINTR:
			continue
		case errno != 0:
			return fmt.Errorf("sendmmsg: %w", errno)
		}
		off += sent
	}
	return nil
}

// recvLoop hands every received datagram to handle with its kernel
// arrival stamp and the time it was read (both Unix ns; the stamp is 0
// when the kernel attached none) until the socket is closed.
func (g *genSock) recvLoop(handle func(b []byte, rxNs, readNs int64)) error {
	for {
		for i := range g.rhdr {
			g.rhdr[i].hdr.SetControllen(ctlSize)
		}
		var n int
		var errno syscall.Errno
		err := g.rc.Read(func(fd uintptr) bool {
			r, _, e := syscall.Syscall6(syscall.SYS_RECVMMSG, fd, uintptr(unsafe.Pointer(&g.rhdr[0])),
				genBatch, syscall.MSG_DONTWAIT, 0, 0)
			if e == syscall.EAGAIN {
				return false
			}
			n, errno = int(r), e
			return true
		})
		switch {
		case err != nil:
			return err
		case errno == syscall.EINTR:
			continue
		case errno != 0:
			return fmt.Errorf("recvmmsg: %w", errno)
		}
		readNs := time.Now().UnixNano()
		for i := 0; i < n; i++ {
			h := &g.rhdr[i]
			handle(g.rpkt[i][:h.n], rxStamp(g.rctl[i][:h.hdr.Controllen]), readNs)
		}
	}
}

// rxStamp extracts the SCM_TIMESTAMPNS arrival stamp from a control
// buffer, or 0.
func rxStamp(ctl []byte) int64 {
	hdrLen := syscall.CmsgLen(0)
	for len(ctl) >= hdrLen {
		cm := (*syscall.Cmsghdr)(unsafe.Pointer(&ctl[0]))
		l := int(cm.Len)
		if l < hdrLen || l > len(ctl) {
			return 0
		}
		if cm.Level == syscall.SOL_SOCKET && cm.Type == syscall.SCM_TIMESTAMPNS && l >= hdrLen+16 {
			ts := (*syscall.Timespec)(unsafe.Pointer(&ctl[hdrLen]))
			return ts.Nano()
		}
		ctl = ctl[min(syscall.CmsgSpace(l-hdrLen), len(ctl)):]
	}
	return 0
}

func (g *genSock) close() error { return g.conn.Close() }

// sleepNs blocks the calling OS thread for about ns with a 1 ns timer
// slack: Go's timers wake about a millisecond late for sub-millisecond
// sleeps, far coarser than the gaps of an open-loop schedule.
func sleepNs(ns int64) {
	ts := syscall.NsecToTimespec(ns)
	_ = syscall.Nanosleep(&ts, nil)
}

// preciseSleepThread sets the calling thread's timer slack to 1 ns; the
// caller must hold runtime.LockOSThread.
func preciseSleepThread() {
	const prSetTimerslack = 29
	syscall.Syscall(syscall.SYS_PRCTL, prSetTimerslack, 1, 0)
}
