package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// udpDrops parses /proc/net/udp and returns the kernel's per-socket
// receive drop counters summed by local port (SO_REUSEPORT shards share
// one port).
func udpDrops(r io.Reader) (map[uint16]uint64, error) {
	out := map[uint16]uint64{}
	sc := bufio.NewScanner(r)
	header := true
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if header {
			header = false
			if len(f) == 0 || f[0] != "sl" {
				return nil, fmt.Errorf("procnet: unexpected header %q", sc.Text())
			}
			continue
		}
		if len(f) < 13 {
			continue
		}
		_, portHex, ok := strings.Cut(f[1], ":")
		if !ok {
			return nil, fmt.Errorf("procnet: bad local address %q", f[1])
		}
		port, err := strconv.ParseUint(portHex, 16, 16)
		if err != nil {
			return nil, fmt.Errorf("procnet: bad port %q: %w", portHex, err)
		}
		drops, err := strconv.ParseUint(f[len(f)-1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("procnet: bad drops %q: %w", f[len(f)-1], err)
		}
		out[uint16(port)] += drops
	}
	return out, sc.Err()
}

// readUDPDrops reads the live table; an unreadable table counts as no
// drops (the figure is a diagnostic, not a result).
func readUDPDrops() map[uint16]uint64 {
	f, err := os.Open("/proc/net/udp")
	if err != nil {
		return map[uint16]uint64{}
	}
	defer f.Close()
	m, err := udpDrops(f)
	if err != nil {
		return map[uint16]uint64{}
	}
	return m
}
