package main

import (
	"strings"
	"testing"
)

const procNetUDP = `   sl  local_address rem_address   st tx_queue rx_queue tr tm->when retrnsmt   uid  timeout inode ref pointer drops
  210: 0100007F:9C41 00000000:0000 07 00000000:00000000 00:00000000 00000000     0        0 41225 2 0000000000000000 12
  211: 0100007F:9C41 00000000:0000 07 00000000:00000300 00:00000000 00000000     0        0 41226 2 0000000000000000 30
 1337: 00000000:D431 00000000:0000 07 00000000:00000000 00:00000000 00000000     0        0 41230 2 0000000000000000 0
 4000: 0100007F:0035 00000000:0000 07 00000000:00000000 00:00000000 00000000     0        0 1000 2 0000000000000000 18446744073709551615
`

func TestUDPDrops(t *testing.T) {
	got, err := udpDrops(strings.NewReader(procNetUDP))
	if err != nil {
		t.Fatal(err)
	}
	want := map[uint16]uint64{0x9C41: 42, 0xD431: 0, 0x35: 18446744073709551615}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for port, d := range want {
		if got[port] != d {
			t.Errorf("port %d: %d drops, want %d", port, got[port], d)
		}
	}
}

func TestUDPDropsMalformed(t *testing.T) {
	header, _, _ := strings.Cut(procNetUDP, "\n")
	for _, in := range []string{
		"garbage\n",
		header + "\n  1: 0100007F9C41 00000000:0000 07 00000000:00000000 00:00000000 00000000 0 0 1 2 0 5\n",
		header + "\n  1: 0100007F:ZZZZ 00000000:0000 07 00000000:00000000 00:00000000 00000000 0 0 1 2 0 5\n",
		header + "\n  1: 0100007F:9C41 00000000:0000 07 00000000:00000000 00:00000000 00000000 0 0 1 2 0 x\n",
	} {
		if _, err := udpDrops(strings.NewReader(in)); err == nil {
			t.Errorf("no error for %q", in)
		}
	}
	// Short lines (a truncated read) are skipped, not misparsed.
	if m, err := udpDrops(strings.NewReader(header + "\n  1: 0100007F:9C41\n")); err != nil || len(m) != 0 {
		t.Errorf("truncated line: %v, %v", m, err)
	}
}
