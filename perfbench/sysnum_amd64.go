//go:build linux

package main

// sysSendmmsg is __NR_sendmmsg on linux/amd64; the frozen syscall
// package predates it.
const sysSendmmsg = 307
