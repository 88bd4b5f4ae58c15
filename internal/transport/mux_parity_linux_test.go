//go:build linux && (amd64 || arm64)

package transport

import (
	"fmt"
	"net"
	"net/netip"
	"testing"
	"time"
)

// batchBackends builds both backends over fresh loopback sockets so the
// mmsg path and the portable fallback can be driven side by side.
func parityConn(t *testing.T) (*net.UDPConn, netip.AddrPort) {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatalf("ListenUDP: %v", err)
	}
	t.Cleanup(func() { conn.Close() })
	if err := conn.SetReadBuffer(1 << 22); err != nil {
		t.Fatalf("SetReadBuffer: %v", err)
	}
	return conn, unmapAddrPort(conn.LocalAddr().(*net.UDPAddr).AddrPort())
}

// TestBatchConnParity asserts the recvmmsg/sendmmsg path and the
// portable single-syscall fallback deliver identical packet streams:
// same payload multiset, same source addresses, loss-free on loopback.
// Ordering is not asserted — UDP does not promise it. Reads use
// MaxDatagram slots and each window carries one MaxDatagram payload, so
// both backends must move the largest legal datagram whole.
func TestBatchConnParity(t *testing.T) {
	const total = 256
	const window = 16

	type backend struct {
		name string
		mk   func(c *net.UDPConn) (batchConn, error)
	}
	backends := []backend{
		{"mmsg", func(c *net.UDPConn) (batchConn, error) { return newMMsgConn(c) }},
		{"single", func(c *net.UDPConn) (batchConn, error) { return newSingleConn(c), nil }},
	}

	results := make(map[string]map[string]int)
	for _, sender := range backends {
		for _, receiver := range backends {
			name := sender.name + "->" + receiver.name
			t.Run(name, func(t *testing.T) {
				sconn, saddr := parityConn(t)
				rconn, raddr := parityConn(t)
				sbc, err := sender.mk(sconn)
				if err != nil {
					t.Fatalf("sender backend: %v", err)
				}
				rbc, err := receiver.mk(rconn)
				if err != nil {
					t.Fatalf("receiver backend: %v", err)
				}

				// Send in small windows with a read pass between them so
				// the loopback socket buffer never overflows: the parity
				// contract assumes loss-free transfer.
				got := make(map[string]int)
				sent := 0
				rms := make([]ioMsg, window)
				for i := range rms {
					rms[i].Buf = make([]byte, MaxDatagram)
				}
				read := func(deadline time.Time) {
					for mapTotal(got) < sent {
						rconn.SetReadDeadline(deadline)
						n, err := rbc.ReadBatch(rms)
						if err != nil {
							t.Fatalf("ReadBatch after %d/%d payloads: %v", mapTotal(got), sent, err)
						}
						for i := 0; i < n; i++ {
							if rms[i].Addr != saddr {
								t.Fatalf("source addr = %v, want %v", rms[i].Addr, saddr)
							}
							got[string(rms[i].Buf[:rms[i].N])]++
						}
					}
				}
				for sent < total {
					ms := make([]ioMsg, 0, window)
					for i := 0; i < window && sent < total; i++ {
						buf := []byte(fmt.Sprintf("parity-%03d", sent))
						if i == 0 {
							buf = append(buf, make([]byte, MaxDatagram-len(buf))...)
							for j := len("parity-000"); j < len(buf); j++ {
								buf[j] = byte(j + sent)
							}
						}
						ms = append(ms, ioMsg{Buf: buf, Addr: raddr})
						sent++
					}
					for off := 0; off < len(ms); {
						n, err := sbc.WriteBatch(ms[off:])
						if err != nil {
							t.Fatalf("WriteBatch: %v", err)
						}
						if n == 0 {
							t.Fatalf("WriteBatch made no progress")
						}
						off += n
					}
					read(time.Now().Add(5 * time.Second))
				}
				if mapTotal(got) != total {
					t.Fatalf("received %d payloads, want %d", mapTotal(got), total)
				}
				results[name] = got
			})
		}
	}

	// Every backend pairing must have produced the exact same multiset.
	var refName string
	var ref map[string]int
	for name, got := range results {
		if ref == nil {
			refName, ref = name, got
			continue
		}
		if len(got) != len(ref) {
			t.Fatalf("%s saw %d distinct payloads, %s saw %d", name, len(got), refName, len(ref))
		}
		for k, v := range ref {
			if got[k] != v {
				t.Fatalf("payload %q: %s saw %d, %s saw %d", k, name, got[k], refName, v)
			}
		}
	}
}

func mapTotal(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}
