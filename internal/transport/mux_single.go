package transport

import (
	"errors"
	"net"
)

// singleConn is the portable batchConn: one syscall per datagram through
// the net package, with semantics identical to the batched Linux path —
// ReadBatch fills exactly one slot, WriteBatch consumes the whole prefix
// it can, treating transient per-datagram write errors as loss. Compiled
// on every platform; the parity test pits it against the mmsg path on
// Linux.
type singleConn struct {
	c *net.UDPConn
}

func newSingleConn(c *net.UDPConn) *singleConn { return &singleConn{c: c} }

func (s *singleConn) ReadBatch(ms []ioMsg) (int, error) {
	if len(ms) == 0 {
		return 0, nil
	}
	n, addr, err := s.c.ReadFromUDPAddrPort(ms[0].Buf)
	if err != nil {
		return 0, err
	}
	ms[0].N = n
	ms[0].Addr = addr
	return 1, nil
}

// readSlots is 1: ReadBatch fills ms[0] only, so a wider reader would
// park MaxDatagram buffers it never reads into.
func (s *singleConn) readSlots() int { return 1 }

func (s *singleConn) WriteBatch(ms []ioMsg) (int, error) {
	for i := range ms {
		if _, err := s.c.WriteToUDPAddrPort(ms[i].Buf, ms[i].Addr); err != nil {
			if errors.Is(err, net.ErrClosed) {
				return i, err
			}
			// Transient write errors (ICMP unreachable surfacing, ENOBUFS)
			// are loss: skip the datagram and keep going.
			continue
		}
	}
	return len(ms), nil
}
