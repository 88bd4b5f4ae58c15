//go:build linux && (amd64 || arm64)

package transport

import (
	"net"
	"net/netip"
	"syscall"
	"unsafe"
)

// newBatchConn selects the recvmmsg/sendmmsg backend, falling back to
// the portable path if the raw connection is unavailable.
func newBatchConn(c *net.UDPConn) batchConn {
	if bc, err := newMMsgConn(c); err == nil {
		return bc
	}
	return newSingleConn(c)
}

// mmsghdr mirrors the kernel's struct mmsghdr: a msghdr plus the
// per-message transfer length, padded to pointer alignment.
type mmsghdr struct {
	hdr syscall.Msghdr
	len uint32
	_   [4]byte
}

// mmsgConn moves up to len(ms) datagrams per recvmmsg/sendmmsg syscall,
// staying on the runtime netpoller through syscall.RawConn: the raw
// syscalls run non-blocking (MSG_DONTWAIT) inside RawConn.Read/Write,
// which park the goroutine on EAGAIN exactly like the net package does.
//
// The scatter/gather arrays persist across calls. Read state and write
// state are disjoint because one reader and one flusher goroutine share
// the conn; neither side is safe for concurrent use with itself.
type mmsgConn struct {
	c  *net.UDPConn
	rc syscall.RawConn
	v6 bool

	rhdrs  []mmsghdr
	riovs  []syscall.Iovec
	rnames []syscall.RawSockaddrAny

	whdrs  []mmsghdr
	wiovs  []syscall.Iovec
	wnames []syscall.RawSockaddrAny

	// rcall/wcall are the callbacks RawConn.Read/Write run, bound once: a
	// closure per batch would cost three allocations a syscall. Each takes
	// the datagram count from rn/wn and leaves there the count moved, and
	// the syscall's error in rerr/werr.
	rcall, wcall func(fd uintptr) bool
	rn, wn       int
	rerr, werr   syscall.Errno
}

func newMMsgConn(c *net.UDPConn) (*mmsgConn, error) {
	rc, err := c.SyscallConn()
	if err != nil {
		return nil, err
	}
	laddr, _ := c.LocalAddr().(*net.UDPAddr)
	v6 := laddr != nil && laddr.IP.To4() == nil
	m := &mmsgConn{c: c, rc: rc, v6: v6}
	m.rcall = func(fd uintptr) bool { return mmsg(sysRECVMMSG, fd, m.rhdrs, &m.rn, &m.rerr) }
	m.wcall = func(fd uintptr) bool { return mmsg(sysSENDMMSG, fd, m.whdrs, &m.wn, &m.werr) }
	return m, nil
}

// mmsg runs one non-blocking recvmmsg or sendmmsg over hdrs[:*n]. It
// reports false on EAGAIN, for the runtime poller to wait and call again;
// otherwise it stores the datagrams moved in *n and the error in *errno.
func mmsg(trap, fd uintptr, hdrs []mmsghdr, n *int, errno *syscall.Errno) bool {
	r, _, e := syscall.Syscall6(trap, fd, uintptr(unsafe.Pointer(&hdrs[0])), uintptr(*n),
		uintptr(syscall.MSG_DONTWAIT), 0, 0)
	if e == syscall.EAGAIN {
		return false
	}
	*n, *errno = int(r), e
	return true
}

func (m *mmsgConn) ReadBatch(ms []ioMsg) (int, error) {
	n := len(ms)
	if n == 0 {
		return 0, nil
	}
	if len(m.rhdrs) < n {
		m.rhdrs = make([]mmsghdr, n)
		m.riovs = make([]syscall.Iovec, n)
		m.rnames = make([]syscall.RawSockaddrAny, n)
	}
	for i := 0; i < n; i++ {
		m.riovs[i] = syscall.Iovec{Base: unsafe.SliceData(ms[i].Buf)}
		m.riovs[i].SetLen(len(ms[i].Buf))
		m.rhdrs[i].hdr = syscall.Msghdr{
			Name:    (*byte)(unsafe.Pointer(&m.rnames[i])),
			Namelen: syscall.SizeofSockaddrAny,
			Iov:     &m.riovs[i],
		}
		m.rhdrs[i].hdr.Iovlen = 1
		m.rhdrs[i].len = 0
	}
	m.rn = n
	if err := m.rc.Read(m.rcall); err != nil {
		return 0, err
	}
	if m.rerr != 0 {
		return 0, m.rerr
	}
	got := m.rn
	for i := 0; i < got; i++ {
		ms[i].N = int(m.rhdrs[i].len)
		ms[i].Addr = sockaddrToAddrPort(&m.rnames[i])
	}
	return got, nil
}

func (m *mmsgConn) readSlots() int { return muxReadSlots }

func (m *mmsgConn) WriteBatch(ms []ioMsg) (int, error) {
	if len(ms) == 0 {
		return 0, nil
	}
	if len(m.whdrs) < len(ms) {
		m.whdrs = make([]mmsghdr, len(ms))
		m.wiovs = make([]syscall.Iovec, len(ms))
		m.wnames = make([]syscall.RawSockaddrAny, len(ms))
	}
	// Encode the longest prefix of destinations this socket's family can
	// carry; an unencodable head datagram is consumed as loss.
	k := 0
	for k < len(ms) {
		nl := addrPortToSockaddr(ms[k].Addr, &m.wnames[k], m.v6)
		if nl == 0 {
			break
		}
		m.wiovs[k] = syscall.Iovec{Base: unsafe.SliceData(ms[k].Buf)}
		m.wiovs[k].SetLen(len(ms[k].Buf))
		m.whdrs[k].hdr = syscall.Msghdr{
			Name:    (*byte)(unsafe.Pointer(&m.wnames[k])),
			Namelen: nl,
			Iov:     &m.wiovs[k],
		}
		m.whdrs[k].hdr.Iovlen = 1
		m.whdrs[k].len = 0
		k++
	}
	if k == 0 {
		return 1, nil
	}
	m.wn = k
	if err := m.rc.Write(m.wcall); err != nil {
		return 0, err
	}
	if m.werr != 0 {
		return 0, m.werr
	}
	return m.wn, nil
}

// sockaddrToAddrPort decodes a kernel-filled source address.
func sockaddrToAddrPort(rsa *syscall.RawSockaddrAny) netip.AddrPort {
	switch rsa.Addr.Family {
	case syscall.AF_INET:
		sa := (*syscall.RawSockaddrInet4)(unsafe.Pointer(rsa))
		return netip.AddrPortFrom(netip.AddrFrom4(sa.Addr), ntohs(sa.Port))
	case syscall.AF_INET6:
		sa := (*syscall.RawSockaddrInet6)(unsafe.Pointer(rsa))
		return netip.AddrPortFrom(netip.AddrFrom16(sa.Addr).Unmap(), ntohs(sa.Port))
	}
	return netip.AddrPort{}
}

// addrPortToSockaddr encodes a destination for this socket's family,
// returning the sockaddr length or 0 if the family cannot carry it.
func addrPortToSockaddr(ap netip.AddrPort, rsa *syscall.RawSockaddrAny, v6 bool) uint32 {
	a := ap.Addr()
	if v6 {
		sa := (*syscall.RawSockaddrInet6)(unsafe.Pointer(rsa))
		*sa = syscall.RawSockaddrInet6{
			Family: syscall.AF_INET6,
			Port:   htons(ap.Port()),
			// As16 maps IPv4 destinations to ::ffff:a.b.c.d, which a
			// dual-stack socket routes over IPv4.
			Addr: a.As16(),
		}
		return syscall.SizeofSockaddrInet6
	}
	if !a.Is4() && !a.Is4In6() {
		return 0
	}
	sa := (*syscall.RawSockaddrInet4)(unsafe.Pointer(rsa))
	*sa = syscall.RawSockaddrInet4{
		Family: syscall.AF_INET,
		Port:   htons(ap.Port()),
		Addr:   a.Unmap().As4(),
	}
	return syscall.SizeofSockaddrInet4
}

// htons/ntohs convert a port between host and network byte order,
// endian-agnostically: sockaddr Port fields hold network order in
// native memory.
func htons(v uint16) uint16 {
	b := [2]byte{byte(v >> 8), byte(v)}
	return *(*uint16)(unsafe.Pointer(&b[0]))
}

func ntohs(v uint16) uint16 {
	b := (*[2]byte)(unsafe.Pointer(&v))
	return uint16(b[0])<<8 | uint16(b[1])
}
