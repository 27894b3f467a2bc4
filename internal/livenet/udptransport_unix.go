//go:build unix && !aix

package livenet

import (
	"net/netip"
	"strconv"
	"syscall"
)

// readQueued decodes the next frame already queued — left from the
// datagram read last, or at the socket — into the hand-over slot, and
// reports false, without waiting, once none is left. It reads with
// MSG_DONTWAIT on the socket's descriptor, because a read through the net
// package waits, and one under an expired deadline fails before it looks.
func (t *udpTransport) readQueued() bool {
	if t.next() {
		return true
	}
	rc, err := t.conn.SyscallConn()
	if err != nil {
		return false
	}
	for {
		var n int
		var sa syscall.Sockaddr
		if rc.Control(func(fd uintptr) {
			n, sa, err = syscall.Recvfrom(int(fd), t.buf, syscall.MSG_DONTWAIT)
		}) != nil {
			return false // closed
		}
		if err != nil {
			return false // EAGAIN: nothing queued
		}
		var src netip.AddrPort
		switch sa := sa.(type) {
		case *syscall.SockaddrInet4:
			src = netip.AddrPortFrom(netip.AddrFrom4(sa.Addr), uint16(sa.Port))
		case *syscall.SockaddrInet6:
			ip := netip.AddrFrom16(sa.Addr)
			if sa.ZoneId != 0 {
				// A numeric zone sends like the interface name the net
				// package would report.
				ip = ip.WithZone(strconv.Itoa(int(sa.ZoneId)))
			}
			src = netip.AddrPortFrom(ip, uint16(sa.Port))
		}
		t.take(t.buf[:n], src)
		if t.next() {
			return true
		}
	}
}
