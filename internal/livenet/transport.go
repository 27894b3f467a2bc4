package livenet

// Transport is the message-passing substrate a peer sends through — the
// seam between the protocol and the medium that carries it. Two
// implementations exist: the in-process channel transport (network),
// which doubles as the single-process registry the driver-mode oracle
// reads, and the UDP transport (udpTransport), which crosses real
// process boundaries. Both share the drop model the protocol is built
// against: Send never blocks, and false means the message was dropped —
// receiver gone, inbox saturated, or (over sockets) the address unknown
// — leaving recovery to the retry and repair paths.
//
// Receiving is not part of the interface: each transport hands its peer
// a plain chan Message at construction, so the peer loop is identical
// over channels and sockets.
type Transport interface {
	// Send delivers m to peer to, non-blockingly. False means dropped.
	Send(to int, m Message) bool
	// Handled reports that the receiving peer is done with n delivered
	// messages: it applied them, or it stopped with them still queued.
	// The channel transport pairs the count with its sends to tell when
	// nothing is in flight — the driver's barrier between phases.
	// Datagrams in flight across sockets cannot be counted, so the UDP
	// transport ignores it (a socket-path node waits half a period
	// instead).
	Handled(n int)
}
