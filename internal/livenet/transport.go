package livenet

import "time"

// Transport is the message-passing substrate a session runs over — the
// seam between the protocol and the medium that carries it, and the one
// home of "who is out there". Two implementations exist: the in-process
// channel transport (network) and the UDP transport (udpTransport), which
// crosses real process boundaries. Both share the drop model the protocol
// is built against: Send never blocks, and false means the message was
// dropped — receiver gone, inbox saturated, or (over sockets) the address
// unknown — leaving recovery to the retry and repair paths.
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
	// nothing is in flight; the UDP transport ignores it.
	Handled(n int)
	// Members returns, ascending, the peer IDs reachable as of period
	// now. The session places it on the rescue ring once a period as one
	// dht.Members bitmap (ringMembers), the view its peers' adoption,
	// serving and rescues read. The channel transport answers with its
	// registry, exact and shared by every peer of the process. The UDP
	// transport answers with its address book: itself, the bootstrap
	// address (ID 0) and every ID it can put an address to that it heard
	// from, or heard named with an address, in the last
	// Config.sightTTL() periods.
	Members(now int) []int
	// AwaitQuiet blocks until every message sent so far has been handled,
	// including the ones handling them sent in turn, or bound expires —
	// the session's barrier between phases. The channel transport counts
	// what is in flight. Datagrams crossing sockets cannot be counted, so
	// the UDP transport returns at once, and Node.Run waits half a period
	// between planning and serving instead.
	AwaitQuiet(bound time.Duration)
}
