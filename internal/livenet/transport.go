package livenet

// Transport is the message-passing substrate a session runs over — the
// seam between the protocol and the medium that carries it, and the one
// home of "who is out there". Two implementations exist: the in-process
// queue (network) and the UDP transport (udpTransport), which crosses
// real process boundaries. Both share the drop model the protocol is
// built against: Send never blocks, and false means the message was
// dropped — receiver gone, inbox saturated, or (over sockets) the address
// unknown — leaving recovery to the retry and repair paths.
//
// Receiving is per transport. In-process, the queue hands every message
// to the session at each AwaitQuiet; over UDP, the node's receive loop
// reads the channel the transport decodes datagrams into.
type Transport interface {
	// Send delivers m to peer to, non-blockingly. False means dropped.
	Send(to int, m Message) bool
	// Members returns, ascending, the peer IDs reachable as of period
	// now. The session places it on the rescue ring once a period as one
	// dht.Members bitmap (ringMembers), the view its peers' adoption,
	// serving and rescues read. The in-process transport answers with its
	// registry, exact and shared by every peer of the process. The UDP
	// transport answers with its address book: itself, the bootstrap
	// address (ID 0) and every ID it can put an address to that it heard
	// from, or heard named with an address, in the last
	// Config.sightTTL() periods.
	Members(now int) []int
	// AwaitQuiet hands every message sent so far to deliver, in send
	// order, including the ones handling them sends in turn, and returns
	// once none is left — the session's barrier between phases. Datagrams
	// crossing sockets cannot be held back or counted, so the UDP
	// transport returns at once, and Node.Run waits half a period between
	// planning and serving instead. m points into the transport's queue
	// and is valid only until deliver returns: deliver may read it and
	// keep what its fields point to, never m itself.
	AwaitQuiet(deliver func(to int, m *Message))
}
