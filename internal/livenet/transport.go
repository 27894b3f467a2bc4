package livenet

// Transport is the message-passing substrate a session runs over — the
// seam between the protocol and the medium that carries it, and the one
// home of "who is out there". Two implementations exist: the in-process
// queue (network) and the UDP transport (udpTransport), which crosses
// real process boundaries. Both share the drop model the protocol is
// built against: Send never blocks, and false means the message was
// dropped — receiver gone or (over sockets) the address unknown —
// leaving recovery to the retry and repair paths.
//
// Receiving is one rule on both: what arrives waits in a queue, and
// AwaitQuiet hands it over to the session on the session's goroutine,
// which alone touches the peers. In-process, the queue is every message
// sent; over UDP, the kernel's buffer of the node's socket, which the
// same goroutine reads.
type Transport interface {
	// Send delivers m to peer to, non-blockingly. False means dropped.
	// Send reads m during the call only: it neither keeps nor writes it,
	// so a sender may build every message in one slot.
	Send(to int, m *Message) bool
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
	// AwaitQuiet hands queued messages to deliver in arrival order, the
	// session's hand-over between phases. In-process the queue is in send
	// order and AwaitQuiet drains it, including the messages handling them
	// sends in turn, returning once none is left — a barrier. Datagrams
	// crossing sockets cannot be held back or counted, so the UDP
	// transport hands over what is queued at its socket when called,
	// without waiting, and Node.Run waits half a period between planning
	// and serving instead, reading the socket and handing datagrams over
	// as they arrive. m is valid only until deliver returns: deliver may
	// read it and keep what its fields point to, never m itself.
	AwaitQuiet(deliver func(to int, m *Message))
}
