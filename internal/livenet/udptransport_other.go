//go:build !unix || aix

package livenet

import "time"

// queuedWait is how long readQueued waits where the platform offers no
// read that returns at once on an empty socket.
const queuedWait = time.Millisecond

// readQueued decodes the next frame queued — left from the datagram read
// last, or at the socket — into the hand-over slot, and reports false
// once none is left. Without a
// non-blocking read here it waits up to queuedWait past the latest stamp
// for one, so it may leave behind a datagram that arrives in that moment
// or, on a stalled host, one that was queued.
func (t *udpTransport) readQueued() bool {
	return t.next() || t.read(t.now.Add(queuedWait))
}
