package protocol

import "continustreaming/internal/dht"

// RepairDue reports whether a node should run its DHT refresh this
// scheduling period: every interval periods, counted so interval 1 means
// every period. A non-positive interval disables active repair entirely
// and leaves only the passive overheard-traffic renewal — under sustained
// churn that rots routing tables faster than traffic renews them, greedy
// routing fails, and the pre-fetch continuity backstop silently dies.
func RepairDue(round, interval int) bool {
	return interval > 0 && (round+1)%interval == 0
}

// SuccessorMoved reports whether a node's believed clockwise successor
// changed across a repair sweep. Backup responsibility is normally
// evaluated when a segment arrives, so when churn moves an arc boundary
// the new owner never backs up segments it already holds and the replica
// set decays round by round; a moved successor is the trigger to re-
// evaluate the live window. An unchanged successor means an unchanged
// arc, so the scan is skipped.
func SuccessorMoved(before dht.ID, hadBefore bool, after dht.ID, hasAfter bool) bool {
	return hasAfter && (!hadBefore || before != after)
}
