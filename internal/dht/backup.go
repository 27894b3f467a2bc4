package dht

import "continustreaming/internal/segment"

// This file implements the VoD backup placement rule of §4.3: every data
// segment is expected to be backed up on k nodes, chosen by hashing id·i for
// i = 1..k onto the ring. Node n (with successor n1) is responsible for the
// received segments whose hashed key lands in its arc [n, n1); the paper
// multiplies (rather than adds) the replica index into the hash input so
// that segments with adjacent ids scatter across the ring instead of
// aggregating on one unlucky node. The rule is all the DHT keeps: what a
// node backs up is a per-segment fact of the node, a plane of its
// buffer.Track.

// HashKey maps (segment id, replica index) onto the ring. The hash is a
// fixed 64-bit mixer (splitmix64 finalizer) reduced mod N — "hash() can be
// any common hash function".
func HashKey(space Space, id segment.ID, replica int) ID {
	x := uint64(id) * uint64(replica)
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return ID(x % uint64(space.N()))
}

// BackupKeys returns the k ring keys at which segment id should be stored,
// in replica order i = 1..k.
func BackupKeys(space Space, id segment.ID, k int) []ID {
	keys := make([]ID, k)
	for i := 1; i <= k; i++ {
		keys[i-1] = HashKey(space, id, i)
	}
	return keys
}

// Responsible reports whether a node owning the arc [self, successor) must
// back up segment id, per equation (5): hash(id·i) % N ∈ [n, n1) for some
// i in 1..k.
func Responsible(space Space, self, successor ID, id segment.ID, k int) bool {
	for i := 1; i <= k; i++ {
		if space.InArc(HashKey(space, id, i), self, successor) {
			return true
		}
	}
	return false
}
