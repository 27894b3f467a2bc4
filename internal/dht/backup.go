package dht

import (
	"slices"

	"continustreaming/internal/segment"
)

// This file implements the VoD backup placement rule of §4.3: every data
// segment is expected to be backed up on k nodes, chosen by hashing id·i for
// i = 1..k onto the ring. Node n (with successor n1) is responsible for the
// received segments whose hashed key lands in its arc [n, n1); the paper
// multiplies (rather than adds) the replica index into the hash input so
// that segments with adjacent ids scatter across the ring instead of
// aggregating on one unlucky node.

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

// Store is a node's VoD Data Backup: the segments it holds on behalf of the
// DHT, kept ascending and duplicate-free — a handful of in-window IDs, so
// a sorted slice beats a map and never needs its keys sorted. Entries are
// pruned as the stream moves on, since "old data segments backuped ...
// gradually become useless".
type Store struct {
	segs []segment.ID
}

// NewStore returns an empty backup store.
func NewStore() *Store { return &Store{} }

// Put records that the node backs up id; a second Put of the same id
// changes nothing.
func (s *Store) Put(id segment.ID) {
	if i, found := slices.BinarySearch(s.segs, id); !found {
		s.segs = slices.Insert(s.segs, i, id)
	}
}

// Has reports whether id is backed up here.
func (s *Store) Has(id segment.ID) bool {
	_, found := slices.BinarySearch(s.segs, id)
	return found
}

// Len returns the number of backed-up segments.
func (s *Store) Len() int { return len(s.segs) }

// PruneBelow drops every segment older than floor (exclusive of floor
// itself) and returns how many entries were removed.
func (s *Store) PruneBelow(floor segment.ID) int {
	n, _ := slices.BinarySearch(s.segs, floor)
	s.segs = slices.Delete(s.segs, 0, n)
	return n
}

// Drain removes and returns every entry in ascending order, so a
// graceful-leave handover replays identically across runs. Used for
// graceful-leave handover: "it should first find the node n' which is
// counter-clockwise closest to n and then hand over the data segments
// in its VoD Data Backup to n'".
func (s *Store) Drain() []segment.ID {
	out := s.segs
	s.segs = nil
	return out
}

// Merge ingests the handed-over segments from a leaving neighbour.
func (s *Store) Merge(ids []segment.ID) {
	for _, id := range ids {
		s.Put(id)
	}
}
