package core

import (
	"cmp"
	"slices"

	"continustreaming/internal/overlay"
)

// slabChunk is how many Node values a shard's slab adds at a time once
// the chunk NewWorld sized to the shard's initial population is full:
// few, because a shard's joiners land in random work-list positions
// anyway, while each shard's last chunk keeps its unused slots (at 16, a
// 1 000-node churn world carried 600 of them, 0.3 MB).
const slabChunk = 4

// linkSlack is the room a node's neighbour list gets past its trace degree
// (a joiner's: past M), so the links maintenance and later joiners add
// seldom move it: on the warmed 10 000-node churn world a maintenance
// phase allocated 37 times at a slack of 2, 29 at 3 and 15 at 4 (25 when
// every list grew by appending).
const linkSlack = 4

// slab is one ownership shard's store of Node values: chunks that never
// grow or move, so a *Node stays where it was built for as long as its
// node is alive. NewWorld fills the first chunk with the shard's initial
// population in work-list order; a leaver's slot goes, zeroed, onto the
// shard's free list, and a joiner takes the slot freed last, or the next
// unused one, in a new chunk if the last is full. So each shard's nodes
// stay inside its own chunks however the population turns over. Only
// sequential code (construction and churn) touches a slab.
type slab struct {
	chunks [][]Node
	// used counts the slots of the last chunk handed out so far.
	used int
	// free holds the zeroed slots of departed nodes, the last freed on
	// top.
	free []*Node
}

// grow appends a chunk of n slots.
func (s *slab) grow(n int) {
	s.chunks = append(s.chunks, make([]Node, n))
	s.used = 0
}

// take hands out a zeroed slot.
func (s *slab) take() *Node {
	if k := len(s.free) - 1; k >= 0 {
		n := s.free[k]
		s.free = s.free[:k]
		return n
	}
	if len(s.chunks) == 0 || s.used == len(s.chunks[len(s.chunks)-1]) {
		s.grow(slabChunk)
	}
	n := &s.chunks[len(s.chunks)-1][s.used]
	s.used++
	return n
}

// release zeroes a departed node's slot and puts it on the free list.
func (s *slab) release(n *Node) {
	*n = Node{}
	s.free = append(s.free, n)
}

// initialWalk lists the trace indices of the initial population in the
// order the round walks their nodes: by ownership shard, and by ascending
// ring ID within a shard (see roundArena.nodes). shardLen[s] counts shard
// s's share.
func (w *World) initialWalk(ringOf []overlay.NodeID) (walk []int, shardLen [phaseShards]int) {
	walk = make([]int, len(ringOf))
	for i := range walk {
		walk[i] = i
	}
	slices.SortFunc(walk, func(a, b int) int {
		return cmp.Or(cmp.Compare(w.shardOf(ringOf[a]), w.shardOf(ringOf[b])), cmp.Compare(ringOf[a], ringOf[b]))
	})
	for _, i := range walk {
		shardLen[w.shardOf(ringOf[i])]++
	}
	return walk, shardLen
}
