// Package scheduler implements the data scheduling half of
// ContinuStreaming (§4.2): the per-segment requesting priority that blends
// urgency (equation 1) and rarity (equation 2), and the greedy supplier
// assignment of Algorithm 1. It also provides the baseline the paper
// compares against: CoolStreaming's rarest-first rule.
//
// Both runtimes reach Algorithm 1 through one enumeration of what is worth
// asking for, Enumeration.Candidates: the union of the live neighbours'
// availability words under three masks — what the requester holds, the
// last word's tail past the fetch window, and what its buffer.Track says is
// already in flight.
package scheduler

import (
	"math"

	"continustreaming/internal/segment"
	"continustreaming/internal/sim"
)

// Supplier describes one neighbour able to provide a candidate segment.
type Supplier struct {
	// Node is the neighbour's overlay ID.
	Node int
	// Rate is the estimated receiving rate from this neighbour in
	// segments per second (R_ij, from the Rate Controller).
	Rate float64
	// PositionFromTail is p_ij: the segment's FIFO position in this
	// neighbour's advertised buffer, measured from the newest end, so that
	// PositionFromTail/B approximates the probability the supplier evicts
	// the segment soon.
	PositionFromTail int
}

// Candidate is a fresh segment (available at >= 1 neighbour, absent
// locally) under consideration for this scheduling period.
type Candidate struct {
	ID        segment.ID
	Suppliers []Supplier
}

// PriorityInput carries the node-local quantities of Table 1 needed to
// score candidates.
type PriorityInput struct {
	// Play is id_play, the segment being played at this moment.
	Play segment.ID
	// PlaybackRate is p, segments consumed per second.
	PlaybackRate int
	// BufferSize is B.
	BufferSize int
	// NoPlayback marks a node that has not started playing (a fresh
	// joiner catching up, or the pre-start warm-up). Urgency is defined
	// relative to id_play — "the segment being played at this moment" —
	// so without playback there is no urgency and candidates rank purely
	// by rarity. This matters dynamically: a catching-up node that chased
	// imminent deadlines it can never win would spend its whole inbound
	// budget without ever building the buffer lead that lets it start;
	// fetching by rarity instead lets the advancing play position march
	// into its content, synchronising it at no extra bandwidth cost.
	NoPlayback bool
}

// MaxUrgency caps urgency at 1. Table 1 defines urgency as "the
// probability of D_i to miss its deadline", so like rarity it lives in
// [0, 1]; 1/t_i is the proxy for that probability and saturates once the
// slack drops below one second. The cap matters dynamically: an unbounded
// 1/t would let a backlog of at-deadline holes crowd every frontier
// segment out of the budget, starving the mesh of new-content replication
// exactly when it is under pressure. At 1.0, due segments rank at the top
// of the probability scale but interleave with the rarest (most
// eviction-threatened) segments instead of monopolising the period.
const MaxUrgency = 1.0

// Urgency computes equation (1): t_i = (id_i − id_play)/p − 1/R_i with
// R_i = max_j R_ij, and urgency_i = 1/t_i clamped into [0, MaxUrgency].
// R_i of zero (no live estimate) contributes an infinite transfer term,
// collapsing slack to non-positive and thus maximal urgency — the segment
// is about to be unobtainable.
func Urgency(in PriorityInput, c Candidate) float64 {
	if in.NoPlayback {
		return 0
	}
	ri := 0.0
	for _, s := range c.Suppliers {
		if s.Rate > ri {
			ri = s.Rate
		}
	}
	slack := float64(c.ID-in.Play) / float64(in.PlaybackRate)
	if ri <= 0 {
		return MaxUrgency
	}
	slack -= 1 / ri
	if slack <= 1 {
		return MaxUrgency
	}
	return 1 / slack
}

// Rarity computes equation (2): the probability the segment is about to be
// replaced in all its suppliers' buffers, Π_j (p_ij / B). More suppliers or
// fresher copies shrink the product; a segment whose every holder is about
// to evict it approaches 1.
func Rarity(in PriorityInput, c Candidate) float64 {
	if len(c.Suppliers) == 0 {
		return 0
	}
	r := 1.0
	for _, s := range c.Suppliers {
		p := float64(s.PositionFromTail) / float64(in.BufferSize)
		if p < 0 {
			p = 0
		}
		if p > 1 {
			p = 1
		}
		r *= p
	}
	return r
}

// Priority computes equation (3): max(urgency, rarity).
func Priority(in PriorityInput, c Candidate) float64 {
	u := Urgency(in, c)
	r := Rarity(in, c)
	return math.Max(u, r)
}

// Request is one scheduling decision: fetch segment ID from Supplier, with
// the transfer expected to complete ExpectedAt milliseconds into the
// period (queueing at the supplier plus transfer time).
type Request struct {
	ID         segment.ID
	Supplier   int
	ExpectedAt sim.Time
}

// Policy is a pluggable scheduling discipline. Implementations must be
// deterministic given their inputs and keep no state between calls: the
// simulator shares one value across every node and shard.
type Policy interface {
	// Name identifies the policy in experiment output.
	Name() string
	// Schedule picks suppliers for as many candidates as the period allows.
	Schedule(in Input) []Request
}

// Input is everything Algorithm 1 consumes for one scheduling period.
type Input struct {
	PriorityInput
	// Tau is the scheduling period length.
	Tau sim.Time
	// InboundBudget is the remaining inbound capacity I·τ in segments for
	// this period; the algorithm fetches at most min(m, InboundBudget).
	InboundBudget int
	// Candidates are the fresh segments; order need not be significant.
	Candidates []Candidate
	// Scratch supplies the policy's reusable working storage; see Scratch
	// for the lifetime contract of the returned requests. Nil is a
	// one-call scratch.
	Scratch *Scratch
	// JitterSeed decorrelates equal-priority decisions across nodes. With
	// synchronized buffer windows many segments tie exactly on priority
	// (and suppliers tie on expected completion time); breaking those ties
	// by segment or supplier ID would make every node in a neighbourhood
	// request the same segments from the same suppliers, collapsing gossip
	// diversity. A per-node seed hashes ties into node-specific orders —
	// deterministic for the simulation, effectively random across peers.
	JitterSeed uint64
	// RarityNoise (0..1) perturbs each candidate's urgency and rarity
	// multiplicatively by up to ±RarityNoise, seeded per (node, segment).
	// It models what a real deployment gets for free: peers measure their
	// neighbours' FIFO positions and their own deadline slack from buffer
	// maps and clocks sampled at different instants, so no two peers rank
	// near-equal candidates identically. Without it both priority terms
	// vary smoothly and identically across peers — every peer derives the
	// same fetch order, all laggards chase the same earliest-deadline
	// segments from the same few holders, and neighbourhood content
	// diversity (and with it, throughput) collapses.
	RarityNoise float64
}

// perturb applies the configured multiplicative noise to one priority
// term. The stream index keeps urgency and rarity noise independent.
func perturb(in *Input, c Candidate, v float64, stream uint64) float64 {
	if in.RarityNoise <= 0 || v == 0 {
		return v
	}
	u := float64(Jitter(in.JitterSeed, uint64(c.ID), stream)>>11) / (1 << 53) // [0,1)
	return v * (1 + in.RarityNoise*(2*u-1))
}

// noisyRarity applies the perturbation to rarity.
func noisyRarity(in *Input, c Candidate) float64 {
	return perturb(in, c, Rarity(in.PriorityInput, c), 3)
}

// noisyUrgency applies the perturbation to urgency. Saturated urgencies
// (segments at or past their deadline) stay saturated: noise reorders
// near-equal slacks, it does not un-urgent a due segment.
func noisyUrgency(in *Input, c Candidate) float64 {
	u := Urgency(in.PriorityInput, c)
	if u >= MaxUrgency {
		return u
	}
	return perturb(in, c, u, 4)
}

// Jitter hashes (seed, a, b) into a deterministic comparison key for
// tie-breaking — a splitmix-style finalizer, so adjacent inputs spread
// evenly. It is exported because the serve side of the dissemination
// engine breaks its push-target ties with the same keyed ordering the
// requester-side scheduler uses: a pure function of its inputs, never a
// consumed RNG stream, which is what keeps both sides worker-count
// deterministic.
func Jitter(seed, a, b uint64) uint64 {
	x := seed ^ a*0x9e3779b97f4a7c15 ^ b*0xd1342543de82ef95
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ (x >> 31)
}
