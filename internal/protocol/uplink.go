package protocol

import (
	"continustreaming/internal/bandwidth"
	"continustreaming/internal/sim"
)

// Uplink is one node's outbound link for the current period: its rate O
// in segments per period, the 2·O backlog horizon a supplier may transmit
// into, and the spend of each class — eager pushes, rescue replies
// (pre-fetch claims) and gossip grants. Each transfer is charged once,
// and the charge returns its wire slot: the period's k-th segment leaves
// the wire at WireAt(k).
type Uplink struct {
	out                 int
	per                 sim.Time
	push, rescue, grant int
}

// Open starts a period at out segments per period tau with nothing spent.
func (u *Uplink) Open(out int, tau sim.Time) {
	*u = Uplink{out: out, per: bandwidth.PerSegment(out, tau)}
}

// Used is the spend over every class.
func (u *Uplink) Used() int { return u.push + u.rescue + u.grant }

// Spare is what is left of the 2·O horizon, negative once it is overrun:
// every serve sizes its grants by it, in both runtimes.
func (u *Uplink) Spare() int { return 2*u.out - u.Used() }

// PushRoom is what pushes may still spend: one period's O, which leaves
// the horizon's second period to pull serving.
func (u *Uplink) PushRoom() int { return u.out - u.push }

// ChargePush charges one push and returns its wire slot.
func (u *Uplink) ChargePush() int {
	u.push++
	return u.Used()
}

// ChargeRescue charges one rescue reply and returns its wire slot, or 0,
// charging nothing, once the horizon is spent (slots start at 1).
func (u *Uplink) ChargeRescue() int {
	if u.Spare() <= 0 {
		return 0
	}
	u.rescue++
	return u.Used()
}

// ChargeGrants charges n grants and returns the first one's wire slot;
// grant k of the batch (from 0) takes slot first+k.
func (u *Uplink) ChargeGrants(n int) int {
	first := u.Used() + 1
	u.grant += n
	return first
}

// WireAt is when, from the start of the period, the slot-th segment
// leaves the wire: each takes bandwidth.PerSegment, a whole period at O = 0.
func (u *Uplink) WireAt(slot int) sim.Time { return sim.Time(slot) * u.per }
