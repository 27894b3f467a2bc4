package protocol

import (
	"slices"
	"testing"

	"continustreaming/internal/bandwidth"
	"continustreaming/internal/overlay"
	"continustreaming/internal/sim"
)

// TestUplink drives one period's ledger through a sequence of charges: the
// classes share one slot sequence in charge order, a rescue is refused
// (slot 0, nothing charged) once the spend reaches 2·O, a grant batch
// returns its first slot, and WireAt(k) is k·bandwidth.PerSegment(O, τ) —
// one whole period per segment at O = 0, and the 1 ms floor at a rate
// finer than the clock.
func TestUplink(t *testing.T) {
	type charge struct {
		class byte // 'p' push, 'r' rescue reply, 'g' a batch of n grants
		n     int
		slot  int
	}
	for _, tc := range []struct {
		name                string
		out                 int
		tau                 sim.Time
		charges             []charge
		push, rescue, grant int
		spare, room         int
	}{
		{"classes share one slot sequence", 4, sim.Second,
			[]charge{{'p', 0, 1}, {'r', 0, 2}, {'p', 0, 3}, {'g', 3, 4}, {'r', 0, 7}},
			2, 2, 3, 1, 2},
		{"rescue refused at 2·O, grants past it", 2, sim.Second,
			[]charge{{'p', 0, 1}, {'p', 0, 2}, {'r', 0, 3}, {'r', 0, 4}, {'r', 0, 0}, {'g', 2, 5}},
			2, 2, 2, -2, 0},
		{"empty grant batch charges nothing", 3, sim.Second,
			[]charge{{'g', 0, 1}, {'r', 0, 1}, {'g', 2, 2}},
			0, 1, 2, 3, 3},
		{"O = 0: a whole period per segment", 0, sim.Second,
			[]charge{{'r', 0, 0}, {'g', 1, 1}, {'p', 0, 2}},
			1, 0, 1, -2, -1},
		{"rate finer than the clock", 3000, sim.Second,
			[]charge{{'p', 0, 1}, {'g', 5, 2}},
			1, 0, 5, 5994, 2999},
	} {
		var u Uplink
		u.Open(tc.out, tc.tau)
		per := bandwidth.PerSegment(tc.out, tc.tau)
		for i, c := range tc.charges {
			var slot int
			switch c.class {
			case 'p':
				slot = u.ChargePush()
			case 'r':
				slot = u.ChargeRescue()
			case 'g':
				slot = u.ChargeGrants(c.n)
			}
			if slot != c.slot {
				t.Fatalf("%s: charge %d (%c) took slot %d, want %d", tc.name, i, c.class, slot, c.slot)
			}
			if got, want := u.WireAt(slot), sim.Time(slot)*per; got != want {
				t.Fatalf("%s: WireAt(%d) = %v, want %v", tc.name, slot, got, want)
			}
		}
		if u.push != tc.push || u.rescue != tc.rescue || u.grant != tc.grant ||
			u.Used() != tc.push+tc.rescue+tc.grant || u.Spare() != tc.spare || u.PushRoom() != tc.room {
			t.Fatalf("%s: spent %d/%d/%d (used %d), spare %d, push room %d; want %d/%d/%d, spare %d, push room %d",
				tc.name, u.push, u.rescue, u.grant, u.Used(), u.Spare(), u.PushRoom(),
				tc.push, tc.rescue, tc.grant, tc.spare, tc.room)
		}
	}
	var u Uplink
	u.Open(0, sim.Second)
	if u.WireAt(1) != sim.Second {
		t.Fatalf("O = 0: WireAt(1) = %v, want one period", u.WireAt(1))
	}
	u.Open(7, sim.Second)
	if u.Used() != 0 || u.PushRoom() != 7 || u.Spare() != 14 {
		t.Fatalf("reopened ledger kept spend: used %d, push room %d, spare %d", u.Used(), u.PushRoom(), u.Spare())
	}
}

// linkView is a ViewProvider over a mutable edge set, for ApplyRewire:
// the runtime's swap and adopt callbacks change linked as they go.
type linkView struct {
	staticView
	linked []overlay.NodeID
}

func (v *linkView) Alive(id overlay.NodeID) bool     { return id != v.dead }
func (v *linkView) Connected(id overlay.NodeID) bool { return slices.Contains(v.linked, id) }

func (v *linkView) unlink(id overlay.NodeID) {
	v.linked = slices.DeleteFunc(v.linked, func(x overlay.NodeID) bool { return x == id })
}

// TestApplyRewire pins the one rewire-application walk both runtimes
// share. Candidates that are the node itself, dead or already linked are
// skipped; a victim no longer linked is skipped without spending a
// candidate; the refill stops at the degree target. It also pins the one
// difference between the runtimes: the simulator links a swap's candidate
// at once, so a swap keeps the degree and the refill adopts only the
// deficit; a livenet link lands on ConnectOK, so a swap lowers the degree
// the refill reads and each swap brings one extra refill adoption.
func TestApplyRewire(t *testing.T) {
	intent := RewireIntent{
		Node: 1,
		// 8 is no longer linked: dropped from the other side.
		Drop: []overlay.NodeID{7, 8, 9},
		// 1 is the node itself, 20 is dead and 12 already linked.
		Adopt: []overlay.NodeID{1, 20, 12, 21, 22, 23, 24, 25, 26},
	}
	type swapped struct{ victim, cand overlay.NodeID }
	for _, tc := range []struct {
		name      string
		linksSwap bool // the runtime links a swap's candidate at once
		swaps     []swapped
		adopts    []overlay.NodeID
	}{
		{"simulator: a swap keeps the degree", true,
			[]swapped{{7, 21}, {9, 22}}, []overlay.NodeID{23}},
		{"livenet: a swap lowers the degree", false,
			[]swapped{{7, 21}, {9, 22}}, []overlay.NodeID{23, 24, 25}},
	} {
		v := &linkView{staticView: staticView{dead: 20}, linked: []overlay.NodeID{7, 9, 12}}
		var swaps []swapped
		var adopts []overlay.NodeID
		ApplyRewire(intent, v, func() int { return len(v.linked) }, 4,
			func(victim, cand overlay.NodeID) {
				swaps = append(swaps, swapped{victim, cand})
				v.unlink(victim)
				if tc.linksSwap {
					v.linked = append(v.linked, cand)
				}
			},
			func(cand overlay.NodeID) {
				adopts = append(adopts, cand)
				if tc.linksSwap {
					v.linked = append(v.linked, cand)
				}
			})
		if !slices.Equal(swaps, tc.swaps) || !slices.Equal(adopts, tc.adopts) {
			t.Fatalf("%s: swapped %v, adopted %v; want %v, %v", tc.name, swaps, adopts, tc.swaps, tc.adopts)
		}
	}
	// A list that runs out ends the walk: the refill adopts what is left.
	v := &linkView{staticView: staticView{dead: 20}, linked: []overlay.NodeID{12}}
	var adopts []overlay.NodeID
	ApplyRewire(RewireIntent{Node: 1, Adopt: []overlay.NodeID{20, 21}}, v, func() int { return len(v.linked) }, 5,
		func(victim, cand overlay.NodeID) { t.Fatalf("swap with no victims") },
		func(cand overlay.NodeID) { adopts = append(adopts, cand) })
	if !slices.Equal(adopts, []overlay.NodeID{21}) {
		t.Fatalf("short list: adopted %v, want [21]", adopts)
	}
}
