package protocol

import (
	"reflect"
	"testing"

	"continustreaming/internal/overlay"
	"continustreaming/internal/scheduler"
	"continustreaming/internal/segment"
)

func TestOrderEDFThenRarity(t *testing.T) {
	reqs := []Request{
		{Requester: 9, ID: 30, Deadline: 3000, Rarity: 0.9},
		{Requester: 2, ID: 10, Deadline: 1000, Rarity: 0.1},
		{Requester: 5, ID: 20, Deadline: 2000, Rarity: 0.2},
		{Requester: 7, ID: 21, Deadline: 2000, Rarity: 0.8},
		{Requester: 1, ID: 22, Deadline: 2000, Rarity: 0.8, Carried: true},
	}
	new(orderScratch).order(reqs)
	// Earliest deadline first; rarity breaks the 2000 tie; carried beats
	// new at equal rarity.
	wantIDs := []segment.ID{10, 22, 21, 20, 30}
	for i, want := range wantIDs {
		if reqs[i].ID != want {
			t.Fatalf("position %d: got segment %d, want %d (order %+v)", i, reqs[i].ID, want, reqs)
		}
	}
}

func TestOrderAgreesWithSchedulerUrgency(t *testing.T) {
	// The EDF key is the serve-side analogue of equation (1): for two
	// segments with distinct deadlines, the earlier deadline must be the
	// one the requester-side urgency term ranks higher.
	in := scheduler.PriorityInput{Play: 0, PlaybackRate: 10, BufferSize: 600}
	early := scheduler.Candidate{ID: 40, Suppliers: []scheduler.Supplier{{Rate: 15}}}
	late := scheduler.Candidate{ID: 120, Suppliers: []scheduler.Supplier{{Rate: 15}}}
	if scheduler.Urgency(in, early) <= scheduler.Urgency(in, late) {
		t.Fatal("urgency is not monotone in deadline; EDF serve order no longer mirrors equation (1)")
	}
}

func TestServeGrantsCapacityThenQueues(t *testing.T) {
	reqs := []Request{
		{Requester: 1, ID: 10, Deadline: 1000},
		{Requester: 2, ID: 11, Deadline: 2000},
		{Requester: 3, ID: 12, Deadline: 9000},
		{Requester: 4, ID: 13, Deadline: 500}, // earliest deadline: granted first
		{Requester: 5, ID: 14, Deadline: 8000},
	}
	res := serve(reqs, 2, 1, 1000, nil, new(orderScratch))
	if len(res.Granted) != 2 || res.Granted[0].ID != 13 || res.Granted[1].ID != 10 {
		t.Fatalf("granted %+v, want EDF order [13 10]", res.Granted)
	}
	// Remainder in EDF order: 11 (deadline 2000) queues first and fills
	// the 1-slot cap; 14 and 12 overflow; nothing else is past deadline.
	if len(res.Queued) != 1 || res.Queued[0].ID != 11 || !res.Queued[0].Carried {
		t.Fatalf("queued %+v, want carried segment 11", res.Queued)
	}
	if res.Evicted.Overflow != 2 || res.Evicted.Deadline != 0 || res.Evicted.Stale != 0 {
		t.Fatalf("evictions %+v, want 2 overflow", res.Evicted)
	}
}

func TestServeEvictsPastDeadline(t *testing.T) {
	reqs := []Request{
		{Requester: 1, ID: 10, Deadline: 900},
		{Requester: 2, ID: 11, Deadline: 950},
	}
	res := serve(reqs, 0, 8, 1000, nil, new(orderScratch))
	if len(res.Granted) != 0 || len(res.Queued) != 0 {
		t.Fatalf("granted %d queued %d, want none", len(res.Granted), len(res.Queued))
	}
	if res.Evicted.Deadline != 2 {
		t.Fatalf("deadline evictions = %d, want 2", res.Evicted.Deadline)
	}
}

func TestSupplierRarity(t *testing.T) {
	if r := SupplierRarity(600, nil); r != 1 {
		t.Fatalf("sole-holder rarity = %v, want 1", r)
	}
	few := SupplierRarity(600, []int{60})
	many := SupplierRarity(600, []int{60, 60, 60})
	if few <= many {
		t.Fatalf("rarity must shrink with more holders: 1 holder %v vs 3 holders %v", few, many)
	}
	in := scheduler.PriorityInput{BufferSize: 600}
	c := scheduler.Candidate{Suppliers: []scheduler.Supplier{{PositionFromTail: 60}}}
	if got, want := SupplierRarity(600, []int{60}), scheduler.Rarity(in, c); got != want {
		t.Fatalf("SupplierRarity = %v, scheduler.Rarity = %v", got, want)
	}
}

func TestPlanPushBreadthFirstAndBudget(t *testing.T) {
	segs := []segment.ID{100, 101}
	nbs := []overlay.NodeID{1, 2, 3}
	lacksAll := func(overlay.NodeID) uint64 { return ^uint64(0) }
	sends := PlanPushMask(7, 42, 100, segs, nbs, lacksAll, 3)
	if len(sends) != 3 {
		t.Fatalf("%d sends, want budget-limited 3", len(sends))
	}
	// Breadth-first: both segments get one copy out before either gets
	// its second.
	if sends[0].ID == sends[1].ID {
		t.Fatalf("first two sends pushed the same segment: %+v", sends)
	}
	for _, s := range sends {
		if s.From != 42 {
			t.Fatalf("send from %d, want 42", s.From)
		}
	}
	// Deterministic: identical inputs, identical plan.
	again := PlanPushMask(7, 42, 100, segs, nbs, lacksAll, 3)
	if !reflect.DeepEqual(sends, again) {
		t.Fatalf("plan not deterministic: %+v vs %+v", sends, again)
	}
}

func TestPlanPushSkipsHolders(t *testing.T) {
	segs := []segment.ID{100}
	nbs := []overlay.NodeID{1, 2, 3}
	sends := PlanPushMask(7, 42, 100, segs, nbs, func(to overlay.NodeID) uint64 {
		if to == 2 {
			return 1
		}
		return 0
	}, 10)
	if len(sends) != 1 || sends[0].To != 2 {
		t.Fatalf("sends %+v, want exactly one to the only non-holder 2", sends)
	}
}
