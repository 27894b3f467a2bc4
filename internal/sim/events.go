package sim

import "container/heap"

// Event is a timestamped payload in the simulation's future-event list.
// Sequence numbers break timestamp ties so that heap order — and therefore
// the whole simulation — is deterministic.
type Event[T any] struct {
	At      Time
	Seq     uint64
	Payload T
}

// EventQueue is a deterministic min-heap of events ordered by (At, Seq).
// The engine uses it for deliveries that cross round boundaries (a transfer
// started near the end of a period arrives during a later one), and it is
// general enough for any future extension that needs fine-grained timing.
type EventQueue[T any] struct {
	h   eventHeap[T]
	seq uint64
}

// NewEventQueue returns an empty queue.
func NewEventQueue[T any]() *EventQueue[T] {
	return &EventQueue[T]{}
}

// Push schedules payload at time at. Events pushed with equal timestamps pop
// in push order.
func (q *EventQueue[T]) Push(at Time, payload T) {
	q.seq++
	heap.Push(&q.h, Event[T]{At: at, Seq: q.seq, Payload: payload})
}

// Len reports the number of pending events.
func (q *EventQueue[T]) Len() int { return len(q.h) }

// PopUntil removes and returns, in order, every event with At <= deadline.
func (q *EventQueue[T]) PopUntil(deadline Time) []Event[T] {
	var out []Event[T]
	for len(q.h) > 0 && q.h[0].At <= deadline {
		out = append(out, heap.Pop(&q.h).(Event[T]))
	}
	return out
}

// Filter removes every event whose payload fails keep. Surviving events
// retain their original (At, Seq) keys, so relative pop order — including
// timestamp ties — is unchanged; the operation is deterministic.
func (q *EventQueue[T]) Filter(keep func(payload T) bool) {
	kept := q.h[:0]
	for _, ev := range q.h {
		if keep(ev.Payload) {
			kept = append(kept, ev)
		}
	}
	q.h = kept
	heap.Init(&q.h)
}

// Pop removes and returns the earliest event. The second result is false
// when the queue is empty.
func (q *EventQueue[T]) Pop() (Event[T], bool) {
	if len(q.h) == 0 {
		var zero Event[T]
		return zero, false
	}
	return heap.Pop(&q.h).(Event[T]), true
}

type eventHeap[T any] []Event[T]

func (h eventHeap[T]) Len() int { return len(h) }

func (h eventHeap[T]) Less(i, j int) bool {
	if h[i].At != h[j].At {
		return h[i].At < h[j].At
	}
	return h[i].Seq < h[j].Seq
}

func (h eventHeap[T]) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *eventHeap[T]) Push(x any) { *h = append(*h, x.(Event[T])) }

func (h *eventHeap[T]) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	*h = old[:n-1]
	return ev
}
