package prefetch

import (
	"continustreaming/internal/buffer"
	"continustreaming/internal/segment"
)

// UrgentWindow returns the buffer region the Urgent Line bounds: segments
// with id_head <= id <= id_urgent where id_urgent = id_head + α·B
// (equation 4). The window is half-open [head, head+⌊α·B⌋+1) to include the
// boundary segment itself.
func UrgentWindow(head segment.ID, alpha float64, bufferSize int) segment.Window {
	span := segment.ID(alpha * float64(bufferSize))
	return segment.Window{Lo: head, Hi: head + span + 1}
}

// Decision captures one period's Urgent Line evaluation.
type Decision struct {
	// Missed holds the predicted-missed segment IDs (ascending), regardless
	// of whether retrieval triggers.
	Missed []segment.ID
	// Triggered reports whether on-demand retrieval should run: only when
	// 0 < len(Missed) <= limit (§4.3's three cases).
	Triggered bool
}

// PredictInto evaluates the Urgent Line against the local buffer: every
// absent segment at or left of the line is predicted missed. limit is l,
// the maximum number of segments the retrieval algorithm may fetch per
// period; exceeding it suppresses the trigger "to avoid too much pre-fetch
// traffic".
//
// exclude, when non-nil, removes IDs from consideration before the three-
// case rule is applied — the node uses it to skip segments already fetched
// by an in-flight pre-fetch, which otherwise would be re-requested every
// period until they arrive.
//
// The missed IDs are appended to arena (the word-scan AppendMissingIn
// path, then compacted in place by exclude), the Decision's Missed field
// is a capacity-capped subslice of the grown arena, and the arena — its
// length advanced past the kept entries — is returned for the caller to
// carry forward. Missed stays valid until the caller resets the arena.
func PredictInto(arena []segment.ID, buf *buffer.Buffer, head segment.ID, alpha float64, limit int, exclude func(segment.ID) bool) (Decision, []segment.ID) {
	w := UrgentWindow(head, alpha, buf.Size())
	base := len(arena)
	arena = buf.AppendMissingIn(arena, w)
	missing := arena[base:]
	if exclude != nil {
		kept := missing[:0]
		for _, id := range missing {
			if !exclude(id) {
				kept = append(kept, id)
			}
		}
		missing = kept
	}
	arena = arena[:base+len(missing)]
	d := Decision{Missed: missing[:len(missing):len(missing)]}
	d.Triggered = len(missing) > 0 && len(missing) <= limit
	return d, arena
}
