package codec

// Test oracles for the encoders only the frozen benchmark calls: the library
// decodes neither a frontier snapshot nor a string slice of views.

import (
	"fmt"

	"sbcrawl/internal/frontier"
)

// ViewStrings reads a nil-aware string slice of zero-copy views.
func (r *Reader) ViewStrings() []string {
	n, ok := r.SliceLen()
	if !ok {
		return nil
	}
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, r.ViewString())
	}
	if r.err != nil {
		return nil
	}
	return out
}

// DecodeFrontierState decodes a KindFrontier blob into the concrete
// snapshot state value (frontier.QueueState, StackState, RandomState,
// PriorityState, or GroupedState).
func DecodeFrontierState(raw []byte) (interface{}, error) {
	payload, err := Header(raw, KindFrontier)
	if err != nil {
		return nil, err
	}
	if len(payload) == 0 {
		return nil, fmt.Errorf("%w: missing frontier kind", ErrCorrupt)
	}
	sub, body := payload[0], payload[1:]
	r := NewReader(body)
	var state interface{}
	switch sub {
	case frontierQueue:
		state = frontier.QueueState{Items: r.Strings()}
	case frontierStack:
		state = frontier.StackState{Items: r.Strings()}
	case frontierRandom:
		state = frontier.RandomState{Items: r.Strings(), Seed: r.Varint(), Draws: r.Varint()}
	case frontierPriority:
		var st frontier.PriorityState
		if n, ok := r.SliceLen(); ok {
			st.Entries = make([]frontier.PriorityEntry, 0, n)
			for i := 0; i < n && r.Err() == nil; i++ {
				st.Entries = append(st.Entries, frontier.PriorityEntry{
					URL:   r.String(),
					Score: r.Float64(),
					Seq:   r.Varint(),
				})
			}
		}
		st.Seq = r.Varint()
		state = st
	case frontierGrouped:
		var st frontier.GroupedState
		if n, ok := r.SliceLen(); ok {
			st.Actions = make(map[int][]string, n)
			for i := 0; i < n && r.Err() == nil; i++ {
				a := r.Int()
				st.Actions[a] = r.Strings()
			}
		}
		st.Seed = r.Varint()
		st.Draws = r.Varint()
		state = st
	default:
		return nil, fmt.Errorf("%w: unknown frontier kind 0x%02x", ErrCorrupt, sub)
	}
	if err := r.Close(); err != nil {
		return nil, err
	}
	return state, nil
}
