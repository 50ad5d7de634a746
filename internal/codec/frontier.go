package codec

// Frontier-state payloads. A frontier snapshot is a KindFrontier blob
// whose first payload byte names the frontier kind; the counted-RNG
// frontiers (Random, Grouped) carry their (Seed, Draws) generator position
// so a restored frontier draws the exact sequence the original would
// have. GroupedState's action map is encoded in ascending action order so
// identical states always produce identical bytes. Checkpoints of earlier
// builds embed these blobs; nothing in the library writes or restores one
// any more (the frozen benchmark/ and the lookahead tests still do).

import (
	"fmt"
	"sort"

	"sbcrawl/internal/frontier"
)

// Frontier sub-kind bytes (first payload byte of a KindFrontier blob).
const (
	frontierQueue byte = iota + 1
	frontierStack
	frontierRandom
	frontierPriority
	frontierGrouped
)

// AppendFrontierState encodes any of the five frontier snapshot states.
func AppendFrontierState(dst []byte, state interface{}) ([]byte, error) {
	dst = AppendHeader(dst, KindFrontier)
	switch st := state.(type) {
	case frontier.QueueState:
		dst = append(dst, frontierQueue)
		dst = AppendStrings(dst, st.Items)
	case frontier.StackState:
		dst = append(dst, frontierStack)
		dst = AppendStrings(dst, st.Items)
	case frontier.RandomState:
		dst = append(dst, frontierRandom)
		dst = AppendStrings(dst, st.Items)
		dst = AppendVarint(dst, st.Seed)
		dst = AppendVarint(dst, st.Draws)
	case frontier.PriorityState:
		dst = append(dst, frontierPriority)
		if st.Entries == nil {
			dst = AppendUvarint(dst, 0)
		} else {
			dst = AppendUvarint(dst, uint64(len(st.Entries))+1)
			for _, e := range st.Entries {
				dst = AppendString(dst, e.URL)
				dst = AppendFloat64(dst, e.Score)
				dst = AppendVarint(dst, e.Seq)
			}
		}
		dst = AppendVarint(dst, st.Seq)
	case frontier.GroupedState:
		dst = append(dst, frontierGrouped)
		if st.Actions == nil {
			dst = AppendUvarint(dst, 0)
		} else {
			keys := make([]int, 0, len(st.Actions))
			for a := range st.Actions {
				keys = append(keys, a)
			}
			sort.Ints(keys)
			dst = AppendUvarint(dst, uint64(len(keys))+1)
			for _, a := range keys {
				dst = AppendInt(dst, a)
				dst = AppendStrings(dst, st.Actions[a])
			}
		}
		dst = AppendVarint(dst, st.Seed)
		dst = AppendVarint(dst, st.Draws)
	default:
		return nil, fmt.Errorf("codec: unsupported frontier state %T", state)
	}
	return dst, nil
}
