package frontier

// Snapshots: a frontier's complete state — held URLs, heap layout, and (for
// the randomized frontiers) the RNG position — such that a frontier restored
// from it pops the exact same sequence the original would have. Checkpoints
// of earlier builds embed these states, which the codec still encodes; the
// crawl engine no longer writes or restores one. The Queue, Stack and
// Grouped frontiers still take snapshots, and the restore side lives with
// the tests that check the round trip.
//
// RNG state travels as (Seed, Draws): math/rand sources are opaque, but
// every random frontier owns its generator and consumes it only through
// Intn, whose underlying Int63 pulls a countedSource tallies. Re-seeding
// and burning the same number of pulls reproduces the generator state
// bit for bit.

import "math/rand"

// countedSource wraps a rand.Source, counting Int63 pulls so the generator
// position can be serialized and replayed. It deliberately does not
// implement rand.Source64: rand.Rand then routes every draw through Int63,
// keeping one counted path (and the exact value sequence rand.NewSource
// has always produced here).
//
// It also carries a one-value lookahead (peek63): the next Int63 can be read
// ahead of the draw that will consume it. The buffered value is not counted
// until it is drawn, so draws — and with it every snapshot — is the same
// whether or not anyone peeked, and a restore (re-seed, burn draws values)
// lands exactly on the value that was buffered.
type countedSource struct {
	src   rand.Source
	draws int64
	next  int64 // the buffered lookahead value, valid while ahead
	ahead bool
}

func (c *countedSource) Int63() int64 {
	c.draws++
	if c.ahead {
		c.ahead = false
		return c.next
	}
	return c.src.Int63()
}

func (c *countedSource) Seed(s int64) {
	c.src.Seed(s)
	c.draws = 0
	c.ahead = false
}

// peek63 returns the value the next Int63 will return, without counting it.
func (c *countedSource) peek63() int64 {
	if !c.ahead {
		c.next, c.ahead = c.src.Int63(), true
	}
	return c.next
}

// peekIntn returns what the next rand.Rand.Intn(n) over this source will
// return, mirroring math/rand's Intn → Int31n on the lookahead value.
// ok=false when n is outside (0, 2³¹) or when Int31n would reject the value
// and draw again (only the first value is buffered).
func (c *countedSource) peekIntn(n int) (int, bool) {
	if n <= 0 || n > 1<<31-1 {
		return 0, false
	}
	v := int32(c.peek63() >> 32) // rand.Rand.Int31
	if n&(n-1) == 0 {
		return int(v & int32(n-1)), true
	}
	if max := int32((1 << 31) - 1 - (1<<31)%uint32(n)); v > max {
		return 0, false
	}
	return int(v % int32(n)), true
}

// QueueState is a serializable Queue snapshot.
type QueueState struct {
	Items []string
}

// Snapshot captures the queue's live items in pop order.
func (q *Queue) Snapshot() QueueState {
	return QueueState{Items: append([]string(nil), q.items[q.head:]...)}
}

// StackState is a serializable Stack snapshot.
type StackState struct {
	Items []string
}

// Snapshot captures the stack bottom-to-top.
func (s *Stack) Snapshot() StackState {
	return StackState{Items: append([]string(nil), s.items...)}
}

// RandomState is a serializable Random snapshot, RNG position included.
type RandomState struct {
	Items []string
	Seed  int64
	Draws int64
}

// PriorityEntry is one held URL of a Priority snapshot.
type PriorityEntry struct {
	URL   string
	Score float64
	Seq   int64
}

// PriorityState is a serializable Priority snapshot. Entries preserve the
// physical heap layout, so the restored frontier breaks score ties exactly
// like the original.
type PriorityState struct {
	Entries []PriorityEntry
	Seq     int64
}

// GroupedState is a serializable Grouped snapshot, RNG position included.
type GroupedState struct {
	// Actions maps each awake action to its links in slice order (the
	// order the uniform draw indexes into).
	Actions map[int][]string
	Seed    int64
	Draws   int64
}

// Snapshot captures the action-grouped frontier and its generator position.
func (g *Grouped) Snapshot() GroupedState {
	st := GroupedState{
		Actions: make(map[int][]string),
		Seed:    g.seed,
		Draws:   g.src.draws,
	}
	for s, links := range g.byAction {
		if len(links) > 0 {
			st.Actions[s-1] = append([]string(nil), links...)
		}
	}
	return st
}
