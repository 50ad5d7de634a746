package sitegen

import (
	"bytes"
	"math/rand"

	"sbcrawl/internal/freelist"
)

// lazySource is math/rand's generator — the additive lagged Fibonacci
// source behind rand.NewSource — with its seeding made lazy. rand.NewSource
// allocates 4.9 KB and fills all 607 state words from 1,821 steps of a
// Lehmer generator, while a rendered page draws a few dozen numbers and a
// target often none. Here Seed only normalizes the seed, and state word i is
// computed the first time a draw reads it: word i is
//
//	x(21+3i)<<40 ^ x(22+3i)<<20 ^ x(23+3i) ^ rngCooked[i],  x(n) = 48271ⁿ·seed mod (2³¹−1),
//
// the value the eager seeding leaves there, so the stream is math/rand's bit
// for bit. fresh[i] == gen marks word i as computed for the current seed;
// every Seed starts a new generation.
type lazySource struct {
	tap, feed int
	seed      uint64 // normalized: in [1, 2³¹−2]
	gen       uint32
	fresh     [rngLen]uint32
	vec       [rngLen]uint64
}

const (
	rngLen   = 607
	rngTap   = 273
	int32max = 1<<31 - 1
)

// seedPow[n] is 48271ⁿ mod (2³¹−1): x(n) of any seed is one product away.
// Word rngLen−1 reads the last entry, n = 23 + 3·606.
var seedPow = func() (p [3*rngLen + 21]uint64) {
	x := uint64(1)
	for n := range p {
		p[n] = x
		x = x * 48271 % int32max
	}
	return p
}()

// rngCooked is math/rand's table of the same name: what each state word is
// XORed with after the Lehmer steps. It is derived from math/rand's own
// first rngLen outputs for seed 1 rather than copied. Output k (from 0) adds
// word tap = 606−k into word feed = 333−k mod 607 and returns the sum, so
// every initial word is one output minus a value already known: words
// 334–606 are the last 273 outputs less the outputs that wrote their taps,
// words 0–60 the outputs 273–333 less outputs 0–60, and words 61–333
// outputs 0–272 less the initial words 334–606 they were added to.
var rngCooked = func() (c [rngLen]uint64) {
	src := rand.NewSource(1).(rand.Source64)
	var out, v [rngLen]uint64
	for k := range out {
		out[k] = src.Uint64()
	}
	for j := 334; j < rngLen; j++ {
		v[j] = out[940-j] - out[667-j]
	}
	for j := 0; j <= 60; j++ {
		v[j] = out[333-j] - out[60-j]
	}
	for j := 61; j <= 333; j++ {
		v[j] = out[333-j] - v[j+rngTap]
	}
	for i := range c {
		c[i] = v[i] ^ seedWord(1, i)
	}
	return c
}()

// seedWord is state word i's share of a normalized seed, before rngCooked.
func seedWord(seed uint64, i int) uint64 {
	p := seedPow[21+3*i : 24+3*i]
	return (p[0]*seed%int32max)<<40 ^ (p[1]*seed%int32max)<<20 ^ p[2]*seed%int32max
}

// Seed starts the stream of seed as rand.NewSource(seed) does, in O(1).
func (r *lazySource) Seed(seed int64) {
	r.tap = 0
	r.feed = rngLen - rngTap
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	r.seed = uint64(seed)
	r.gen++
	if r.gen == 0 { // wrapped: clear the stamps a later generation could match
		r.fresh = [rngLen]uint32{}
		r.gen = 1
	}
}

// word returns state word i, computing it on the first read under this seed.
func (r *lazySource) word(i int) uint64 {
	if r.fresh[i] != r.gen {
		r.vec[i] = seedWord(r.seed, i) ^ rngCooked[i]
		r.fresh[i] = r.gen
	}
	return r.vec[i]
}

// Uint64 is rngSource.Uint64.
func (r *lazySource) Uint64() uint64 {
	r.tap--
	if r.tap < 0 {
		r.tap += rngLen
	}
	r.feed--
	if r.feed < 0 {
		r.feed += rngLen
	}
	x := r.word(r.feed) + r.word(r.tap)
	r.vec[r.feed] = x
	return x
}

// Int63 is rngSource.Int63.
func (r *lazySource) Int63() int64 { return int64(r.Uint64() & (1<<63 - 1)) }

// renderer is one render's working set: a generator over a lazySource, and
// the scratch an HTML body is written into before its exact-size copy.
type renderer struct {
	rng *rand.Rand
	buf bytes.Buffer
}

// renderFree parks renderers between renders: a render takes one, seeds it
// and puts it back, so pages cost neither a source nor a growing buffer.
var renderFree = freelist.New[*renderer]()

// maxParkedBody bounds the scratch a parked renderer keeps. Most HTML pages
// render in a few KB; a scratch an outsized page grew past the bound goes to
// the GC, so the parked renderers pin at most freelist.Cap × (16 KB of
// scratch + a 7 KB source).
const maxParkedBody = 16 << 10

// takeRenderer returns a parked renderer, or a new one, with its generator
// seeded to seed and its scratch empty.
func takeRenderer(seed int64) *renderer {
	r, ok := renderFree.Get()
	if !ok {
		r = &renderer{rng: rand.New(new(lazySource))}
	}
	r.rng.Seed(seed)
	return r
}

// release parks r for the next render, its scratch emptied, or dropped when
// over maxParkedBody.
func (r *renderer) release() {
	if r.buf.Cap() > maxParkedBody {
		r.buf = bytes.Buffer{}
	}
	r.buf.Reset()
	renderFree.Put(r)
}
