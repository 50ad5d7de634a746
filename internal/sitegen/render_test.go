package sitegen

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// TestRenderDigest pins every rendered byte: a SHA-256 over RenderPage of
// every page of three sites, in page order, each body preceded by its
// length. The digests were recorded on the renderer that drew from a fresh
// math/rand generator and a growing buffer per page, so a change to how a
// page is rendered must keep each body byte for byte.
func TestRenderDigest(t *testing.T) {
	for _, c := range []struct {
		code  string
		scale float64
		seed  int64
		want  string
	}{
		{"il", 0.02, 1001, "be6e372b139e242c2b7e5f0613c2c1210b4b34120fbcb46c5e617d73ef2a1c68"},
		{"ju", 0.05, 1002, "6ace076d0686f21b40dff4cde9236972cb045e618517602f880376908d68c634"},
		{"be", 0.05, 1003, "dd6f6346042d074d4cf5e61b266712eb10af3a202b6c6dc7aed5ae404311a105"},
	} {
		s := testSite(c.code, c.scale, c.seed)
		h := sha256.New()
		var n [8]byte
		for _, pg := range s.Pages() {
			body := s.RenderPage(pg)
			for i := range n {
				n[i] = byte(len(body) >> (8 * i))
			}
			h.Write(n[:])
			h.Write(body)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
			t.Errorf("%s@%g seed %d: %d pages render to digest %s, want %s", c.code, c.scale, c.seed, len(s.Pages()), got, c.want)
		}
	}
}

// fuzzRng is the one parked generator FuzzRenderSource re-seeds for every
// input, as a render re-seeds a parked renderer: words a previous seed
// computed must never leak into the next stream.
var fuzzRng = rand.New(new(lazySource))

// FuzzRenderSource: a lazySource re-seeded to seed gives the stream of
// rand.New(rand.NewSource(seed)) through draws calls, each an Intn, Float64,
// Int63 or Uint64 as the op string cycles — past 607 draws too, where the
// lagged Fibonacci state wraps onto words it wrote itself.
func FuzzRenderSource(f *testing.F) {
	const m = 1<<31 - 1
	for _, seed := range []int64{0, -1, m, -m, 2 * m, -2 * m, 3 * m, m * (math.MaxInt64 / m), 89482311, math.MinInt64} {
		f.Add(seed, uint16(1300), []byte{0, 1, 2, 3, 40, 255})
	}
	f.Add(int64(1001*65_537+17), uint16(50), []byte{0x10, 0x08, 0x1c})
	f.Add(int64(1), uint16(607), []byte{})
	f.Fuzz(func(t *testing.T, seed int64, draws uint16, ops []byte) {
		if len(ops) == 0 {
			ops = []byte{2}
		}
		want := rand.New(rand.NewSource(seed))
		got := fuzzRng
		got.Seed(seed)
		for i := range int(draws % 4096) {
			op := ops[i%len(ops)]
			var a, b any
			switch op % 4 {
			case 0:
				n := int(op>>2)*977 + 1
				a, b = want.Intn(n), got.Intn(n)
			case 1:
				a, b = want.Float64(), got.Float64()
			case 2:
				a, b = want.Int63(), got.Int63()
			case 3:
				a, b = want.Uint64(), got.Uint64()
			}
			if a != b {
				t.Fatalf("seed %d, draw %d (op %d): lazy source gives %v, math/rand %v", seed, i, op, b, a)
			}
		}
	})
}

// TestLazySourceGenerationWrap: when the generation counter wraps, every
// stamp is cleared, so a word stamped four billion seeds ago is not taken
// for one of the new seed's.
func TestLazySourceGenerationWrap(t *testing.T) {
	src := new(lazySource)
	rng := rand.New(src)
	rng.Seed(5)
	rng.Int63() // stamps words 333 and 606 with this generation
	src.gen = math.MaxUint32
	src.fresh[333], src.fresh[606] = 1, 1 // what the wrapped generation would match
	rng.Seed(6)
	if got, want := rng.Int63(), rand.New(rand.NewSource(6)).Int63(); got != want {
		t.Fatalf("first draw after the generation wrapped = %d, want %d", got, want)
	}
}

// TestRenderAllocs is the render path's allocation gate. A warm target
// render allocates one object, its body at SizeB. A warm HTML render
// allocates its exact-size body, the words strings and fmt's boxed
// arguments — well under three bodies plus 1 KB on every page whose scratch
// stays parked — and never a generator: a rand.NewSource is 5,376 bytes in
// its size class, which alone breaks that bound on any page under 8 KB.
func TestRenderAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets only hold in normal builds")
	}
	s := testSite("ju", 0.05, 1002)
	for _, pg := range s.Pages() {
		switch pg.Kind {
		case KindTarget:
			if got := testing.AllocsPerRun(20, func() { s.RenderPage(pg) }); got != 1 {
				t.Fatalf("target %d (%d bytes): %v allocations per warm render, want 1", pg.ID, pg.SizeB, got)
			}
		case KindHTML:
			body := s.RenderPage(pg)
			if len(body) > maxParkedBody {
				continue
			}
			// The least of three renders: TotalAlloc also counts the odd
			// allocation of another goroutine, which only ever adds bytes.
			least := uint64(math.MaxUint64)
			for range 3 {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				s.RenderPage(pg)
				runtime.ReadMemStats(&after)
				least = min(least, after.TotalAlloc-before.TotalAlloc)
			}
			if limit := 3*uint64(len(body)) + 1024; least > limit {
				t.Fatalf("page %d (%d-byte body): %d bytes per warm render, want ≤ %d", pg.ID, len(body), least, limit)
			}
		}
	}
}
