package sitegen

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"
)

// TestRenderDigest pins every rendered byte: a SHA-256 over RenderPage of
// every page of four sites, in page order, each body preceded by its
// length. The il, ju and be digests were recorded on the renderer that drew
// from a fresh math/rand generator and a growing buffer per page, and the ed
// digest on the fmt-based renderer before the single append pass; ed is the
// one profile with UniqueIDs, so its row pins the ID-stamped page wrapper.
// A change to how a page is rendered must keep each body byte for byte.
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
		{"ed", 0.05, 1004, "79d10dc5dd3de8e085e3140e9803c8f78a91dbbfd55e8bfee9d1ca48dfc9bbe2"},
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

// TestRenderAllocs is the render path's allocation gate. A warm render
// allocates one object, its body: a target's at SizeB, and an HTML page's
// exact-size copy of the scratch it was appended into, on every page whose
// size hint is within maxParkedBody, so that its scratch stays parked. A
// page hinted larger allocates two, its own scratch at the hint and its
// body: the hint never falls short, so the scratch is never regrown.
// Words, hrefs and template items are appended into the scratch, so
// nothing else is built — not a string, not a boxed argument, and never a
// generator.
func TestRenderAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets only hold in normal builds")
	}
	for _, site := range []struct {
		code  string
		scale float64
		seed  int64
	}{{"ju", 0.05, 1002}, {"ed", 0.05, 1004}} {
		s := testSite(site.code, site.scale, site.seed)
		parked, outsized := 0, 0
		for _, pg := range s.Pages() {
			want := 1.0
			switch {
			case pg.Kind == KindTarget:
			case pg.Kind == KindHTML && htmlSizeHint(pg) <= maxParkedBody:
				parked++
			case pg.Kind == KindHTML:
				outsized++
				want = 2
			default:
				continue
			}
			if got := testing.AllocsPerRun(20, func() { s.RenderPage(pg) }); got != want {
				t.Fatalf("%s page %d (kind %d): %v allocations per warm render, want %v", site.code, pg.ID, pg.Kind, got, want)
			}
		}
		if parked == 0 || outsized == 0 {
			t.Fatalf("%s: %d HTML pages within maxParkedBody, %d over it; want some of each", site.code, parked, outsized)
		}
	}
}
