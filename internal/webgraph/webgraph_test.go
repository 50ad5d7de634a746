package webgraph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// chainGraph builds r -> 1 -> 2 -> ... -> n-1 with the last node a target.
func chainGraph(n int) *Graph {
	g := New(n, 0)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1, "next")
	}
	g.Target[n-1] = true
	return g
}

func TestGraphValidate(t *testing.T) {
	g := chainGraph(4)
	if err := g.Validate(); err != nil {
		t.Fatalf("valid graph rejected: %v", err)
	}
	g.Weight[2] = 0
	if err := g.Validate(); err == nil {
		t.Error("zero weight must be rejected (ω maps to R+)")
	}
	g.Weight[2] = 1
	g.Adj[1] = append(g.Adj[1], 99)
	g.Labels[1] = append(g.Labels[1], "bad")
	if err := g.Validate(); err == nil {
		t.Error("out-of-range edge must be rejected")
	}
}

func TestValidateRootRange(t *testing.T) {
	g := New(3, 0)
	g.Root = 7
	if err := g.Validate(); err == nil {
		t.Error("out-of-range root must be rejected")
	}
}

func TestReachableAndDepths(t *testing.T) {
	g := New(5, 0)
	g.AddEdge(0, 1, "")
	g.AddEdge(1, 2, "")
	g.AddEdge(0, 2, "")
	// node 3, 4 unreachable
	g.AddEdge(3, 4, "")
	reach := g.Reachable()
	for i, want := range []bool{true, true, true, false, false} {
		if reach[i] != want {
			t.Errorf("Reachable[%d] = %v, want %v", i, reach[i], want)
		}
	}
	d := g.Depths()
	for i, want := range []int{0, 1, 1, -1, -1} {
		if d[i] != want {
			t.Errorf("Depths[%d] = %d, want %d", i, d[i], want)
		}
	}
}

func TestTreeAddAndInvariants(t *testing.T) {
	g := chainGraph(4)
	tr := NewTree(4, 0)
	if err := tr.Add(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := tr.Add(2, 1); err != nil {
		t.Fatal(err)
	}
	if err := tr.Add(3, 2); err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(g); err != nil {
		t.Fatalf("valid crawl rejected: %v", err)
	}
	if got := tr.Cost(g); got != 4 {
		t.Errorf("Cost = %v, want 4", got)
	}
	if !tr.Covers(g) {
		t.Error("crawl reaching node 3 must cover V*")
	}
}

func TestTreeAddRejectsOrphanAndDuplicate(t *testing.T) {
	tr := NewTree(4, 0)
	if err := tr.Add(2, 1); err == nil {
		t.Error("adding from uncrawled parent must fail")
	}
	if err := tr.Add(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := tr.Add(1, 0); err == nil {
		t.Error("crawling a node twice must fail (efficiency invariant)")
	}
}

func TestTreeValidateDetectsFakeEdge(t *testing.T) {
	g := chainGraph(4)
	tr := NewTree(4, 0)
	tr.Parent[3] = 0 // no edge 0 -> 3 exists
	if err := tr.Validate(g); err == nil {
		t.Error("crawl through a nonexistent edge must be invalid")
	}
}

func TestFrontierMatchesDefinition(t *testing.T) {
	// Root links to 1 and 2; 1 links to 3. Crawl {0,1}: frontier {2,3}.
	g := New(4, 0)
	g.AddEdge(0, 1, "")
	g.AddEdge(0, 2, "")
	g.AddEdge(1, 3, "")
	tr := NewTree(4, 0)
	if err := tr.Add(1, 0); err != nil {
		t.Fatal(err)
	}
	got := tr.Frontier(g)
	if len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Errorf("Frontier = %v, want [2 3]", got)
	}
}

func TestOptimalCrawlChain(t *testing.T) {
	g := chainGraph(5)
	if got := OptimalCrawlCost(g); got != 5 {
		t.Errorf("chain optimal = %v, want 5 (whole chain needed)", got)
	}
}

func TestOptimalCrawlChoosesCheapBranch(t *testing.T) {
	// Two routes to the target: via an expensive hub or a cheap one.
	g := New(4, 0)
	g.AddEdge(0, 1, "")
	g.AddEdge(0, 2, "")
	g.AddEdge(1, 3, "")
	g.AddEdge(2, 3, "")
	g.Weight[1] = 10
	g.Weight[2] = 1
	g.Target[3] = true
	if got := OptimalCrawlCost(g); got != 3 { // 0 + 2 + 3 with unit weights on 0,3
		t.Errorf("optimal = %v, want 3 (root + cheap hub + target)", got)
	}
}

func TestOptimalCrawlUnreachableTarget(t *testing.T) {
	g := New(3, 0)
	g.AddEdge(0, 1, "")
	g.Target[2] = true
	if got := OptimalCrawlCost(g); !math.IsInf(got, 1) {
		t.Errorf("unreachable target should give +Inf, got %v", got)
	}
}

func TestOptimalSharedPrefixBeatsDisjointPaths(t *testing.T) {
	// Star-of-chains vs a shared hub: the solver must exploit sharing.
	// root -> hub -> {t1, t2, t3}; root -> a1 -> t1 etc. would cost more.
	g := New(8, 0)
	hub := 1
	g.AddEdge(0, hub, "")
	for i := 0; i < 3; i++ {
		tgt := 2 + i
		g.AddEdge(hub, tgt, "")
		g.Target[tgt] = true
		// Decoy direct chains with an extra intermediate each.
		mid := 5 + i
		g.AddEdge(0, mid, "")
		g.AddEdge(mid, tgt, "")
	}
	if got := OptimalCrawlCost(g); got != 5 { // root, hub, 3 targets
		t.Errorf("optimal = %v, want 5", got)
	}
}

// TestSetCoverReduction verifies Proposition 4's equivalence on exhaustive
// small instances: min cover of size B exists iff min crawl cost = M + B + 1.
func TestSetCoverReduction(t *testing.T) {
	instances := []SetCoverInstance{
		{M: 3, Sets: [][]int{{0, 1}, {1, 2}, {2}}},
		{M: 4, Sets: [][]int{{0, 1, 2, 3}}},
		{M: 4, Sets: [][]int{{0}, {1}, {2}, {3}}},
		{M: 5, Sets: [][]int{{0, 1}, {2, 3}, {3, 4}, {0, 4}}},
		{M: 2, Sets: [][]int{{0}, {0}}}, // uncoverable: element 1 missing
	}
	for i, inst := range instances {
		g := ReduceSetCover(inst)
		if err := g.Validate(); err != nil {
			t.Fatalf("instance %d: reduced graph invalid: %v", i, err)
		}
		minCover := inst.MinCoverSize()
		crawlCost := OptimalCrawlCost(g)
		if minCover < 0 {
			if !math.IsInf(crawlCost, 1) {
				t.Errorf("instance %d: uncoverable but crawl cost %v", i, crawlCost)
			}
			continue
		}
		want := inst.CrawlBudgetFor(minCover)
		if crawlCost != want {
			t.Errorf("instance %d: crawl cost %v, want %v (M+B+1 with B=%d)",
				i, crawlCost, want, minCover)
		}
	}
}

// Property: the reduction preserves the optimum on random small instances.
func TestSetCoverReductionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := rng.Intn(4) + 2     // universe 2..5
		nSets := rng.Intn(4) + 1 // 1..4 sets
		inst := SetCoverInstance{M: m}
		for i := 0; i < nSets; i++ {
			var set []int
			for e := 0; e < m; e++ {
				if rng.Intn(2) == 0 {
					set = append(set, e)
				}
			}
			if len(set) == 0 {
				set = []int{rng.Intn(m)}
			}
			inst.Sets = append(inst.Sets, set)
		}
		g := ReduceSetCover(inst)
		minCover := inst.MinCoverSize()
		crawlCost := OptimalCrawlCost(g)
		if minCover < 0 {
			return math.IsInf(crawlCost, 1)
		}
		return crawlCost == inst.CrawlBudgetFor(minCover)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: any BFS crawl of a random DAG is a valid tree whose cost is at
// least the optimum.
func TestBFSCrawlUpperBoundsOptimumProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(8) + 3
		g := New(n, 0)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Intn(3) == 0 {
					g.AddEdge(u, v, "e")
				}
			}
		}
		for v := 1; v < n; v++ {
			if rng.Intn(4) == 0 {
				g.Target[v] = true
			}
		}
		reach := g.Reachable()
		// Restrict targets to reachable nodes so both sides are finite.
		for v := range g.Target {
			if !reach[v] {
				g.Target[v] = false
			}
		}
		// BFS crawl of the whole reachable component.
		tr := NewTree(n, 0)
		queue := []int{0}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range g.Adj[u] {
				if !tr.Contains(v) {
					if err := tr.Add(v, u); err != nil {
						return false
					}
					queue = append(queue, v)
				}
			}
		}
		if err := tr.Validate(g); err != nil {
			return false
		}
		if !tr.Covers(g) {
			return false
		}
		return tr.Cost(g) >= OptimalCrawlCost(g)-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestExactSolverSizeGuard(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("solver must refuse graphs beyond its exhaustive range")
		}
	}()
	OptimalCrawlCost(New(31, 0))
}
