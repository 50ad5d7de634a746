// Package fabric holds what a partitioned crawl (Env.Partitions) shares
// across packages: the partition-count resolution, the host-hash ownership
// rule, the diagnostics block a partitioned crawl reports, and the envelope
// framing of the parked cross-process transport.
//
// There is no second crawler here. A partitioned crawl is the engine's one
// sequential loop in front of its one fetch.Prefetcher window; Partitions
// only scales that window (see core.Env.Partitions).
package fabric

import (
	"runtime"

	"sbcrawl/internal/codec"
)

// Auto is the partition-count sentinel: any negative count resolves to
// min(GOMAXPROCS, 8) via Resolve.
const Auto = -1

// Resolve maps a Partitions setting onto a concrete partition count:
// n >= 0 is used as-is, any negative value selects min(GOMAXPROCS, 8).
func Resolve(n int) int {
	if n >= 0 {
		return n
	}
	return max(1, min(runtime.GOMAXPROCS(0), 8))
}

// Owner maps a host identity (urlutil.SiteHost: lowercased, www-stripped)
// onto one of n partitions by its 32-bit FNV-1a hash, so every URL of one
// host has one owner.
func Owner(host string, n int) int {
	if n <= 1 {
		return 0
	}
	h := uint32(2166136261)
	for i := 0; i < len(host); i++ {
		h = (h ^ uint32(host[i])) * 16777619
	}
	return int(h % uint32(n))
}

// Stats is the diagnostics block of a partitioned crawl. Wall-clock
// diagnostic only, like fetch.PrefetchStats: the counters depend on
// scheduling and are kept out of the determinism guarantee.
type Stats struct {
	// Partitions is the resolved partition count.
	Partitions int
	// Forwarded, Stalls and MaxQueueDepth described the deleted
	// in-process exchange and always read 0. They stay only because the
	// frozen benchmark/ and stored done-records name them; delete them at
	// the benchmark re-base.
	Forwarded     int
	Stalls        int
	MaxQueueDepth int
	// DemandHits / DemandMisses count the crawl loop's GETs answered from
	// the speculation window vs fallen through to the backend.
	DemandHits   int
	DemandMisses int
	// PartitionFetches counts speculative launches by the partition owning
	// the launched URL's host (Owner).
	PartitionFetches []int
}

// Envelope is one cross-partition URL transfer, the message a wire
// transport between crawl processes would frame.
type Envelope struct {
	// From / To are partition indices.
	From, To int
	// URLs are normalized absolute URLs owned by partition To.
	URLs []string
}

// AppendEnvelope appends the codec encoding of e (KindEnvelope, one
// self-contained message) to dst.
func AppendEnvelope(dst []byte, e *Envelope) []byte {
	dst = codec.AppendHeader(dst, codec.KindEnvelope)
	dst = codec.AppendInt(dst, e.From)
	dst = codec.AppendInt(dst, e.To)
	dst = codec.AppendStrings(dst, e.URLs)
	return dst
}
