// Package fabric holds the two shapes a partitioned crawl once shared
// across packages, both kept until the benchmark re-base: the diagnostics
// block a stored result may still carry, and the envelope framing of the
// parked cross-process transport. No crawl partitions anything: a crawl is
// the engine's one sequential loop in front of its one fetch.Prefetcher
// window, which Prefetch alone sizes.
package fabric

import "sbcrawl/internal/codec"

// Stats is the diagnostics block a partitioned crawl reported. Nothing sets
// it any more; it stays because stored done-records carry it (core's result
// codec reads and writes its fields) and the frozen benchmark/ reads it.
// Delete it at the benchmark re-base.
type Stats struct {
	// Partitions was the resolved partition count.
	Partitions int
	// Forwarded, Stalls and MaxQueueDepth described the deleted
	// in-process exchange and always read 0.
	Forwarded     int
	Stalls        int
	MaxQueueDepth int
	// DemandHits / DemandMisses counted the crawl loop's GETs answered
	// from the speculation window vs fallen through to the backend.
	DemandHits   int
	DemandMisses int
	// PartitionFetches counted speculative launches by the partition
	// owning the launched URL's host.
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
