package serve

// Binary codec for durable session records (internal/codec framing,
// KindSessionRecord). Created travels as a Unix seconds + nanosecond
// pair — not UnixNano, which is undefined outside years 1678–2262 and
// silently mangles the zero time.

import (
	"time"

	"sbcrawl/internal/codec"
)

// encodeSessionRecord serializes a session record for durable storage.
func encodeSessionRecord(rec *sessionRecord) []byte {
	dst := codec.AppendHeader(make([]byte, 0, 256), codec.KindSessionRecord)
	dst = codec.AppendString(dst, rec.Spec.Tenant)
	dst = codec.AppendString(dst, rec.Spec.Name)
	dst = codec.AppendInt(dst, rec.Spec.Weight)
	dst = appendCrawlSpec(dst, &rec.Spec.Crawl)
	if rec.Spec.Sites == nil {
		dst = codec.AppendUvarint(dst, 0)
	} else {
		dst = codec.AppendUvarint(dst, uint64(len(rec.Spec.Sites))+1)
		for _, site := range rec.Spec.Sites {
			dst = codec.AppendString(dst, site.Code)
			dst = codec.AppendFloat64(dst, site.Scale)
			dst = codec.AppendVarint(dst, site.Seed)
		}
	}
	dst = codec.AppendStrings(dst, rec.Spec.Roots)
	dst = codec.AppendBool(dst, rec.Cancelled)
	dst = codec.AppendVarint(dst, rec.Created.Unix())
	dst = codec.AppendVarint(dst, int64(rec.Created.Nanosecond()))
	return dst
}

func appendCrawlSpec(dst []byte, c *CrawlSpec) []byte {
	dst = codec.AppendString(dst, c.Strategy)
	dst = codec.AppendInt(dst, c.MaxRequests)
	dst = codec.AppendVarint(dst, c.Seed)
	dst = codec.AppendBool(dst, c.EarlyStop)
	dst = codec.AppendVarint(dst, int64(c.SimLatency))
	dst = codec.AppendInt(dst, c.Prefetch)
	dst = codec.AppendInt(dst, 0) // retired Partitions slot
	dst = codec.AppendInt(dst, 0) // retired ParseWorkers slot
	dst = codec.AppendVarint(dst, int64(c.Politeness))
	dst = codec.AppendStrings(dst, c.TargetMIMEs)
	dst = codec.AppendFloat64(dst, c.Theta)
	dst = codec.AppendFloat64(dst, c.Alpha)
	dst = codec.AppendInt(dst, c.NGram)
	dst = codec.AppendInt(dst, c.BatchSize)
	dst = codec.AppendString(dst, c.ClassifierModel)
	dst = codec.AppendString(dst, c.UserAgent)
	dst = codec.AppendInt(dst, c.CheckpointEvery)
	dst = codec.AppendInt(dst, c.Retries)
	dst = codec.AppendFloat64(dst, c.FaultRate)
	dst = codec.AppendVarint(dst, c.FaultSeed)
	dst = codec.AppendStrings(dst, c.FaultDeadHosts)
	return dst
}

// decodeSessionRecord decodes a durable session record.
func decodeSessionRecord(raw []byte) (sessionRecord, error) {
	var rec sessionRecord
	payload, err := codec.Header(raw, codec.KindSessionRecord)
	if err != nil {
		return rec, err
	}
	r := codec.NewReader(payload)
	rec.Spec.Tenant = r.String()
	rec.Spec.Name = r.String()
	rec.Spec.Weight = r.Int()
	readCrawlSpec(&r, &rec.Spec.Crawl)
	if n, ok := r.SliceLen(); ok {
		rec.Spec.Sites = make([]SiteSpec, 0, n)
		for i := 0; i < n && r.Err() == nil; i++ {
			rec.Spec.Sites = append(rec.Spec.Sites, SiteSpec{
				Code:  r.String(),
				Scale: r.Float64(),
				Seed:  r.Varint(),
			})
		}
	}
	rec.Spec.Roots = r.Strings()
	rec.Cancelled = r.Bool()
	sec := r.Varint()
	rec.Created = time.Unix(sec, r.Varint())
	return rec, r.Close()
}

func readCrawlSpec(r *codec.Reader, c *CrawlSpec) {
	c.Strategy = r.String()
	c.MaxRequests = r.Int()
	c.Seed = r.Varint()
	c.EarlyStop = r.Bool()
	c.SimLatency = time.Duration(r.Varint())
	c.Prefetch = r.Int()
	r.Int() // retired Partitions slot; records written before its removal carry a value
	r.Int() // retired ParseWorkers slot; likewise
	c.Politeness = time.Duration(r.Varint())
	c.TargetMIMEs = r.Strings()
	c.Theta = r.Float64()
	c.Alpha = r.Float64()
	c.NGram = r.Int()
	c.BatchSize = r.Int()
	c.ClassifierModel = r.String()
	c.UserAgent = r.String()
	c.CheckpointEvery = r.Int()
	c.Retries = r.Int()
	c.FaultRate = r.Float64()
	c.FaultSeed = r.Varint()
	c.FaultDeadHosts = r.Strings()
}
