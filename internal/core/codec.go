package core

// Binary codec for the engine's durable types (internal/codec framing):
// Checkpoint (KindCheckpoint, written every CheckpointEvery charged
// requests through the store sink) and Result (KindResult, the
// done-record a completed crawl leaves behind). Decoders preserve
// nil-vs-empty slices and nil-vs-present pointers exactly — resume
// equivalence gates compare decoded values with reflect.DeepEqual.

import (
	"time"

	"sbcrawl/internal/classify"
	"sbcrawl/internal/codec"
	"sbcrawl/internal/fabric"
	"sbcrawl/internal/fetch"
)

// AppendCheckpoint appends the codec encoding of cp to dst.
func AppendCheckpoint(dst []byte, cp *Checkpoint) []byte {
	dst = codec.AppendHeader(dst, codec.KindCheckpoint)
	dst = codec.AppendInt(dst, cp.Requests)
	dst = codec.AppendInt(dst, cp.HeadRequests)
	dst = codec.AppendInt(dst, cp.Targets)
	dst = codec.AppendVarint(dst, cp.TargetBytes)
	dst = codec.AppendVarint(dst, cp.NonTargetBytes)
	dst = codec.AppendInt(dst, cp.Visited)
	dst = codec.AppendInt(dst, cp.TunerWindow)
	dst = codec.AppendBytes(dst, cp.Frontier)
	// The slot of the per-partition frontier snapshots earlier builds
	// checkpointed: written as the nil list so the layout is unchanged.
	dst = codec.AppendUvarint(dst, 0)
	return dst
}

// DecodeCheckpoint decodes a durable checkpoint.
func DecodeCheckpoint(raw []byte) (Checkpoint, error) {
	var cp Checkpoint
	payload, err := codec.Header(raw, codec.KindCheckpoint)
	if err != nil {
		return cp, err
	}
	r := codec.NewReader(payload)
	cp.Requests = r.Int()
	cp.HeadRequests = r.Int()
	cp.Targets = r.Int()
	cp.TargetBytes = r.Varint()
	cp.NonTargetBytes = r.Varint()
	cp.Visited = r.Int()
	cp.TunerWindow = r.Int()
	cp.Frontier = r.Bytes()
	// Checkpoints of earlier builds carry partition snapshots here; they
	// only ever warmed speculation, so they are read past.
	if n, ok := r.SliceLen(); ok {
		for i := 0; i < n && r.Err() == nil; i++ {
			r.View()
		}
	}
	return cp, r.Close()
}

// AppendResult appends the codec encoding of res to dst.
func AppendResult(dst []byte, res *Result) []byte {
	dst = codec.AppendHeader(dst, codec.KindResult)
	dst = codec.AppendString(dst, res.Crawler)
	dst = codec.AppendBool(dst, res.Trace != nil)
	if res.Trace != nil {
		dst = codec.AppendInt32s(dst, res.Trace.Targets)
		dst = codec.AppendInt64s(dst, res.Trace.TargetBytes)
		dst = codec.AppendInt64s(dst, res.Trace.NonTargetBytes)
	}
	dst = codec.AppendStrings(dst, res.Targets)
	dst = codec.AppendInt(dst, res.Requests)
	dst = codec.AppendInt(dst, res.HeadRequests)
	dst = codec.AppendVarint(dst, res.TargetBytes)
	dst = codec.AppendVarint(dst, res.NonTargetBytes)
	dst = codec.AppendInt(dst, res.Steps)
	dst = codec.AppendBool(dst, res.EarlyStopped)
	if res.Actions == nil {
		dst = codec.AppendUvarint(dst, 0)
	} else {
		dst = codec.AppendUvarint(dst, uint64(len(res.Actions))+1)
		for _, a := range res.Actions {
			dst = codec.AppendInt(dst, a.ID)
			dst = codec.AppendFloat64(dst, a.MeanReward)
			dst = codec.AppendInt(dst, a.Selections)
			dst = codec.AppendInt(dst, a.Paths)
		}
	}
	dst = codec.AppendBool(dst, res.Confusion != nil)
	if res.Confusion != nil {
		for t := 0; t < 3; t++ {
			for p := 0; p < 3; p++ {
				dst = codec.AppendInt(dst, res.Confusion.Counts[t][p])
			}
		}
	}
	dst = codec.AppendBool(dst, res.Spec != nil)
	if res.Spec != nil {
		dst = codec.AppendInt(dst, res.Spec.Launched)
		dst = codec.AppendInt(dst, res.Spec.Hits)
		dst = codec.AppendInt(dst, res.Spec.Misses)
		dst = codec.AppendInt(dst, res.Spec.Evicted)
		dst = codec.AppendInt(dst, res.Spec.HeadHits)
		dst = codec.AppendInt(dst, res.Spec.SharedHits)
	}
	dst = codec.AppendInt(dst, res.ParseHits)
	dst = codec.AppendBool(dst, res.Fabric != nil)
	if res.Fabric != nil {
		dst = codec.AppendInt(dst, res.Fabric.Partitions)
		dst = codec.AppendInt(dst, res.Fabric.Forwarded)
		dst = codec.AppendInt(dst, res.Fabric.Stalls)
		dst = codec.AppendInt(dst, res.Fabric.MaxQueueDepth)
		dst = codec.AppendInt(dst, res.Fabric.DemandHits)
		dst = codec.AppendInt(dst, res.Fabric.DemandMisses)
		dst = codec.AppendInts(dst, res.Fabric.PartitionFetches)
	}
	dst = codec.AppendBool(dst, res.Faults != nil)
	if res.Faults != nil {
		dst = codec.AppendInt(dst, res.Faults.Retries)
		dst = codec.AppendInt(dst, res.Faults.RetrySuccesses)
		dst = codec.AppendInt(dst, res.Faults.Exhausted)
		dst = codec.AppendVarint(dst, int64(res.Faults.BackoffWait))
		dst = codec.AppendInt(dst, res.Faults.BreakerTrips)
		dst = codec.AppendInt(dst, res.Faults.BreakerFastFails)
		dst = codec.AppendInt(dst, res.Faults.FailedRequests)
		dst = codec.AppendStrings(dst, res.Faults.QuarantinedHosts)
	}
	return dst
}

// DecodeResult decodes a durable crawl result.
func DecodeResult(raw []byte) (*Result, error) {
	payload, err := codec.Header(raw, codec.KindResult)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	r := codec.NewReader(payload)
	res.Crawler = r.String()
	if r.Bool() {
		res.Trace = &Trace{
			Targets:        r.Int32s(),
			TargetBytes:    r.Int64s(),
			NonTargetBytes: r.Int64s(),
		}
	}
	res.Targets = r.Strings()
	res.Requests = r.Int()
	res.HeadRequests = r.Int()
	res.TargetBytes = r.Varint()
	res.NonTargetBytes = r.Varint()
	res.Steps = r.Int()
	res.EarlyStopped = r.Bool()
	if n, ok := r.SliceLen(); ok {
		res.Actions = make([]ActionStat, 0, n)
		for i := 0; i < n && r.Err() == nil; i++ {
			res.Actions = append(res.Actions, ActionStat{
				ID:         r.Int(),
				MeanReward: r.Float64(),
				Selections: r.Int(),
				Paths:      r.Int(),
			})
		}
	}
	if r.Bool() {
		res.Confusion = &classify.Confusion{}
		for t := 0; t < 3; t++ {
			for p := 0; p < 3; p++ {
				res.Confusion.Counts[t][p] = r.Int()
			}
		}
	}
	if r.Bool() {
		res.Spec = &fetch.PrefetchStats{
			Launched:   r.Int(),
			Hits:       r.Int(),
			Misses:     r.Int(),
			Evicted:    r.Int(),
			HeadHits:   r.Int(),
			SharedHits: r.Int(),
		}
	}
	res.ParseHits = r.Int()
	if r.Bool() {
		res.Fabric = &fabric.Stats{
			Partitions:       r.Int(),
			Forwarded:        r.Int(),
			Stalls:           r.Int(),
			MaxQueueDepth:    r.Int(),
			DemandHits:       r.Int(),
			DemandMisses:     r.Int(),
			PartitionFetches: r.Ints(),
		}
	}
	if r.Bool() {
		res.Faults = &fetch.FaultStats{
			Retries:          r.Int(),
			RetrySuccesses:   r.Int(),
			Exhausted:        r.Int(),
			BackoffWait:      time.Duration(r.Varint()),
			BreakerTrips:     r.Int(),
			BreakerFastFails: r.Int(),
			FailedRequests:   r.Int(),
			QuarantinedHosts: r.Strings(),
		}
	}
	if err := r.Close(); err != nil {
		return nil, err
	}
	return res, nil
}
