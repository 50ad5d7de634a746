package fetch

// Binary codec for replay records (internal/codec framing, KindResponse).
// Responses are the highest-volume durable type — one record per fetched
// URL — so both directions are allocation-free in steady state:
// AppendResponse grows a caller-reused buffer, DecodeResponseInto fills a
// reused struct with views aliasing the raw blob.

import "sbcrawl/internal/codec"

// AppendResponse appends the codec encoding of resp to dst and returns
// the extended buffer.
func AppendResponse(dst []byte, resp *Response) []byte {
	dst = codec.AppendHeader(dst, codec.KindResponse)
	dst = codec.AppendString(dst, resp.URL)
	dst = codec.AppendInt(dst, resp.Status)
	dst = codec.AppendString(dst, resp.MIME)
	dst = codec.AppendString(dst, resp.Location)
	dst = codec.AppendBytes(dst, resp.Body)
	dst = codec.AppendInt(dst, resp.ContentLength)
	dst = codec.AppendBool(dst, resp.Interrupted)
	dst = codec.AppendInt(dst, resp.RetryAfter)
	return dst
}

// DecodeResponseInto decodes raw into resp without allocating: the
// decoded URL/MIME/Location strings and Body are views aliasing raw, so
// raw must stay alive and unmodified for as long as resp is used. A caller
// that reuses raw's buffer must first copy out whatever outlives it (Replay
// keeps only the Body as a view, and lends it; see Replay.Recycle).
func DecodeResponseInto(raw []byte, resp *Response) error {
	payload, err := codec.Header(raw, codec.KindResponse)
	if err != nil {
		return err
	}
	r := codec.NewReader(payload)
	resp.URL = r.ViewString()
	resp.Status = r.Int()
	resp.MIME = r.ViewString()
	resp.Location = r.ViewString()
	resp.Body = r.View()
	resp.ContentLength = r.Int()
	resp.Interrupted = r.Bool()
	resp.RetryAfter = r.Int()
	return r.Close()
}
