package urlutil

import (
	"net/url"
	"strings"
)

// Byte classes of the plain URL form (see the package comment). A byte may
// belong to several.
const (
	cHost  = 1 << iota // a-z 0-9 . -          : a lowercase reg-name, no port, no userinfo
	cPath              // unreserved and '/'    : net/url neither escapes nor unescapes these
	cQuery             // '!'..'~' except '#'   : RawQuery is carried verbatim
	cFrag              // '!'..'~' except '%'   : a fragment is dropped, but a bad escape in it fails the parse
)

var byteClass = func() (t [256]uint8) {
	for c := '!'; c <= '~'; c++ {
		t[c] = cQuery | cFrag
	}
	t['#'] &^= cQuery
	t['%'] &^= cFrag
	for c := 'a'; c <= 'z'; c++ {
		t[c] |= cHost | cPath
		t[c-'a'+'A'] |= cPath
	}
	for c := '0'; c <= '9'; c++ {
		t[c] |= cHost | cPath
	}
	for _, c := range "-." {
		t[c] |= cHost | cPath
	}
	for _, c := range "_~/" {
		t[c] |= cPath
	}
	return t
}()

// span returns the index of the first byte of s at or after i that is not in
// class.
func span[S string | []byte](s S, i int, class uint8) int {
	for i < len(s) && byteClass[s[i]]&class != 0 {
		i++
	}
	return i
}

// plainOrigin scans "http://host" or "https://host" at the start of s — the
// scheme in lowercase, the host non-empty and all cHost — and returns the
// offsets of the host. ok is false for anything else.
func plainOrigin[S string | []byte](s S) (hostStart, hostEnd int, ok bool) {
	switch {
	case len(s) > 7 && string(s[:7]) == "http://":
		hostStart = 7
	case len(s) > 8 && string(s[:8]) == "https://":
		hostStart = 8
	default:
		return 0, 0, false
	}
	hostEnd = span(s, hostStart, cHost)
	return hostStart, hostEnd, hostEnd > hostStart
}

// plainTail scans the path-absolute remainder of a URL starting at s[i]
// ('/' required): a cPath path, then an optional non-empty cQuery query.
// dots=false additionally refuses a path segment that starts with '.', the
// one shape ("." and ".." segments) reference resolution rewrites. It
// returns the end of the path and the end of the query (== pathEnd when
// there is none); ok is false when the scan met a byte outside its class
// before the end of s or a '#'.
func plainTail[S string | []byte](s S, i int, dots bool) (pathEnd, end int, ok bool) {
	if i >= len(s) || s[i] != '/' {
		return 0, 0, false
	}
	pathEnd = span(s, i, cPath)
	if !dots {
		for j := i; j+1 < pathEnd; j++ {
			if s[j] == '/' && s[j+1] == '.' {
				return 0, 0, false
			}
		}
	}
	end = pathEnd
	if end < len(s) && s[end] == '?' {
		end = span(s, end+1, cQuery)
		if end == pathEnd+1 {
			return 0, 0, false // "/a?": net/url keeps the bare '?' through ForceQuery
		}
	}
	return pathEnd, end, end == len(s) || s[end] == '#'
}

// plainRef reads a reference in one of the two shapes the fast path takes,
// both in the plain form and both free of dot segments: a path-absolute one
// ("/p?q#f", not "//"), which resolves to the base's origin followed by the
// reference when that origin is itself plain; and an absolute one
// ("http://host/p?q#f"), which is its own normal form. start is where the
// path begins in ref (0 for the path-absolute shape) and ref[:end] is what
// the normal form keeps of it: the fragment is cut either way. ok is false
// for any other reference.
func plainRef[S string | []byte](ref S) (start, end int, ok bool) {
	switch {
	case len(ref) == 0:
		return 0, 0, false
	case ref[0] != '/':
		if _, start, ok = plainOrigin(ref); !ok {
			return 0, 0, false
		}
	case len(ref) > 1 && ref[1] == '/':
		return 0, 0, false // "//host/…" names an authority
	}
	_, end, ok = plainTail(ref, start, false)
	if !ok || span(ref, end, cFrag) != len(ref) {
		return 0, 0, false
	}
	return start, end, true
}

// normalizePlain is Normalize's fast path. It either returns exactly what
// normalizeURL would, or declines (ok=false) and leaves ref to it.
func normalizePlain(base *url.URL, ref string) (abs string, ok bool) {
	start, end, ok := plainRef(ref)
	switch {
	case !ok:
		return "", false
	case start > 0:
		return ref[:end], true
	case base == nil || base.User != nil || (base.Scheme != "http" && base.Scheme != "https") ||
		base.Host == "" || span(base.Host, 0, cHost) != len(base.Host):
		return "", false
	}
	return base.Scheme + "://" + base.Host + ref[:end], true
}

// Base is a page URL as the base its links resolve against, parsed only when
// a link needs more of it than its origin. When the page URL is in the plain
// form, a plain reference resolves against the origin alone (url.Parse of
// such a URL has exactly that scheme and host, and no userinfo), so a page
// whose links are all plain never reaches net/url. A Base is reused from page
// to page through Reset; the zero Base is the empty page URL.
type Base struct {
	raw    string
	origin string   // raw's "scheme://host" when raw is plain, else ""
	u      *url.URL // ParseBase(raw), once a reference has needed it
}

// Reset points b at the page URL raw.
func (b *Base) Reset(raw string) {
	b.raw, b.origin, b.u = raw, "", nil
	if host, _, ok := splitPlain(raw); ok {
		b.origin = raw[:strings.IndexByte(raw, ':')+len("://")+len(host)]
	}
}

// parsed is ParseBase of the page URL, parsed on first use.
func (b *Base) parsed() *url.URL {
	if b.u == nil {
		b.u = ParseBase(b.raw)
	}
	return b.u
}

// AppendNormalize appends Normalize(ParseBase(page), ref) to dst, where page
// is the URL b was Reset to, and reports false (dst unchanged) where that is
// "". A plain reference builds no string on the way; any other one goes
// through Normalize.
func (b *Base) AppendNormalize(dst []byte, ref string) ([]byte, bool) {
	return appendNormalize(b, dst, ref)
}

// AppendNormalizeBytes is AppendNormalize of a reference held as bytes, such
// as a view of the page it came from: only a reference that is not plain
// becomes a string, for Normalize.
func (b *Base) AppendNormalizeBytes(dst, ref []byte) ([]byte, bool) {
	return appendNormalize(b, dst, ref)
}

// appendNormalize is AppendNormalize over either form of ref.
func appendNormalize[S string | []byte](b *Base, dst []byte, ref S) ([]byte, bool) {
	if start, end, ok := plainRef(ref); ok && (start > 0 || b.origin != "") {
		if start == 0 {
			dst = append(dst, b.origin...)
		}
		return append(dst, ref[:end]...), true
	}
	abs := Normalize(b.parsed(), string(ref))
	return append(dst, abs...), abs != ""
}

// String returns abs, the normal form of ref that AppendNormalize appended,
// as a string that outlives abs's buffer: ref itself (a view) when it begins
// with abs — an absolute plain reference is its own normal form, so it costs
// nothing, as in Normalize — and a copy otherwise.
func String(abs []byte, ref string) string {
	if len(abs) <= len(ref) && ref[:len(abs)] == string(abs) {
		return ref[:len(abs)]
	}
	return string(abs)
}

// splitPlain splits an absolute URL in the plain form — what Normalize
// returns for all but exotic links — into host and path views without
// parsing it. Whenever it accepts, url.Parse(raw) succeeds with Host and
// Hostname() equal to host and Path equal to path. A '#' declines: a
// fragment's escapes would have to be validated, and normalized URLs have
// none.
func splitPlain(raw string) (host, path string, ok bool) {
	hostStart, hostEnd, ok := plainOrigin(raw)
	if !ok {
		return "", "", false
	}
	pathEnd, end, ok := plainTail(raw, hostEnd, true)
	if !ok || end != len(raw) {
		return "", "", false
	}
	return raw[hostStart:hostEnd], raw[hostEnd:pathEnd], true
}

// parts is what the package's readers (scope, blocklist, depth, host keys)
// need of a URL.
type parts struct {
	scheme   string
	host     string // url.URL.Host: port included, case preserved
	hostname string // url.URL.Hostname()
	path     string
}

// split takes raw apart once for every reader: by splitPlain when raw is in
// the plain form, by url.Parse otherwise. ok is false when raw does not
// parse.
func split(raw string) (p parts, ok bool) {
	if host, path, ok := splitPlain(raw); ok {
		return parts{scheme: raw[:strings.IndexByte(raw, ':')], host: host, hostname: host, path: path}, true
	}
	u, err := url.Parse(raw)
	if err != nil {
		return parts{}, false
	}
	return parts{scheme: u.Scheme, host: u.Host, hostname: u.Hostname(), path: u.Path}, true
}
