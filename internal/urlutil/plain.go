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
func span(s string, i int, class uint8) int {
	for i < len(s) && byteClass[s[i]]&class != 0 {
		i++
	}
	return i
}

// plainOrigin scans "http://host" or "https://host" at the start of s — the
// scheme in lowercase, the host non-empty and all cHost — and returns the
// offsets of the host. ok is false for anything else.
func plainOrigin(s string) (hostStart, hostEnd int, ok bool) {
	switch {
	case len(s) > 7 && s[:7] == "http://":
		hostStart = 7
	case len(s) > 8 && s[:8] == "https://":
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
func plainTail(s string, i int, dots bool) (pathEnd, end int, ok bool) {
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

// normalizePlain is Normalize's fast path. It either returns exactly what
// normalizeURL would, or declines (ok=false) and leaves ref to it. It takes
// two shapes of reference, both in the plain form and both free of dot
// segments: a path-absolute one ("/p?q#f", not "//"), which resolves to the
// base's origin followed by the reference when that origin is itself plain;
// and an absolute one ("http://host/p?q#f"), which is its own normal form.
// The fragment is cut either way.
func normalizePlain(base *url.URL, ref string) (abs string, ok bool) {
	start := 0 // where the path begins in ref
	switch {
	case len(ref) == 0:
		return "", false
	case ref[0] != '/':
		if _, start, ok = plainOrigin(ref); !ok {
			return "", false
		}
	case len(ref) > 1 && ref[1] == '/':
		return "", false // "//host/…" names an authority
	}
	_, end, ok := plainTail(ref, start, false)
	if !ok || span(ref, end, cFrag) != len(ref) {
		return "", false
	}
	if start > 0 {
		return ref[:end], true
	}
	if base == nil || base.User != nil || (base.Scheme != "http" && base.Scheme != "https") ||
		base.Host == "" || span(base.Host, 0, cHost) != len(base.Host) {
		return "", false
	}
	return base.Scheme + "://" + base.Host + ref[:end], true
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
