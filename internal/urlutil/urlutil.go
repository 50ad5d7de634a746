// Package urlutil implements the URL scoping, normalization, and MIME-type
// rules of Section 2.2 of the paper. A URL belongs to the website rooted at r
// when its hostname (ignoring a leading "www.") is a subdomain of r's
// hostname; targets are identified by a user-defined MIME-type list, and
// multimedia content is excluded by MIME and extension blocklists.
//
// # The link path: net/url is the definition, the plain form is the fast path
//
// Algorithm 4 resolves, scopes and blocklist-checks every hyperlink of every
// page, so these functions run once per discovered URL. Their definitions are
// written in net/url's terms and stay that way: normalizeURL (url.Parse +
// ResolveReference + String) is what Normalize returns, and url.Parse's Host,
// Hostname and Path are what Scope.Contains, Extension, Depth, SiteHost and
// Authority read. In front of each sits a check for the plain form, which
// either produces the identical answer without parsing or declines and
// leaves the input to net/url untouched; the fuzz targets hold both to that.
//
// The plain form is what nearly every link is: a lowercase "http://" or
// "https://", a host of [a-z0-9.-] (so no port, userinfo, IPv6 literal or
// uppercase to fold), a path of unreserved bytes and '/' (bytes net/url
// neither escapes nor unescapes), and an optional non-empty query of
// printable ASCII (RawQuery is carried verbatim). A reference in that form,
// or a path-absolute one ("/p?q") against a base whose origin is in that
// form, normalizes by concatenation; a fragment of printable ASCII without
// '%' is cut (a bad escape there fails the parse, so '%' declines). A path
// segment starting with '.' declines as well: "." and ".." segments are the
// one thing reference resolution rewrites inside such a path, and "/." is
// the cheapest test that rules both out. splitPlain reads host and path off
// an already-normalized URL under the same classes; a '#' declines there
// outright. Base.AppendNormalize is Normalize with the same grammar, written
// into the caller's buffer, against a page URL that is parsed only when a
// reference falls through to net/url.
package urlutil

import (
	"net/url"
	"path"
	"strings"
)

// Scope decides which URLs belong to the website being crawled, following
// the pragmatic boundary definition of Section 2.2: a URL is in scope when
// its hostname, after stripping a potential "www." prefix, equals the root
// hostname or is one of its subdomains.
type Scope struct {
	rootHost string // root hostname, lowercased, without "www."
}

// NewScope builds a Scope from the crawl root URL. It returns an error when
// the root is not an absolute http(s) URL with a hostname.
func NewScope(root string) (*Scope, error) {
	u, err := url.Parse(root)
	if err != nil {
		return nil, err
	}
	host := StripWWW(strings.ToLower(u.Hostname()))
	if host == "" {
		return nil, &ScopeError{Root: root}
	}
	return &Scope{rootHost: host}, nil
}

// ScopeError reports a root URL from which no scope could be derived.
type ScopeError struct{ Root string }

func (e *ScopeError) Error() string { return "urlutil: root URL has no hostname: " + e.Root }

// Contains reports whether raw is part of the same website as the root.
// Invalid URLs and non-http(s) schemes are out of scope.
func (s *Scope) Contains(raw string) bool {
	p, ok := split(raw)
	return ok && s.containsParts(p)
}

func (s *Scope) containsParts(p parts) bool {
	if p.scheme != "" && p.scheme != "http" && p.scheme != "https" {
		return false
	}
	host := StripWWW(strings.ToLower(p.hostname))
	if host == "" {
		return false
	}
	if host == s.rootHost {
		return true
	}
	// A subdomain ends in "." + rootHost; tested without building that string.
	return len(host) > len(s.rootHost) && strings.HasSuffix(host, s.rootHost) &&
		host[len(host)-len(s.rootHost)-1] == '.'
}

// Admit applies the two URL filters of Algorithm 4 to a normalized absolute
// URL from one split of it: same-website scope (Sec. 2.2) and the extension
// blocklist (Sec. 3.4). It is Contains(abs) && !HasBlockedExtension(abs).
func (s *Scope) Admit(abs string) bool {
	p, ok := split(abs)
	return ok && s.containsParts(p) && !blockedPath(p.path)
}

// StripWWW removes a single leading "www." label from a hostname, the
// special-case of Section 2.2 (many, but not all, sites prefix their web
// server's domain name with it).
func StripWWW(host string) string {
	return strings.TrimPrefix(host, "www.")
}

// SiteHost returns the host identity the crawl scope uses for raw: the
// lowercased hostname without a leading "www.", or "" when raw does not
// parse. Partition ownership (fabric.Owner) and the fault schedules key on it.
func SiteHost(raw string) string {
	p, _ := split(raw)
	return StripWWW(strings.ToLower(p.hostname))
}

// Authority returns raw's host as url.URL.Host reports it (port included,
// case preserved), or "" when raw does not parse or has none.
func Authority(raw string) string {
	p, _ := split(raw)
	return p.host
}

// ParseBase parses a page URL for use as Normalize's base. An unparsable
// page URL yields the empty URL, against which only absolute references
// resolve.
func ParseBase(raw string) *url.URL {
	u, err := url.Parse(raw)
	if err != nil {
		return &url.URL{}
	}
	return u
}

// Normalize canonicalizes a possibly relative URL against base: resolves the
// reference, lowercases scheme and host, strips fragments, and removes
// default ports. It returns the empty string for unusable URLs (javascript:,
// mailto:, data:, malformed).
func Normalize(base *url.URL, ref string) string {
	if abs, ok := normalizePlain(base, ref); ok {
		return abs
	}
	return normalizeURL(base, ref)
}

// normalizeURL is the definition of Normalize, in net/url's terms.
func normalizeURL(base *url.URL, ref string) string {
	ref = strings.TrimSpace(ref)
	if ref == "" {
		return ""
	}
	u, err := url.Parse(ref)
	if err != nil {
		return ""
	}
	if base != nil {
		u = base.ResolveReference(u)
	}
	switch u.Scheme {
	case "http", "https":
	default:
		return ""
	}
	u.Fragment = ""
	u.Scheme = strings.ToLower(u.Scheme)
	u.Host = strings.ToLower(u.Host)
	if h, p, ok := strings.Cut(u.Host, ":"); ok {
		if (u.Scheme == "http" && p == "80") || (u.Scheme == "https" && p == "443") {
			u.Host = h
		}
	}
	if u.Path == "" {
		u.Path = "/"
	}
	return u.String()
}

// pathExtension returns the lowercased file extension of a URL path,
// including the leading dot, or "" when the path has none: the key of the
// extension blocklist of Section 3.4.
func pathExtension(p string) string {
	ext := path.Ext(p)
	if ext == "." {
		return ""
	}
	return strings.ToLower(ext)
}

// Depth returns the number of non-empty path segments of the URL, a cheap
// approximation of page depth used as a feature by the FOCUSED baseline.
func Depth(raw string) int {
	p, _ := split(raw)
	n := 0
	for i := 0; i < len(p.path); i++ {
		if p.path[i] != '/' && (i == 0 || p.path[i-1] == '/') {
			n++
		}
	}
	return n
}
