// Package robots implements the subset of the Robots Exclusion Protocol
// (RFC 9309) a polite focused crawler needs: per-user-agent Allow/Disallow
// groups with longest-match precedence, Crawl-delay, and Sitemap discovery.
// The paper's crawls obey crawling ethics (Sec. 1, Sec. 3.4); the live
// fetcher consults this package before every request.
package robots

import (
	"bufio"
	"strconv"
	"strings"
	"time"
)

// rule is one Allow/Disallow line, kept in file order.
type rule struct {
	path  string
	allow bool
}

// group is the ruleset for one set of user agents.
type group struct {
	agents     []string // lowercased agent tokens; "*" matches all
	rules      []rule
	crawlDelay time.Duration
}

// Policy is a parsed robots.txt.
type Policy struct {
	groups   []group
	sitemaps []string
}

// Parse reads a robots.txt body. Parsing is lenient: unknown directives and
// malformed lines are skipped, as real-world robots files demand.
func Parse(body []byte) *Policy {
	p := &Policy{}
	sc := bufio.NewScanner(strings.NewReader(string(body)))
	var cur *group
	lastWasAgent := false
	for sc.Scan() {
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		field, value, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		field = strings.ToLower(strings.TrimSpace(field))
		value = strings.TrimSpace(value)
		switch field {
		case "user-agent":
			if !lastWasAgent {
				p.groups = append(p.groups, group{})
				cur = &p.groups[len(p.groups)-1]
			}
			cur.agents = append(cur.agents, strings.ToLower(value))
			lastWasAgent = true
			continue
		case "allow", "disallow":
			if cur == nil {
				continue
			}
			if value == "" && field == "disallow" {
				// "Disallow:" (empty) allows everything; record nothing.
				lastWasAgent = false
				continue
			}
			cur.rules = append(cur.rules, rule{path: value, allow: field == "allow"})
		case "crawl-delay":
			if cur == nil {
				continue
			}
			if secs, err := strconv.ParseFloat(value, 64); err == nil && secs > 0 {
				cur.crawlDelay = time.Duration(secs * float64(time.Second))
			}
		case "sitemap":
			if value != "" {
				p.sitemaps = append(p.sitemaps, value)
			}
		}
		lastWasAgent = false
	}
	return p
}

// AllowAll is the policy of a site without robots.txt (or a 4xx fetch of
// it): everything is allowed, per RFC 9309 §2.3.1.3.
func AllowAll() *Policy { return &Policy{} }

// DisallowAll is the conservative policy RFC 9309 suggests for 5xx fetches.
func DisallowAll() *Policy {
	return &Policy{groups: []group{{
		agents: []string{"*"},
		rules:  []rule{{path: "/", allow: false}},
	}}}
}

// groupFor picks the most specific matching group for the user agent:
// an exact/prefix product-token match wins over "*".
func (p *Policy) groupFor(userAgent string) *group {
	ua := strings.ToLower(productToken(userAgent))
	var wildcard *group
	var best *group
	bestLen := -1
	for i := range p.groups {
		g := &p.groups[i]
		for _, a := range g.agents {
			switch {
			case a == "*":
				if wildcard == nil {
					wildcard = g
				}
			case strings.Contains(ua, a) && len(a) > bestLen:
				best, bestLen = g, len(a)
			}
		}
	}
	if best != nil {
		return best
	}
	return wildcard
}

// productToken extracts the leading product name of a User-Agent string
// ("sbcrawl/1.0 (...)" → "sbcrawl").
func productToken(ua string) string {
	ua = strings.TrimSpace(ua)
	for i := 0; i < len(ua); i++ {
		c := ua[i]
		if c == '/' || c == ' ' || c == '(' {
			return ua[:i]
		}
	}
	return ua
}

// Allowed reports whether the user agent may fetch the URL path. Matching
// follows RFC 9309: the longest matching rule wins, Allow beating Disallow
// on ties; no match means allowed.
func (p *Policy) Allowed(userAgent, path string) bool {
	g := p.groupFor(userAgent)
	if g == nil {
		return true
	}
	if path == "" {
		path = "/"
	}
	bestLen := -1
	allowed := true
	for _, r := range g.rules {
		if !pathMatches(r.path, path) {
			continue
		}
		l := len(r.path)
		if l > bestLen || (l == bestLen && r.allow && !allowed) {
			bestLen = l
			allowed = r.allow
		}
	}
	return allowed
}

// CrawlDelay returns the crawl delay for the user agent (0 when none).
func (p *Policy) CrawlDelay(userAgent string) time.Duration {
	if g := p.groupFor(userAgent); g != nil {
		return g.crawlDelay
	}
	return 0
}

// pathMatches implements robots path patterns: '*' matches any sequence,
// '$' anchors the end.
func pathMatches(pattern, path string) bool {
	if pattern == "" {
		return false
	}
	anchored := strings.HasSuffix(pattern, "$")
	if anchored {
		pattern = pattern[:len(pattern)-1]
	}
	return matchHere(pattern, path, anchored)
}

func matchHere(pattern, path string, anchored bool) bool {
	for {
		star := strings.IndexByte(pattern, '*')
		if star < 0 {
			if anchored {
				return path == pattern
			}
			return strings.HasPrefix(path, pattern)
		}
		prefix := pattern[:star]
		if !strings.HasPrefix(path, prefix) {
			return false
		}
		path = path[len(prefix):]
		pattern = pattern[star+1:]
		if pattern == "" {
			return !anchored || true // trailing '*' absorbs the rest
		}
		// Try every position for the remainder after '*'.
		for i := 0; i <= len(path); i++ {
			if matchHere(pattern, path[i:], anchored) {
				return true
			}
		}
		return false
	}
}
