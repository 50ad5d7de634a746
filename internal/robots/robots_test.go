package robots

import (
	"testing"
	"testing/quick"
	"time"
)

const sample = `# robots.txt for example.org
User-agent: *
Disallow: /private/
Disallow: /tmp/
Allow: /private/public-report.pdf
Crawl-delay: 2

User-agent: sbcrawl
Disallow: /no-bots/
Allow: /

User-agent: badbot
Disallow: /

Sitemap: https://example.org/sitemap.xml
Sitemap: https://example.org/sitemap-data.xml
`

func TestParseGroupsAndSitemaps(t *testing.T) {
	p := Parse([]byte(sample))
	if len(p.groups) != 3 {
		t.Fatalf("parsed %d groups, want 3", len(p.groups))
	}
	if got := p.Sitemaps(); len(got) != 2 || got[0] != "https://example.org/sitemap.xml" {
		t.Errorf("sitemaps = %v", got)
	}
}

func TestWildcardGroupRules(t *testing.T) {
	p := Parse([]byte(sample))
	cases := []struct {
		path string
		want bool
	}{
		{"/", true},
		{"/public/page.html", true},
		{"/private/file.csv", false},
		{"/private/public-report.pdf", true}, // longest-match Allow wins
		{"/tmp/x", false},
		{"/tmpfile", true}, // "/tmp/" is a prefix rule; "/tmpfile" escapes it
	}
	for _, c := range cases {
		if got := p.Allowed("SomeGenericBot/2.0", c.path); got != c.want {
			t.Errorf("Allowed(generic, %q) = %v, want %v", c.path, got, c.want)
		}
	}
}

func TestSpecificAgentGroupWins(t *testing.T) {
	p := Parse([]byte(sample))
	// sbcrawl has its own group: /private/ is fine, /no-bots/ is not.
	if !p.Allowed("sbcrawl/1.0 (focused crawler)", "/private/file.csv") {
		t.Error("sbcrawl group must override the wildcard group")
	}
	if p.Allowed("sbcrawl/1.0", "/no-bots/data.csv") {
		t.Error("sbcrawl's own disallow must apply")
	}
	if p.Allowed("BadBot/3.0", "/anything") {
		t.Error("badbot is banned entirely")
	}
}

func TestCrawlDelay(t *testing.T) {
	p := Parse([]byte(sample))
	if got := p.CrawlDelay("GenericBot"); got != 2*time.Second {
		t.Errorf("wildcard crawl delay = %v, want 2s", got)
	}
	if got := p.CrawlDelay("sbcrawl/1.0"); got != 0 {
		t.Errorf("sbcrawl crawl delay = %v, want 0", got)
	}
}

func TestAllowAllAndDisallowAll(t *testing.T) {
	if !AllowAll().Allowed("any", "/x") {
		t.Error("AllowAll must allow")
	}
	if DisallowAll().Allowed("any", "/x") {
		t.Error("DisallowAll must disallow")
	}
}

func TestEmptyDisallowMeansAllowAll(t *testing.T) {
	p := Parse([]byte("User-agent: *\nDisallow:\n"))
	if !p.Allowed("bot", "/anything/at/all") {
		t.Error("empty Disallow allows everything")
	}
}

func TestMultipleAgentsPerGroup(t *testing.T) {
	p := Parse([]byte("User-agent: alpha\nUser-agent: beta\nDisallow: /x/\n"))
	if p.Allowed("alpha/1.0", "/x/1") || p.Allowed("beta/1.0", "/x/1") {
		t.Error("both agents share the group")
	}
	if !p.Allowed("gamma/1.0", "/x/1") {
		t.Error("gamma has no rules: allowed")
	}
}

func TestWildcardPatterns(t *testing.T) {
	p := Parse([]byte("User-agent: *\nDisallow: /*.pdf$\nDisallow: /search*results\n"))
	cases := []struct {
		path string
		want bool
	}{
		{"/doc.pdf", false},
		{"/a/b/c.pdf", false},
		{"/doc.pdf.html", true}, // $ anchors: not a .pdf end
		{"/search-results", false},
		{"/search/all/results", false},
		{"/searchresults", false},
		{"/results", true},
	}
	for _, c := range cases {
		if got := p.Allowed("bot", c.path); got != c.want {
			t.Errorf("Allowed(%q) = %v, want %v", c.path, got, c.want)
		}
	}
}

func TestMalformedLinesIgnored(t *testing.T) {
	p := Parse([]byte("garbage line\nUser-agent *\nUser-agent: *\nDisallow /oops\nDisallow: /real/\nCrawl-delay: soon\n"))
	if p.Allowed("bot", "/real/x") {
		t.Error("valid line after garbage must apply")
	}
	if !p.Allowed("bot", "/oops") {
		t.Error("malformed Disallow (no colon) must be ignored")
	}
	if p.CrawlDelay("bot") != 0 {
		t.Error("non-numeric crawl delay must be ignored")
	}
}

func TestCommentsStripped(t *testing.T) {
	p := Parse([]byte("User-agent: * # everyone\nDisallow: /secret/ # keep out\n"))
	if p.Allowed("bot", "/secret/x") {
		t.Error("comment after value must not break the rule")
	}
}

// Property: parsing never panics and Allowed is total on arbitrary input.
func TestParseRobustnessProperty(t *testing.T) {
	f := func(body string, path string) bool {
		p := Parse([]byte(body))
		_ = p.Allowed("sbcrawl/1.0", "/"+path)
		_ = p.CrawlDelay("sbcrawl/1.0")
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: a path disallowed for "*" with a simple prefix rule is exactly
// one with that prefix.
func TestPrefixRuleProperty(t *testing.T) {
	p := Parse([]byte("User-agent: *\nDisallow: /data/\n"))
	f := func(seg1, seg2 uint16) bool {
		inside := p.Allowed("b", "/data/"+itoa(int(seg1)))
		outside := p.Allowed("b", "/open/"+itoa(int(seg2)))
		return !inside && outside
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

// Sitemaps lists the advertised sitemap URLs.
func (p *Policy) Sitemaps() []string { return p.sitemaps }
