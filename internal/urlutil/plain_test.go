package urlutil

import (
	"net/url"
	"strings"
	"testing"
)

// plainBase is the page URL shape every generated site and most real ones
// have: a plain origin.
var plainBase = ParseBase("https://www.example.org/a/b/page.html?x=1")

// TestNormalizeFastPathDeclines names every reference shape the fast path
// must leave to net/url: anything whose normal form is not the base's origin
// plus the reference, byte for byte.
func TestNormalizeFastPathDeclines(t *testing.T) {
	for _, ref := range []string{
		"", "#frag", "?q", "../x", "x/y", "//cdn.example/x",
		"/a/./b", "/a/..", "/.well-known/x", "/.", "/a%20b", "/a b", "/é",
		"/a?", "/a?#f", "/a?b c", "/a#b%zz", "/a#é", " /a", "/a ", "/a\u0085", "/a\u00a0",
		"HTTP://h/", "http://H/", "http://h:80/", "http://u@h/", "http://[::1]/",
		"http://h?x", "http://h", "http://", "https:///x", "http://h/./x", "ftp://h/x",
		"javascript:void(0)", "mailto:x@y.z", "/a\x00", "/a\x7f", "/a\tb", "http://h/\n",
	} {
		if abs, ok := normalizePlain(plainBase, ref); ok {
			t.Errorf("normalizePlain(%q) accepted → %q, want decline", ref, abs)
		}
		if got, want := Normalize(plainBase, ref), normalizeURL(plainBase, ref); got != want {
			t.Errorf("Normalize(%q) = %q, net/url says %q", ref, got, want)
		}
	}
	// A plain path-absolute reference needs a plain origin to append to.
	for _, base := range []*url.URL{
		nil, {}, ParseBase("/relative"), ParseBase("http://H.org/"), ParseBase("http://h.org:80/"),
		ParseBase("http://h.org:8080/"), ParseBase("http://u@h.org/"), ParseBase("http://[::1]/"),
		ParseBase("mailto:x@y.z"), ParseBase("ftp://h.org/"), {Scheme: "HTTP", Host: "h.org"},
	} {
		if abs, ok := normalizePlain(base, "/x"); ok {
			t.Errorf("normalizePlain(%v, /x) accepted → %q, want decline", base, abs)
		}
		if got, want := Normalize(base, "/x"), normalizeURL(base, "/x"); got != want {
			t.Errorf("Normalize(%v, /x) = %q, net/url says %q", base, got, want)
		}
	}
}

func TestNormalizeFastPathAccepts(t *testing.T) {
	for _, c := range []struct{ ref, want string }{
		{"/", "https://www.example.org/"},
		{"/root.csv", "https://www.example.org/root.csv"},
		{"/a//b/", "https://www.example.org/a//b/"},
		{"/A_b~c-d.e/f", "https://www.example.org/A_b~c-d.e/f"},
		{"/p?q=1&r=%20{}|^", "https://www.example.org/p?q=1&r=%20{}|^"},
		{"/p??", "https://www.example.org/p??"},
		{"/p#frag", "https://www.example.org/p"},
		{"/p?q#f?#g", "https://www.example.org/p?q"},
		{"http://other.org/", "http://other.org/"},
		{"https://sub.other.org/x/y.pdf?dl=1#top", "https://sub.other.org/x/y.pdf?dl=1"},
	} {
		got, ok := normalizePlain(plainBase, c.ref)
		if !ok || got != c.want {
			t.Errorf("normalizePlain(%q) = %q, %v; want %q", c.ref, got, ok, c.want)
		}
		if def := normalizeURL(plainBase, c.ref); def != c.want {
			t.Errorf("net/url normalizes %q to %q, table says %q", c.ref, def, c.want)
		}
	}
}

// FuzzNormalizeFastVsURL holds Normalize to its net/url definition for
// arbitrary references and bases: whatever the fast path returns, the
// retained body must return too. The append form over a lazy Base must
// return the same for the base as a page URL, whatever that URL is, and its
// bytes form exactly what its string form does.
func FuzzNormalizeFastVsURL(f *testing.F) {
	bases := []string{
		"", "https://www.example.org/a/b/page.html", "http://h.org", "http://H.ORG/x",
		"http://h.org:80/", "https://h.org:443/", "http://u:p@h.org/", "http://[::1]:8080/",
		"mailto:x@y.z", "http:opaque", "://bad", "/relative/base", "//h.org/x",
		// Page URLs whose plain-looking origin url.Parse reads otherwise, or
		// refuses: a bad escape or a fragment in the tail, a query right
		// after the host, an uppercase scheme, a space.
		"https://h.org/a%zz", "https://h.org/a#f", "https://h.org?q", "HTTPS://h.org/", "https://h.org/a b",
	}
	refs := []string{
		"/x", "/a/b.csv?dl=1#top", "http://other.org/y", "https://other.org", "c.html",
		"../up.pdf", "//cdn.example/x", "/a/./b", "/.well-known/x", "/a%20b", "/a b", "/é",
		"/a?", "/a#%", "/a#b%zz", "HTTP://h/", "http://h:80/", "http://u@h/", "http://[::1]/",
		"http://h?x", "javascript:void(0)", " /x ", "/x\u00a0", "/a\x00", "#frag", "?q", "",
	}
	for _, b := range bases {
		for _, r := range refs {
			f.Add(b, r)
		}
	}
	f.Fuzz(func(t *testing.T, base, ref string) {
		var b *url.URL // "" stands for the nil base
		if base != "" {
			b = ParseBase(base)
		}
		if got, want := Normalize(b, ref), normalizeURL(b, ref); got != want {
			t.Errorf("Normalize(%q, %q) = %q, net/url says %q", base, ref, got, want)
		}
		var lazy Base
		lazy.Reset(base)
		want := normalizeURL(ParseBase(base), ref)
		got, ok := lazy.AppendNormalize([]byte("dst:"), ref)
		if string(got) != "dst:"+want || ok != (want != "") {
			t.Errorf("AppendNormalize over page %q of %q = %q, %v; net/url says %q", base, ref, got, ok, want)
		}
		if s := String(got[len("dst:"):], ref); s != want {
			t.Errorf("String of %q's normal form = %q, want %q", ref, s, want)
		}
		var fresh Base
		fresh.Reset(base)
		gotBytes, okBytes := fresh.AppendNormalizeBytes([]byte("dst:"), []byte(ref))
		if string(gotBytes) != string(got) || okBytes != ok {
			t.Errorf("AppendNormalizeBytes over page %q of %q = %q, %v; the string form %q, %v", base, ref, gotBytes, okBytes, got, ok)
		}
	})
}

// TestBaseAppendNormalizeAllocs: over a plain page URL, a plain link
// normalizes into a warm buffer without parsing the page or building a
// string, in either form, and String of an absolute one is the link itself.
func TestBaseAppendNormalizeAllocs(t *testing.T) {
	var b Base
	var buf []byte
	const abs = "https://sub.example.org/data/file.csv"
	for _, ref := range []string{"/data/file.csv?dl=1", abs + "#top"} {
		refBytes := []byte(ref)
		for form, normalize := range map[string]func(){
			"AppendNormalize":      func() { buf, _ = b.AppendNormalize(buf[:0], ref) },
			"AppendNormalizeBytes": func() { buf, _ = b.AppendNormalizeBytes(buf[:0], refBytes) },
		} {
			if n := testing.AllocsPerRun(200, func() {
				b.Reset("https://www.example.org/a/b/page.html?x=1")
				normalize()
			}); n != 0 {
				t.Errorf("%s(%q) allocates %v times, want 0", form, ref, n)
			}
			if b.u != nil {
				t.Errorf("%s(%q) parsed the page URL", form, ref)
			}
		}
	}
	if n := testing.AllocsPerRun(200, func() { sink = String(buf, abs+"#top") }); n != 0 || sink != abs {
		t.Errorf("String of an absolute link = %q with %v allocations, want %q with none", sink, n, abs)
	}
}

// FuzzSplitVsURL holds the plain split to url.Parse: whenever it accepts,
// the parse succeeds with the same host and path.
func FuzzSplitVsURL(f *testing.F) {
	for _, s := range []string{
		"https://www.example.org/a/b.csv?dl=1", "http://h/", "http://h", "http://h?x",
		"http://0/#%", "http://h/#f", "http://h/a/../b", "http://h/a%2fb", "http://H/",
		"http://h:80/", "http://u@h/", "http://[::1]/", "https:///x", "http://h/a?",
		"http://h/a b", "http://h/é", "//h/x", "/x", "", "mailto:x@y.z",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		host, path, ok := splitPlain(raw)
		if !ok {
			return
		}
		u, err := url.Parse(raw)
		if err != nil {
			t.Fatalf("splitPlain accepted %q, url.Parse rejects it: %v", raw, err)
		}
		if u.Host != host || u.Hostname() != host || u.Path != path {
			t.Errorf("splitPlain(%q) = (%q, %q), url.Parse has Host %q Hostname %q Path %q",
				raw, host, path, u.Host, u.Hostname(), u.Path)
		}
		if u.Scheme != "http" && u.Scheme != "https" {
			t.Errorf("splitPlain accepted %q with scheme %q", raw, u.Scheme)
		}
	})
}

// TestReadersMatchURLParse checks every reader built on split against the
// net/url expressions they replaced, on plain and exotic URLs alike.
func TestReadersMatchURLParse(t *testing.T) {
	scope, err := NewScope("https://www.example.org/")
	if err != nil {
		t.Fatal(err)
	}
	for _, raw := range []string{
		"https://www.example.org/a/b.CSV?dl=1", "https://sub.example.org/photo.jpg",
		"https://example.org.evil.com/x", "https://notexample.org/x", "http://example.org/",
		"https://WWW.Example.ORG:8443/a//b/", "http://u@example.org/x.png#f", "//example.org/x",
		"ftp://example.org/x", "mailto:me@example.org", "://bad", "", "/relative/x.gif",
		"http://[::1]:80/x", "https://example.org/a%2Fb/c.mp3", "https://example.org",
	} {
		u, err := url.Parse(raw)
		if err != nil {
			u = &url.URL{}
		}
		if got, want := SiteHost(raw), StripWWW(strings.ToLower(u.Hostname())); got != want {
			t.Errorf("SiteHost(%q) = %q, want %q", raw, got, want)
		}
		if got := Authority(raw); got != u.Host {
			t.Errorf("Authority(%q) = %q, want %q", raw, got, u.Host)
		}
		if got, want := scope.Admit(raw), scope.Contains(raw) && !HasBlockedExtension(raw); got != want {
			t.Errorf("Admit(%q) = %v, Contains && !HasBlockedExtension = %v", raw, got, want)
		}
	}
}

// TestNormalizeAllocs: a plain path-absolute link costs exactly its result
// string, a plain absolute one nothing (the result is a view of the input).
func TestNormalizeAllocs(t *testing.T) {
	if n := testing.AllocsPerRun(200, func() { sink = Normalize(plainBase, "/data/file.csv?dl=1") }); n != 1 {
		t.Errorf("Normalize(path-absolute) allocates %v times, want 1", n)
	}
	if n := testing.AllocsPerRun(200, func() { sink = Normalize(plainBase, "https://sub.example.org/data/file.csv#top") }); n != 0 {
		t.Errorf("Normalize(absolute) allocates %v times, want 0", n)
	}
}

func TestScopeContainsAllocs(t *testing.T) {
	scope, err := NewScope("https://www.example.org/")
	if err != nil {
		t.Fatal(err)
	}
	for _, raw := range []string{"https://sub.example.org/data/file.csv?dl=1", "https://other.org/x"} {
		if n := testing.AllocsPerRun(200, func() { sinkBool = scope.Contains(raw) }); n != 0 {
			t.Errorf("Contains(%q) allocates %v times, want 0", raw, n)
		}
		if n := testing.AllocsPerRun(200, func() { sinkBool = scope.Admit(raw) }); n != 0 {
			t.Errorf("Admit(%q) allocates %v times, want 0", raw, n)
		}
	}
}

func TestHasBlockedExtensionAllocs(t *testing.T) {
	for _, raw := range []string{
		"https://www.example.org/data/file.csv?dl=1",
		"https://www.example.org/img/photo.jpg",
		"https://www.example.org/en/node/9961",
	} {
		if n := testing.AllocsPerRun(200, func() { sinkBool = HasBlockedExtension(raw) }); n != 0 {
			t.Errorf("HasBlockedExtension(%q) allocates %v times, want 0", raw, n)
		}
	}
}

var (
	sink     string
	sinkBool bool
)

func BenchmarkNormalize(b *testing.B) {
	for _, c := range []struct{ name, ref string }{
		{"plain-path-absolute", "/data/2021/file.csv"},
		{"plain-absolute", "https://sub.example.org/data/2021/file.csv"},
		{"relative-fallback", "../2021/file.csv"},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				sink = Normalize(plainBase, c.ref)
			}
		})
	}
}
