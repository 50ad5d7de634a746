package urlutil

import (
	"net/url"
	"strings"
	"testing"
	"testing/quick"
)

func TestScopeContainsPaperExamples(t *testing.T) {
	// These are exactly the examples from Section 2.2 of the paper.
	s, err := NewScope("https://www.A.B.com/index.php")
	if err != nil {
		t.Fatal(err)
	}
	in := []string{
		"https://www.A.B.com/folder/content.php",
		"https://www.C.A.B.com/page.html",
	}
	out := []string{
		"https://www.B.com/page.php",
		"https://edbticdt2026.github.io/?contents=EDBT_CFP.html",
	}
	for _, u := range in {
		if !s.Contains(u) {
			t.Errorf("Contains(%q) = false, want true", u)
		}
	}
	for _, u := range out {
		if s.Contains(u) {
			t.Errorf("Contains(%q) = true, want false", u)
		}
	}
}

func TestScopeWWWHandling(t *testing.T) {
	cases := []struct {
		root, probe string
		want        bool
	}{
		{"https://example.org/", "https://www.example.org/x", true},
		{"https://www.example.org/", "https://example.org/x", true},
		{"https://www.example.org/", "https://sub.example.org/x", true},
		{"https://example.org/", "https://notexample.org/x", false},
		{"https://example.org/", "https://example.org.evil.com/x", false},
		{"https://example.org/", "ftp://example.org/x", false},
		{"https://example.org/", "mailto:me@example.org", false},
		{"https://example.org/", "://bad", false},
	}
	for _, c := range cases {
		s, err := NewScope(c.root)
		if err != nil {
			t.Fatalf("NewScope(%q): %v", c.root, err)
		}
		if got := s.Contains(c.probe); got != c.want {
			t.Errorf("scope %q: Contains(%q) = %v, want %v", c.root, c.probe, got, c.want)
		}
	}
}

func TestNewScopeRejectsHostlessRoot(t *testing.T) {
	for _, root := range []string{"", "/relative/path", "not a url at all://"} {
		if _, err := NewScope(root); err == nil {
			t.Errorf("NewScope(%q) succeeded, want error", root)
		}
	}
}

func TestNormalize(t *testing.T) {
	base, _ := url.Parse("https://www.example.org/a/b/page.html")
	cases := []struct{ ref, want string }{
		{"c.html", "https://www.example.org/a/b/c.html"},
		{"/root.csv", "https://www.example.org/root.csv"},
		{"../up.pdf", "https://www.example.org/a/up.pdf"},
		{"https://Other.ORG:443/X", "https://other.org/X"},
		{"http://h:80/y", "http://h/y"},
		{"http://h:8080/y", "http://h:8080/y"},
		{"page.html#frag", "https://www.example.org/a/b/page.html"},
		{"javascript:void(0)", ""},
		{"mailto:x@y.z", ""},
		{"", ""},
		{"  spaced.html ", "https://www.example.org/a/b/spaced.html"},
		{"https://host.org", "https://host.org/"},
	}
	for _, c := range cases {
		if got := Normalize(base, c.ref); got != c.want {
			t.Errorf("Normalize(%q) = %q, want %q", c.ref, got, c.want)
		}
	}
}

func TestExtension(t *testing.T) {
	cases := []struct{ raw, want string }{
		{"https://x.org/data/file.csv", ".csv"},
		{"https://x.org/data/file.CSV", ".csv"},
		{"https://x.org/data/file.csv?dl=1", ".csv"},
		{"https://x.org/en/node/9961", ""},
		{"https://x.org/trailing.", ""},
		{"https://x.org/", ""},
		{"https://x.org/archive.tar.gz", ".gz"},
	}
	for _, c := range cases {
		// Query strings and fragments never reach the extension.
		if p, _ := split(c.raw); pathExtension(p.path) != c.want {
			t.Errorf("pathExtension(%q) = %q, want %q", p.path, pathExtension(p.path), c.want)
		}
	}
}

func TestDepth(t *testing.T) {
	cases := []struct {
		raw  string
		want int
	}{
		{"https://x.org/", 0},
		{"https://x.org/a", 1},
		{"https://x.org/a/b/c.html", 3},
		{"https://x.org/a//b/", 2},
	}
	for _, c := range cases {
		if got := Depth(c.raw); got != c.want {
			t.Errorf("Depth(%q) = %d, want %d", c.raw, got, c.want)
		}
	}
}

func TestMIMESet(t *testing.T) {
	s := DefaultTargetSet()
	if len(s) != 38 {
		t.Fatalf("default target set has %d entries, want 38", len(s))
	}
	if !s.Contains("text/csv") {
		t.Error("text/csv should be a target MIME")
	}
	if !s.Contains("Text/CSV; charset=utf-8") {
		t.Error("MIME matching must ignore case and parameters")
	}
	if s.Contains("text/html") {
		t.Error("text/html must not be a target MIME")
	}
	if s.Contains("video/mp4") {
		t.Error("video/mp4 must not be a target MIME")
	}
}

func TestIsHTML(t *testing.T) {
	if !IsHTML("text/html; charset=ISO-8859-1") {
		t.Error("text/html with params should be HTML")
	}
	if !IsHTML("application/xhtml+xml") {
		t.Error("xhtml should be HTML")
	}
	if IsHTML("text/csv") {
		t.Error("text/csv is not HTML")
	}
}

func TestIsBlockedMIME(t *testing.T) {
	for _, m := range []string{"image/png", "audio/mpeg", "video/mp4", "IMAGE/JPEG"} {
		if !IsBlockedMIME(m) {
			t.Errorf("IsBlockedMIME(%q) = false, want true", m)
		}
	}
	for _, m := range []string{"text/html", "application/pdf", "text/csv"} {
		if IsBlockedMIME(m) {
			t.Errorf("IsBlockedMIME(%q) = true, want false", m)
		}
	}
}

func TestHasBlockedExtension(t *testing.T) {
	if !HasBlockedExtension("https://x.org/photo.JPG") {
		t.Error(".jpg must be blocked (case-insensitively)")
	}
	if HasBlockedExtension("https://x.org/report.pdf") {
		t.Error(".pdf must not be blocked")
	}
	if HasBlockedExtension("https://x.org/en/node/9961") {
		t.Error("extension-less URL must not be blocked")
	}
}

// Property: scope membership is invariant under adding/removing a www. prefix
// on the probe URL's host.
func TestScopeWWWInvarianceProperty(t *testing.T) {
	s, err := NewScope("https://stats.example.org/")
	if err != nil {
		t.Fatal(err)
	}
	f := func(label uint8, pathSeed uint16) bool {
		sub := subdomainFromSeed(label)
		probe := "https://" + sub + "stats.example.org/p" + itoa(int(pathSeed))
		probeWWW := "https://www." + sub + "stats.example.org/p" + itoa(int(pathSeed))
		return s.Contains(probe) == s.Contains(probeWWW)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Normalize is idempotent — normalizing an already-normalized URL
// (against no base) returns it unchanged.
func TestNormalizeIdempotentProperty(t *testing.T) {
	base, _ := url.Parse("https://www.example.org/")
	f := func(a, b uint16) bool {
		raw := "https://www.example.org/d" + itoa(int(a)) + "/f" + itoa(int(b)) + ".csv"
		once := Normalize(base, raw)
		if once == "" {
			return false
		}
		return Normalize(nil, once) == once
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func subdomainFromSeed(n uint8) string {
	if n%3 == 0 {
		return ""
	}
	return "s" + itoa(int(n)) + "."
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

func TestCanonicalMIME(t *testing.T) {
	if got := CanonicalMIME("  Application/PDF ; q=1 "); got != "application/pdf" {
		t.Errorf("CanonicalMIME = %q", got)
	}
}

func TestBlockedExtensionListSanity(t *testing.T) {
	for ext := range BlockedExtensions {
		if !strings.HasPrefix(ext, ".") {
			t.Errorf("blocklist entry %q must start with a dot", ext)
		}
		if ext != strings.ToLower(ext) {
			t.Errorf("blocklist entry %q must be lowercase", ext)
		}
	}
}
