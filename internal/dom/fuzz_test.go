package dom

import (
	"reflect"
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"

	"sbcrawl/internal/sitegen"
)

// seedCorpus feeds the fuzzers handcrafted edge cases plus real rendered
// pages from the site generator (the exact HTML dialect the crawler parses).
func seedCorpus(f *testing.F) {
	for _, s := range []string{
		"",
		"<",
		"</",
		"<!",
		"<!\r\r junk>",
		"<!-- unterminated",
		"<a href='/x'>t</a>",
		`<A HREF="/X" ID=m CLASS="a b">&amp;&#x41;&#xD800;</A>`,
		"<script>a = \"</scripted>\";</script>",
		"<script>x()</scrip",
		"<title>&lt;t&gt;</title><textarea>&amp;</textarea>",
		"<ul><li>a<li>b</ul><p>x<p>y",
		"<div#bogus><a href=/y>é</a>",
		strings.Repeat("é", 200) + `<a href="/x">t</a>`,
		"<a href='&#55296;'>surrogate</a>",
		// Text nodes as views: entity-bearing text (decoded into scratch, so
		// copied), an entity in <title>, adjacent text nodes, a lone '<',
		// non-ASCII whitespace, invalid UTF-8, and a parent over the
		// 256-byte SurroundingText cap.
		"<p>fish &amp; chips <a href=/x>caf&#xE9; &lt;3</a> &amp; more</p>",
		"<title>a &amp; b</title><p><a href=/x>t</a></p>",
		"<p>one<b></b>two<a href=/x>three</a>four</p>",
		"<p>a < b <a href=/x>c <</a> d",
		"<p>x\u0085y\u00a0z\u2028w<a href=/x>\u00a0t\u2028</a></p>",
		"<p>\xff\xfe bad \xc3<a href=/x>\xe2\x82 t \x80</a></p>",
		"<div>" + strings.Repeat("long parent text é ", 30) + "<a href=/x>t</a></div>",
		// The open-element stack: implied end tags, a parent's links wait
		// past a child's close, a stray end tag closes nothing, the first of
		// repeated attributes counts.
		"<ul><li><a href=/1>a</a><li>b <a href=/2>c</a></ul><p>x <a href=/3>y</a><p>z",
		"<div>lead <a href=/1>one</a><p>inner <a href=/2>two</a></p> tail <a href=/3>three</a></div>",
		"<div><span>x</b><a href=/y>z</a></i></span></div><a href=/w>w</a>",
		"<div ID=first id=second CLASS='x y' class=z><a HREF=/a href=/b>t</a></div>",
		// The static element table: names in any case, the linking
		// elements' attributes, an unknown element, a <table> ending an open
		// <p>, and a void element written with children.
		"<UL><LI>one <a href=/1>a</a><Li>two <a href=/2>b</a></UL>",
		`<A HREF="/up">UP</A> <a HrEf=/mixed SRC=/no>m</a>`,
		`<IFrame SRC="/frame.html" href=/no>x</IFrame><Area HREF=/area>`,
		"<custom-el id=c><x-link href=/no>t</x-link><a href=/yes>y</a></custom-el>",
		"<p>para <a href=/p>in p</a><TABLE><tr><td><a href=/t>in table</a></table> after",
		"<div><img src=/i.png>children of a void <a href=/v>v</a></img> tail</div>",
	} {
		f.Add([]byte(s))
	}
	p, ok := sitegen.ProfileByCode("cn")
	if !ok {
		f.Fatal("profile cn missing")
	}
	site := sitegen.Generate(sitegen.Config{Profile: p, Scale: 0.002, Seed: 1})
	added := 0
	for _, pg := range site.Pages() {
		if pg.Kind != sitegen.KindHTML {
			continue
		}
		f.Add(site.RenderPage(pg))
		if added++; added >= 8 {
			break
		}
	}
}

// FuzzTokenizer drives the zero-copy tokenizer over arbitrary bytes: it must
// terminate, valid UTF-8 in must never produce invalid UTF-8 out (the
// numeric-reference surrogate class of bug), and a second pass over the same
// bytes through the Reset tokenizer — attribute storage and decode scratch
// now reused — must hand out the same stream (a view that outlived its
// NextRaw would show up as a changed copy).
func FuzzTokenizer(f *testing.F) {
	seedCorpus(f)
	f.Fuzz(func(t *testing.T, src []byte) {
		validIn := utf8.Valid(src)
		var z Tokenizer
		z.Reset(src)
		drain := func(check bool) []token {
			var out []token
			for steps := 0; ; steps++ {
				if steps > 2*len(src)+64 {
					t.Fatalf("tokenizer did not terminate on %d bytes", len(src))
				}
				raw, ok := z.NextRaw()
				if !ok {
					return out
				}
				tok := materialize(raw)
				if check && validIn {
					if !utf8.ValidString(tok.Data) {
						t.Errorf("token data: valid UTF-8 in, invalid out: %q", tok.Data)
					}
					for _, a := range tok.Attrs {
						if !utf8.ValidString(a.Value) {
							t.Errorf("attr %q: valid UTF-8 in, invalid out: %q", a.Name, a.Value)
						}
					}
				}
				out = append(out, tok)
			}
		}
		first := drain(true)
		z.Reset(src)
		if again := drain(false); !reflect.DeepEqual(first, again) {
			t.Errorf("Reset tokenizer disagrees with its first pass:\nfirst: %+v\nagain: %+v", first, again)
		}
	})
}

// filterLinks is ExtractLinksFiltered's definition over an unfiltered
// extraction: the links admit keeps (all of them for a nil admit), with the
// URL it returns and the fields outside want zeroed.
func filterLinks(links []Link, want Fields, admit func([]byte, func([]byte) string) (string, bool)) []Link {
	var out []Link
	for _, l := range links {
		if admit != nil {
			u, ok := admit([]byte(l.URL), func(b []byte) string { return string(b) })
			if !ok {
				continue
			}
			l.URL = u
		}
		if want&TagPathField == 0 {
			l.TagPath = nil
		}
		if want&AnchorTextField == 0 {
			l.AnchorText = ""
		}
		if want&SurroundingTextField == 0 {
			l.SurroundingText = ""
		}
		out = append(out, l)
	}
	return out
}

// fuzzAdmit is a deterministic filter for the fuzz target: it drops every
// href whose length is a multiple of three, keeps those one longer through
// intern, and rewrites the others.
func fuzzAdmit(href []byte, intern func([]byte) string) (string, bool) {
	switch len(href) % 3 {
	case 0:
		return "", false
	case 1:
		return intern(href), true
	}
	return "admitted:" + string(href), true
}

// FuzzExtractLinks holds the one-pass extractor to the reference tree
// (tree_ref_test.go): it must terminate, two runs over one input must agree
// exactly (no state leaking through the parser free list), the unfiltered
// result must equal extracting every link from the tree, every filtered
// form — each of the 8 field sets, with no admit and with one — must equal
// the tree's links filtered the same way, and every extracted link must
// satisfy the documented invariants.
func FuzzExtractLinks(f *testing.F) {
	seedCorpus(f)
	f.Fuzz(func(t *testing.T, src []byte) {
		validIn := utf8.Valid(src)
		links := ExtractLinksAppend(nil, src)
		again := ExtractLinksAppend(nil, src)
		if !reflect.DeepEqual(links, again) {
			t.Error("two extractions of one page differ: the parser free list leaks state")
		}
		tree := extractTree(parse(src))
		if !reflect.DeepEqual(links, tree) {
			t.Errorf("one-pass extraction differs from the reference tree:\none pass: %+v\ntree:     %+v", links, tree)
		}
		for want := Fields(0); want <= AllFields; want++ {
			for _, admit := range []func([]byte, func([]byte) string) (string, bool){nil, fuzzAdmit} {
				got := ExtractLinksFiltered(nil, src, want, admit)
				if ref := filterLinks(tree, want, admit); !reflect.DeepEqual(got, ref) {
					t.Errorf("fields %03b, admit %t: one-pass extraction differs from the reference tree's links filtered:\none pass: %+v\ntree:     %+v", want, admit != nil, got, ref)
				}
			}
		}
		for _, l := range links {
			if strings.TrimSpace(l.URL) == "" {
				t.Errorf("empty link URL extracted: %+v", l)
			}
			if len(l.TagPath) == 0 {
				t.Errorf("link %q has an empty tag path", l.URL)
			}
			for _, tok := range l.TagPath {
				if strings.ContainsAny(tok, " \t\n/") {
					t.Errorf("tag-path token %q contains separator bytes", tok)
				}
			}
			if len(l.SurroundingText) > 256 {
				t.Errorf("SurroundingText is %d bytes, cap is 256", len(l.SurroundingText))
			}
			if validIn {
				if !utf8.ValidString(l.SurroundingText) {
					t.Errorf("SurroundingText invalid UTF-8 from valid input: %q", l.SurroundingText)
				}
				if !utf8.ValidString(l.AnchorText) {
					t.Errorf("AnchorText invalid UTF-8 from valid input: %q", l.AnchorText)
				}
			}
		}
	})
}

// appendCollapsedRef and nextFieldRef are verbatim copies of the
// rune-at-a-time functions the ASCII-branch versions replaced (commit
// 8e5abc9), kept as the reference FuzzCollapseVsReference compares against.
func appendCollapsedRef(dst []byte, s string, brk *bool) []byte {
	for i := 0; i < len(s); {
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			if *brk && len(dst) > 0 {
				dst = append(dst, ' ')
			}
			*brk = false
			dst = append(dst, s[i])
			i++
			continue
		}
		if unicode.IsSpace(r) {
			*brk = true
			i += size
			continue
		}
		if *brk && len(dst) > 0 {
			dst = append(dst, ' ')
		}
		*brk = false
		dst = append(dst, s[i:i+size]...)
		i += size
	}
	return dst
}

func nextFieldRef(s string, i int) (start, end int) {
	for i < len(s) {
		r, size := utf8.DecodeRuneInString(s[i:])
		if (r == utf8.RuneError && size == 1) || !unicode.IsSpace(r) {
			break
		}
		i += size
	}
	if i >= len(s) {
		return -1, -1
	}
	start = i
	for i < len(s) {
		r, size := utf8.DecodeRuneInString(s[i:])
		if r != utf8.RuneError || size != 1 {
			if unicode.IsSpace(r) {
				break
			}
		}
		i += size
	}
	return start, i
}

// FuzzCollapseVsReference holds the whitespace scanners to their
// rune-at-a-time originals on arbitrary bytes, in both representations a
// text node can have and from both word-break states.
func FuzzCollapseVsReference(f *testing.F) {
	for _, s := range []string{
		"", " ", "a", "  a  b\t\n\v\f\rc  ", "x\u0085y\u00a0z\u1680w\u2028v\u2029u\u3000t",
		"\xff\xfe a \xc3", "\xe2\x82", "\xc2", "é\xa0", "\x1c\x1f\x00 b", strings.Repeat("word ", 40),
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		for _, brk0 := range []bool{false, true} {
			for _, prefix := range []string{"", "x"} {
				b1, b2, b3 := brk0, brk0, brk0
				want := appendCollapsedRef([]byte(prefix), s, &b1)
				if got := appendCollapsed([]byte(prefix), s, &b2); string(got) != string(want) || b1 != b2 {
					t.Errorf("appendCollapsed(%q, %q, brk=%v) = %q brk %v, reference %q brk %v", prefix, s, brk0, got, b2, want, b1)
				}
				if got := appendCollapsed([]byte(prefix), []byte(s), &b3); string(got) != string(want) || b1 != b3 {
					t.Errorf("appendCollapsed(%q, []byte(%q), brk=%v) = %q brk %v, reference %q brk %v", prefix, s, brk0, got, b3, want, b1)
				}
			}
		}
		for i := 0; i <= len(s); i++ {
			ws, we := nextFieldRef(s, i)
			if gs, ge := nextField(s, i); gs != ws || ge != we {
				t.Errorf("nextField(%q, %d) = %d,%d, reference %d,%d", s, i, gs, ge, ws, we)
			}
		}
	})
}
