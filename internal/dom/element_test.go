package dom

import (
	"strings"
	"testing"
)

// spellings is name in lowercase, uppercase and alternating case.
func spellings(name string) []string {
	mixed := []byte(name)
	for i := 0; i < len(mixed); i += 2 {
		if 'a' <= mixed[i] && mixed[i] <= 'z' {
			mixed[i] -= 'a' - 'A'
		}
	}
	return []string{name, strings.ToUpper(name), string(mixed)}
}

// entry is lookupElement of name, or otherElement for a name the table
// lacks: the rules the parser applies to it.
func entry(name string) *element {
	if el := lookupElement([]byte(name)); el != nil {
		return el
	}
	return &otherElement
}

// TestElementTableMatchesOracle holds the parser's static element table to
// the reference tree's maps: every name either side knows, in every
// spelling, is void, links through an attribute and implicitly ends open
// elements exactly as the maps say — the last checked for every (opener,
// open) pair — and every table entry is what lookupElement returns for its
// own name.
func TestElementTableMatchesOracle(t *testing.T) {
	names := map[string]bool{"custom-el": true, "x": true, "tablex": true, "averylongunknownname": true}
	for n := range voidElements {
		names[n] = true
	}
	for open, openers := range impliedEnd {
		names[open] = true
		for o := range openers {
			names[o] = true
		}
	}
	for n := range linkAttr {
		names[n] = true
	}
	for i := range elements {
		el := &elements[i]
		names[el.name] = true
		if got := lookupElement([]byte(el.name)); got != el {
			t.Errorf("lookupElement(%q) is not elements[%d]", el.name, i)
		}
		if len(el.name) > maxElementName {
			t.Errorf("%q is longer than maxElementName %d", el.name, maxElementName)
		}
	}
	for n := range names {
		_, oracleKnows := voidElements[n]
		_, links := linkAttr[n]
		oracleKnows = oracleKnows || links || impliedEnd[n] != nil || impliedClosers[n] != nil
		for _, s := range spellings(n) {
			el := lookupElement([]byte(s))
			switch {
			case el == nil && oracleKnows:
				t.Errorf("lookupElement(%q) = nil for a name the oracle has a rule for", s)
				continue
			case el == nil:
				continue
			case el.name != n:
				t.Errorf("lookupElement(%q).name = %q, want %q", s, el.name, n)
			}
			if el.void != voidElements[n] {
				t.Errorf("%q: void %v, oracle %v", s, el.void, voidElements[n])
			}
			if el.attr != linkAttr[n] {
				t.Errorf("%q: URL attribute %q, oracle %q", s, el.attr, linkAttr[n])
			}
		}
	}
	for opener := range names {
		for open := range names {
			want := impliedClosers[opener][open]
			for _, s := range spellings(opener) {
				if got := entry(s).closes&entry(strings.ToUpper(open)).kind != 0; got != want {
					t.Errorf("<%s> implicitly ends an open <%s>: %v, oracle %v", s, open, got, want)
				}
			}
		}
	}
}
