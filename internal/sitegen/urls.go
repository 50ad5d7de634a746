package sitegen

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
)

// mimeExt maps target MIME types to their conventional URL extension.
var mimeExt = map[string]string{
	"application/pdf":          ".pdf",
	"text/csv":                 ".csv",
	"application/zip":          ".zip",
	"application/json":         ".json",
	"application/vnd.ms-excel": ".xls",
	"application/vnd.oasis.opendocument.spreadsheet":                          ".ods",
	"application/vnd.openxmlformats-officedocument.spreadsheetml.sheet":       ".xlsx",
	"application/vnd.openxmlformats-officedocument.wordprocessingml.document": ".docx",
}

// assignURLs gives every page a URL in the site's style. URL shapes vary by
// language and page kind; a profile-controlled fraction of targets gets
// extension-less URLs, defeating extension heuristics exactly as ilo.org and
// justice.gouv.fr do (Sec. 3.3).
func (s *Site) assignURLs(rng *rand.Rand) {
	base := "https://" + s.Profile.Host
	for _, pg := range s.pages {
		var path string
		switch pg.Kind {
		case KindHTML:
			if pg.ID == 0 {
				path = "/"
				break
			}
			path = s.htmlPath(rng, pg)
		case KindTarget:
			path = s.targetPath(rng, pg)
		case KindError:
			// Error URLs mimic real ones so the classifier cannot set
			// them apart (the paper's "Neither" analysis).
			if rng.Float64() < 0.6 {
				path = fmt.Sprintf("/%s/%s-%d", s.lang(rng), s.slug(rng), pg.ID)
			} else {
				path = fmt.Sprintf("/files/%s-%d.csv", s.slug(rng), pg.ID)
			}
		case KindRedirect:
			path = fmt.Sprintf("/go/%d", pg.ID)
		}
		pg.URL = base + path
		s.index[pg.URL] = pg.ID
	}
}

func (s *Site) htmlPath(rng *rand.Rand, pg *Page) string {
	lang := s.lang(rng)
	switch {
	case s.Profile.ExtensionlessTargets > 0 && rng.Float64() < 0.5:
		// Drupal-style node URLs (justice.gouv.fr).
		return fmt.Sprintf("/%s/node/%d", lang, 9000+pg.ID)
	case rng.Float64() < 0.5:
		return fmt.Sprintf("/%s/%s/%d", lang, s.slug(rng), pg.ID)
	default:
		return fmt.Sprintf("/%s/%s-%d.html", s.section(rng), s.slug(rng), pg.ID)
	}
}

func (s *Site) targetPath(rng *rand.Rand, pg *Page) string {
	if rng.Float64() < s.Profile.ExtensionlessTargets {
		if rng.Float64() < 0.5 {
			return fmt.Sprintf("/download/%d", 40000+pg.ID)
		}
		return fmt.Sprintf("/%s/node/%d", s.lang(rng), 40000+pg.ID)
	}
	ext := mimeExt[pg.MIME]
	if ext == "" {
		ext = ".bin"
	}
	if rng.Float64() < 0.5 {
		return fmt.Sprintf("/sites/default/files/%s-%d%s", s.slug(rng), pg.ID, ext)
	}
	return fmt.Sprintf("/documents/%s%d%s", s.slug(rng), pg.ID, ext)
}

// lang picks a language for a page: the primary language dominates, with
// multilingual sites mixing in the others.
func (s *Site) lang(rng *rand.Rand) string {
	langs := s.Profile.Languages
	if len(langs) == 0 {
		return "en"
	}
	if len(langs) == 1 || rng.Float64() < 0.7 {
		return langs[0]
	}
	return langs[1+rng.Intn(len(langs)-1)]
}

func (s *Site) slug(rng *rand.Rand) string {
	words := langWords[s.lang(rng)]
	if len(words) == 0 {
		words = langWords["en"]
	}
	a := words[rng.Intn(len(words))]
	b := words[rng.Intn(len(words))]
	return a + "-" + b
}

func (s *Site) section(rng *rand.Rand) string {
	words := langWords[s.Profile.Languages[0]]
	return words[rng.Intn(len(words))]
}

// appendWords writes n prose words in one of the site's languages, drawn
// from rng (rendering determinism), separated by single spaces.
func (s *Site) appendWords(b []byte, rng *rand.Rand, n int) []byte {
	vocab := langWords[s.lang(rng)]
	if len(vocab) == 0 {
		vocab = langWords["en"]
	}
	for i := range n {
		if i > 0 {
			b = append(b, ' ')
		}
		b = append(b, vocab[rng.Intn(len(vocab))]...)
	}
	return b
}

// appendDownloadAnchor writes a dataset-link anchor text in one of the
// site's languages, e.g. "download population 2021 (CSV)".
func (s *Site) appendDownloadAnchor(b []byte, rng *rand.Rand, mime string) []byte {
	lang := s.lang(rng)
	dl := downloadWords[lang]
	if len(dl) == 0 {
		dl = downloadWords["en"]
	}
	vocab := langWords[lang]
	if len(vocab) == 0 {
		vocab = langWords["en"]
	}
	b = append(b, dl[rng.Intn(len(dl))]...)
	b = append(b, ' ')
	b = append(b, vocab[rng.Intn(len(vocab))]...)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(1990+rng.Intn(36)), 10)
	b = append(b, " ("...)
	kind := strings.TrimPrefix(mimeExt[mime], ".")
	if kind == "" {
		kind = "file"
	}
	for i := range len(kind) {
		c := kind[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		b = append(b, c)
	}
	return append(b, ')')
}
