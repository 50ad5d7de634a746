package sbcrawl

// The architecture rules: decisions the code's shape must keep, checked over
// the module's non-test Go files under `go test ./...`. A rule whose file set
// matches nothing fails, so a rename or a move cannot switch it off.

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// architectureRules: a file, glob or directory tree ("dir/..."), a regexp no
// import path of those files may match, one no line may match, and why.
var architectureRules = []struct{ files, imports, lines, reason string }{
	{"./...", `^encoding/gob$`, ``,
		"gob-free: only tests keep it, to forge the pre-codec records decoders must refuse with codec.ErrLegacyFormat"},
	{"internal/core/*.go", `^sync$`, `^\s*go `,
		"the crawl loop owns all crawl state from one goroutine (sync/atomic tallies speculative launches); " +
			"the library's goroutines come from fetch/prefetch.go, fleet.Do and the daemon"},
	{"internal/core/*.go", ``, `FrontierSnapshot`,
		"a checkpoint is counters: nothing restores a frontier, so its cost cannot grow back with the frontier's size"},
	{"internal/fetch/replay.go", ``, `\.Keys\(`,
		"the replay database is a view: listing the site's namespace walks every key of every session a daemon ran"},
	{"internal/textvec/chargram.go", `^(slices|sort)$`, ``,
		"the bigram featurizer orders IDs by walking a bitmap over its fixed block, never by a comparison sort"},
	{"internal/...", ``, `ClassifyFeatures`,
		"the classifier keeps no per-link features between predicting a link and learning from it"},
	{"internal/textvec/...", ``, `bucketCount`,
		"the tag-path vectorizer computes collision counts from the vocabulary's size, not a D-wide table per crawl"},
	{"internal/core/...", ``, `make\(\[\]dom\.Link`,
		"a page's surviving links go straight onto the engine's link stack instead of into a copy"},
}

func TestArchitectureRules(t *testing.T) {
	for _, r := range architectureRules {
		imports, lines := regexp.MustCompile(r.imports), regexp.MustCompile(r.lines)
		var files []string
		if dir, tree := strings.CutSuffix(r.files, "/..."); tree {
			filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
				if err == nil && !d.IsDir() {
					files = append(files, path)
				}
				return nil // a missing tree leaves the set empty, which fails below
			})
		} else {
			files, _ = filepath.Glob(r.files)
		}
		files = slices.DeleteFunc(files, func(p string) bool {
			return !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go")
		})
		if len(files) == 0 {
			t.Errorf("%s matches no non-test Go file, so this rule checks nothing: %s", r.files, r.reason)
		}
		for _, path := range files {
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			f, err := parser.ParseFile(token.NewFileSet(), path, src, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				if p, _ := strconv.Unquote(imp.Path.Value); r.imports != "" && imports.MatchString(p) {
					t.Errorf("%s imports %q: %s", path, p, r.reason)
				}
			}
			for i, line := range strings.Split(string(src), "\n") {
				if r.lines != "" && lines.MatchString(line) {
					t.Errorf("%s:%d: %s: %s", path, i+1, strings.TrimSpace(line), r.reason)
				}
			}
		}
	}
}
