package sbcrawl

// The architecture rules: decisions the code's shape must keep, checked over
// the module's non-test Go files under `go test ./...`. A rule whose file set
// matches nothing fails, so a rename or a move cannot switch it off.

import (
	"fmt"
	"go/ast"
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
	{"internal/dom/...", ``, `\btype\s+Node\b|^\s*Node\s+struct\b|\bChildren\s+\[\]\*`,
		"links come from one pass over the tokens; the tree lives only in the test oracle"},
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

// benchmarkOnly is the reason for a declaration only benchmark/ calls. The
// benchmark is frozen until it is re-based on today's code; these entries are
// what that re-base deletes.
const benchmarkOnly = "benchmark-only until the benchmark is re-based"

// deadCodeAllowed: the declarations the dead-code rule lets stand without a
// non-test caller outside benchmark/, and the fields it lets stand unread, one
// per identifier, each with its reason. An identifier is "dir.Name" for a
// top-level declaration, "dir.Type.Method" for a method or "dir.Type.field"
// for a field.
// An entry that names no declaration, or whose identifier has a caller, fails
// the rule, so the list can only shrink.
var deadCodeAllowed = []deadCodeEntry{
	{"internal/codec.AppendDelta", benchmarkOnly},
	{"internal/codec.AppendFrontierState", benchmarkOnly},
	{"internal/dom.ExtractLinksAppend", benchmarkOnly},
	{"internal/fabric.AppendEnvelope", benchmarkOnly},
	{"internal/frontier.Grouped.Snapshot", benchmarkOnly},
	{"internal/frontier.Priority.Snapshot", benchmarkOnly},
	{"internal/frontier.Queue.Snapshot", benchmarkOnly},
	{"internal/frontier.Random.Snapshot", benchmarkOnly},
	{"internal/frontier.Stack.Snapshot", benchmarkOnly},
	{"internal/hnsw.Index.Nearest", benchmarkOnly},
	{"internal/hnsw.Index.Vector", benchmarkOnly},
	{"internal/store.Store.GarbageRatio", benchmarkOnly},
	{"internal/store.Store.Snapshot", benchmarkOnly},
	{"internal/textvec.TagPathVectorizer.Vectorize", benchmarkOnly},
	{"internal/urlutil.HasBlockedExtension", benchmarkOnly},
	{"internal/webserver.NewFlaky", benchmarkOnly},

	{"internal/frontier.scoredHeap.Less", "heap.Interface: container/heap calls it"},
	{"internal/frontier.scoredHeap.Swap", "heap.Interface: container/heap calls it"},
	{"internal/store.LockedError.Unwrap", "errors.Is and errors.As call it"},

	{"internal/classify.Features", "learn's sorted-vs-map differential test vectorizes links with it"},
	{"internal/textvec.NGrams", "the dense Figure 3 pipeline, core's sparse-vs-dense action-index reference"},
	{"internal/textvec.Projector.Project", "the dense Figure 3 pipeline, core's sparse-vs-dense action-index reference"},
	{"internal/textvec.Vocab.BoW", "the dense Figure 3 pipeline, core's sparse-vs-dense action-index reference"},
	{"internal/webserver.Server.EnableTrap", "core's robot-trap test crawls the trap it switches on"},

	{"internal/experiments.siteGen.scale", "siteGen is the site memo's generation key, compared as a whole"},
	{"internal/experiments.siteGen.seed", "siteGen is the site memo's generation key, compared as a whole"},
	{"internal/experiments.siteGen.maxPages", "siteGen is the site memo's generation key, compared as a whole"},
}

type deadCodeEntry struct{ id, reason string }

// goFile is one parsed non-test Go file and its package directory,
// module-relative and slash-separated ("." is the root package).
type goFile struct {
	dir  string
	file *ast.File
}

// TestEveryDeclarationHasACaller holds the dead-code rule over the module's
// non-test Go files.
func TestEveryDeclarationHasACaller(t *testing.T) {
	fset := token.NewFileSet()
	var files []goFile
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, goFile{filepath.ToSlash(filepath.Dir(path)), f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, problem := range deadCode(fset, "sbcrawl", files, deadCodeAllowed) {
		t.Error(problem)
	}
}

// deadCode reports every declaration without a caller, every unexported
// struct field nothing reads, and every allowlist entry that no longer holds.
// It is syntactic, so it needs no type information, and it matches names, so
// it can miss dead code; what it flags wrongly is a method only the standard
// library calls, such as a heap.Interface method, which takes an allowlist
// entry.
//
// It checks every top-level declaration and every method of an internal/
// package, and every unexported top-level declaration and method anywhere;
// the root package's exports are the product and a command's main is its
// entry point. A use must sit in a non-test file outside benchmark/ and
// outside the declaration itself. For a top-level name it is
// a pkg.Name selector or an unqualified identifier in the declaring package;
// for a method it is any .Name selector or a method of the same name in an
// interface type. An unexported field of a top-level struct type is checked
// everywhere outside benchmark/; its use is a .name selector in its package
// that is not the whole left side of an = or := (a write). An allowlisted
// declaration must have no such use, and its reason is benchmarkOnly exactly
// when benchmark/ uses it.
func deadCode(fset *token.FileSet, module string, files []goFile, allowed []deadCodeEntry) []string {
	inBenchmark := func(dir string) bool { return dir == "benchmark" || strings.HasPrefix(dir, "benchmark/") }
	pkgName := map[string]string{}
	for _, gf := range files {
		pkgName[gf.dir] = gf.file.Name.Name
	}

	type use struct {
		pos       token.Pos
		benchmark bool
	}
	type decl struct {
		id, dir, name string
		method, field bool
		node          ast.Node
	}
	topUses := map[[2]string][]use{} // {dir, name}
	methodUses := map[string][]use{}
	fieldReads := map[[2]string][]use{} // {dir, field name}
	var decls []decl

	for _, gf := range files {
		bench := inBenchmark(gf.dir)
		imports := map[string]string{} // local name -> directory
		for _, imp := range gf.file.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			dir, ok := strings.CutPrefix(p, module+"/")
			if p == module {
				dir, ok = ".", true
			}
			if !ok {
				continue
			}
			name := pkgName[dir]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = dir
		}

		if !bench {
			internal := strings.HasPrefix(gf.dir, "internal/")
			top := func(name string, node ast.Node) {
				if name != "_" && name != "init" && (internal || !ast.IsExported(name)) &&
					!(name == "main" && gf.file.Name.Name == "main") {
					decls = append(decls, decl{gf.dir + "." + name, gf.dir, name, false, false, node})
				}
			}
			for _, d := range gf.file.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						top(d.Name.Name, d)
					} else if internal || !d.Name.IsExported() {
						decls = append(decls, decl{gf.dir + "." + receiverType(d) + "." + d.Name.Name, gf.dir, d.Name.Name, true, false, d})
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							top(spec.Name.Name, spec)
							if st, ok := spec.Type.(*ast.StructType); ok {
								for _, f := range st.Fields.List {
									for _, n := range f.Names {
										if !n.IsExported() && n.Name != "_" {
											decls = append(decls, decl{gf.dir + "." + spec.Name.Name + "." + n.Name, gf.dir, n.Name, false, true, f})
										}
									}
								}
							}
						case *ast.ValueSpec:
							for _, n := range spec.Names {
								top(n.Name, spec)
							}
						}
					}
				}
			}
		}

		// Identifiers that name something rather than use it, and selectors
		// assigned to rather than read.
		naming := map[*ast.Ident]bool{gf.file.Name: true}
		written := map[*ast.SelectorExpr]bool{}
		ast.Inspect(gf.file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if n.Tok == token.ASSIGN || n.Tok == token.DEFINE {
					for _, lhs := range n.Lhs {
						if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
							written[sel] = true
						}
					}
				}
			case *ast.FuncDecl:
				naming[n.Name] = true
				if n.Recv != nil {
					ast.Inspect(n.Recv, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							naming[id] = true
						}
						return true
					})
				}
			case *ast.TypeSpec:
				naming[n.Name] = true
			case *ast.ValueSpec:
				for _, id := range n.Names {
					naming[id] = true
				}
			case *ast.Field:
				for _, id := range n.Names {
					naming[id] = true
				}
			case *ast.ImportSpec:
				if n.Name != nil {
					naming[n.Name] = true
				}
			case *ast.LabeledStmt:
				naming[n.Label] = true
			case *ast.BranchStmt:
				if n.Label != nil {
					naming[n.Label] = true
				}
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					for _, id := range m.Names {
						methodUses[id.Name] = append(methodUses[id.Name], use{id.Pos(), bench})
					}
				}
			case *ast.SelectorExpr:
				naming[n.Sel] = true
				methodUses[n.Sel.Name] = append(methodUses[n.Sel.Name], use{n.Sel.Pos(), bench})
				if !written[n] {
					k := [2]string{gf.dir, n.Sel.Name}
					fieldReads[k] = append(fieldReads[k], use{n.Sel.Pos(), bench})
				}
				if x, ok := n.X.(*ast.Ident); ok {
					if dir, ok := imports[x.Name]; ok {
						k := [2]string{dir, n.Sel.Name}
						topUses[k] = append(topUses[k], use{n.Sel.Pos(), bench})
					}
				}
			}
			return true
		})
		ast.Inspect(gf.file, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !naming[id] {
				k := [2]string{gf.dir, id.Name}
				topUses[k] = append(topUses[k], use{id.Pos(), bench})
			}
			return true
		})
	}

	allow := map[string]string{}
	matched := map[string]bool{}
	var problems []string
	for _, e := range allowed {
		if _, dup := allow[e.id]; dup || e.reason == "" {
			problems = append(problems, fmt.Sprintf("allowlist entry %s: one entry per identifier, each with a reason", e.id))
		}
		allow[e.id] = e.reason
	}
	for _, d := range decls {
		uses, unused := topUses[[2]string{d.dir, d.name}], "has no caller outside tests and benchmark/"
		switch {
		case d.method:
			uses = methodUses[d.name]
		case d.field:
			uses, unused = fieldReads[[2]string{d.dir, d.name}], "is never read outside tests"
		}
		var used, benchUsed bool
		for _, u := range uses {
			if u.pos >= d.node.Pos() && u.pos < d.node.End() {
				continue // a declaration does not keep itself alive
			}
			used = used || !u.benchmark
			benchUsed = benchUsed || u.benchmark
		}
		at := fset.Position(d.node.Pos())
		reason, listed := allow[d.id]
		matched[d.id] = matched[d.id] || listed
		switch {
		case !listed && !used:
			problems = append(problems, fmt.Sprintf("%s:%d: %s %s", at.Filename, at.Line, d.id, unused))
		case listed && used:
			problems = append(problems, fmt.Sprintf("%s:%d: %s has a caller now: delete its allowlist entry (%s)", at.Filename, at.Line, d.id, reason))
		case listed && (reason == benchmarkOnly) != benchUsed:
			problems = append(problems, fmt.Sprintf("%s:%d: %s: the reason must be %q exactly when benchmark/ calls it", at.Filename, at.Line, d.id, benchmarkOnly))
		}
	}
	for _, e := range allowed {
		if !matched[e.id] {
			problems = append(problems, fmt.Sprintf("allowlist entry %s names no declaration the rule checks", e.id))
		}
	}
	return problems
}

// receiverType names a method's receiver type, without pointer or type
// parameters.
func receiverType(f *ast.FuncDecl) string {
	x := f.Recv.List[0].Type
	if star, ok := x.(*ast.StarExpr); ok {
		x = star.X
	}
	switch t := x.(type) {
	case *ast.IndexExpr:
		x = t.X
	case *ast.IndexListExpr:
		x = t.X
	}
	if id, ok := x.(*ast.Ident); ok {
		return id.Name
	}
	return "?"
}

// TestDeadCodeRuleCatchesPlantedCases: over a planted module, the dead-code
// rule reports an unused export, an unused method, an unused unexported
// function (whose only use is itself), an unused unexported method inside
// and outside internal/, a field that is written but never read, an
// allowlist entry naming nothing and an allowlisted name that has a caller —
// and nothing else: a use from cmd/, a benchmark-only entry, a field read on
// an assignment's right side and a use of a std-interface method's name
// through an interface type all hold.
func TestDeadCodeRuleCatchesPlantedCases(t *testing.T) {
	fset := token.NewFileSet()
	var files []goFile
	for _, f := range []struct{ dir, src string }{
		{"internal/lib", `package lib
type S struct{ read, written int }
func Used()   { var s S; s.written = s.read }
func Unused() {}
func Listed() {}
func Bench()  {}
type T struct{}
func (T) M()    {}
func (T) Len() int { return 0 }
func (T) Dead() {}
func (T) idle() {}
func dead()   { dead() }
`},
		{"internal/app", `package app
type sized interface{ Len() int }
var _ sized
`},
		{"cmd/tool", `package main
import "example.test/internal/lib"
type tool struct{}
func (tool) run()  {}
func (tool) idle() {}
func main() { lib.Used(); lib.Listed(); var t lib.T; t.M(); tool{}.run() }
`},
		{"benchmark", `package main
import "example.test/internal/lib"
func main() { lib.Bench() }
`},
	} {
		file, err := parser.ParseFile(fset, f.dir+"/x.go", f.src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, goFile{f.dir, file})
	}
	allowed := []deadCodeEntry{
		{"internal/lib.Listed", "planted"},
		{"internal/lib.Missing", "planted"},
		{"internal/lib.Bench", benchmarkOnly},
	}
	problems := deadCode(fset, "example.test", files, allowed)
	for _, want := range []string{
		"internal/lib.Unused has no caller",
		"internal/lib.T.Dead has no caller",
		"internal/lib.dead has no caller",
		"internal/lib.Missing names no declaration",
		"internal/lib.Listed has a caller now",
		"internal/lib.T.idle has no caller",
		"cmd/tool.tool.idle has no caller",
		"internal/lib.S.written is never read",
	} {
		if !slices.ContainsFunc(problems, func(p string) bool { return strings.Contains(p, want) }) {
			t.Errorf("no report %q", want)
		}
	}
	if len(problems) != 8 {
		t.Errorf("%d reports, want the 8 planted:\n%s", len(problems), strings.Join(problems, "\n"))
	}
}
