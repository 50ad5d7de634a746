package sbcrawl

// The architecture rules: decisions the code's shape must keep, checked over
// the module's non-test Go files under `go test ./...`. A rule whose file set
// matches nothing fails, so a rename or a move cannot switch it off.

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"maps"
	"os"
	"os/exec"
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
	{"internal/frontier.Grouped.Peek", benchmarkOnly},
	{"internal/frontier.Grouped.Snapshot", benchmarkOnly},
	{"internal/frontier.Queue.Snapshot", benchmarkOnly},
	{"internal/frontier.Stack.Snapshot", benchmarkOnly},
	{"internal/hnsw.Index.Add", benchmarkOnly},
	{"internal/hnsw.Index.Nearest", benchmarkOnly},
	{"internal/hnsw.Index.Update", benchmarkOnly},
	{"internal/hnsw.Index.Vector", benchmarkOnly},
	{"internal/serve.Client.List", benchmarkOnly},
	{"internal/store.Store.GarbageRatio", benchmarkOnly},
	{"internal/store.Store.Get", benchmarkOnly},
	{"internal/store.Store.PutBatch", benchmarkOnly},
	{"internal/store.Store.Snapshot", benchmarkOnly},
	{"internal/textvec.TagPathVectorizer.Vectorize", benchmarkOnly},
	{"internal/urlutil.HasBlockedExtension", benchmarkOnly},
	{"internal/webserver.NewFlaky", benchmarkOnly},

	{"internal/frontier.scoredHeap.Less", "heap.Interface: container/heap calls it"},
	{"internal/frontier.scoredHeap.Swap", "heap.Interface: container/heap calls it"},
	{"internal/frontier.scoredHeap.Push", "heap.Interface: container/heap calls it"},
	{"internal/frontier.scoredHeap.Pop", "heap.Interface: container/heap calls it"},
	{"internal/store.LockedError.Unwrap", "errors.Is and errors.As call it"},
	{"internal/store.LockedError.Is", "errors.Is calls it: crawld matches sbcrawl.ErrStoreLocked"},
	{"internal/codec.UnknownVersionError.Is", "errors.Is calls it: a newer build's record matches ErrUnknownVersion"},
	{"internal/classify.Confusion.String", "fmt.Stringer: RunConfusion prints Tables 8-16 through %s"},

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
// non-test Go files that the default build context compiles.
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
		if ok, err := build.Default.MatchFile(filepath.Dir(path), d.Name()); err != nil || !ok {
			return err
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
	for _, problem := range deadCode(t, fset, "sbcrawl", files, deadCodeAllowed) {
		t.Error(problem)
	}
}

// deadCode reports every declaration without a caller, every unexported
// struct field nothing reads, and every allowlist entry that no longer holds.
// It type-checks the files, one package per directory, the module's own
// packages from source and the standard library from the export data one
// `go list -export` run names, and it matches uses to objects, so a selector
// of one type's method does not keep another type's method of that name
// alive. What it flags wrongly is a method only the standard library calls,
// such as a heap.Interface method, which takes an allowlist entry.
//
// It checks every top-level declaration, method and interface method of an
// internal/ package, and every unexported one anywhere; the root package's
// exports are the product and a command's main is its entry point. A use is
// an identifier go/types resolves to the declaration (Info.Uses, which holds
// every Info.Selections entry's selector too; a generic method or field
// through its Origin) in a non-test file outside benchmark/, outside the
// declaration itself and outside a method receiver. A method is also used
// when it is in the method set of a type implementing an interface whose
// method of that name is used, promoted methods included; a call of an
// interface method from a method of the same name whose receiver implements
// that interface is a forwarder and does not count. An unexported field of a
// top-level struct type is checked everywhere outside benchmark/; its use is
// a resolved use that is not a composite literal's key or the whole left side
// of an = or := (a write). An allowlisted declaration must have no such use,
// and its reason is benchmarkOnly exactly when benchmark/ uses it.
func deadCode(t testing.TB, fset *token.FileSet, module string, files []goFile, allowed []deadCodeEntry) []string {
	inBenchmark := func(dir string) bool { return dir == "benchmark" || strings.HasPrefix(dir, "benchmark/") }
	info, problems := typeCheck(t, fset, module, files)

	type decl struct {
		id    string
		obj   types.Object
		field bool
		node  ast.Node
	}
	var decls []decl
	for _, gf := range files {
		if inBenchmark(gf.dir) {
			continue
		}
		internal := strings.HasPrefix(gf.dir, "internal/")
		checked := func(name string) bool { return internal || !ast.IsExported(name) }
		add := func(id *ast.Ident, prefix string, field bool, node ast.Node) {
			decls = append(decls, decl{gf.dir + "." + prefix + id.Name, info.Defs[id], field, node})
		}
		for _, d := range gf.file.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				prefix := ""
				if d.Recv != nil {
					prefix = receiverType(d) + "."
				} else if d.Name.Name == "init" || d.Name.Name == "main" && gf.file.Name.Name == "main" {
					continue
				}
				if checked(d.Name.Name) {
					add(d.Name, prefix, false, d)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						if checked(spec.Name.Name) {
							add(spec.Name, "", false, spec)
						}
						switch typ := spec.Type.(type) {
						case *ast.StructType:
							for _, f := range typ.Fields.List {
								for _, n := range f.Names {
									if !n.IsExported() && n.Name != "_" {
										add(n, spec.Name.Name+".", true, f)
									}
								}
							}
						case *ast.InterfaceType:
							for _, m := range typ.Methods.List {
								for _, n := range m.Names {
									if checked(n.Name) {
										add(n, spec.Name.Name+".", false, m)
									}
								}
							}
						}
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							if n.Name != "_" && checked(n.Name) {
								add(n, "", false, spec)
							}
						}
					}
				}
			}
		}
	}

	// Every resolved use, and the interface methods used on each side.
	type use struct {
		pos             token.Pos
		benchmark, read bool
	}
	uses := map[types.Object][]use{}
	calledAbstract := [2]map[*types.Func]bool{{}, {}} // [program, benchmark]
	for _, gf := range files {
		bench, side := inBenchmark(gf.dir), 0
		if bench {
			side = 1
		}
		written := map[*ast.Ident]bool{}
		ast.Inspect(gf.file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if n.Tok == token.ASSIGN || n.Tok == token.DEFINE {
					for _, lhs := range n.Lhs {
						if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
							written[sel.Sel] = true
						}
					}
				}
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok {
					if v, ok := info.Uses[id].(*types.Var); ok && v.IsField() {
						written[id] = true
					}
				}
			}
			return true
		})
		for _, d := range gf.file.Decls {
			var forwarder *types.Func // the method d declares, if any
			var recv ast.Node
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
				forwarder, _ = info.Defs[fd.Name].(*types.Func)
				recv = fd.Recv
			}
			ast.Inspect(d, func(n ast.Node) bool {
				if n == recv {
					return false // a receiver names its type; it does not use it
				}
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				obj := origin(info.Uses[id])
				if obj == nil {
					return true
				}
				if m, ok := obj.(*types.Func); ok && isAbstract(m) {
					if forwarder != nil && forwarder.Name() == m.Name() && implements(forwarder.Type().(*types.Signature).Recv().Type(), m) {
						return true
					}
					calledAbstract[side][m] = true
				}
				uses[obj] = append(uses[obj], use{id.Pos(), bench, !written[id]})
				return true
			})
		}
	}

	// A used interface method reaches its name in the method set of every
	// named type, or instance of a generic one, that implements its interface.
	var named []types.Type
	for _, obj := range info.Defs {
		if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
			if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() == 0 {
				named = append(named, n)
			}
		}
	}
	for _, inst := range info.Instances {
		if n, ok := inst.Type.(*types.Named); ok {
			named = append(named, n)
		}
	}
	var dispatched [2]map[types.Object]bool
	for side, ms := range calledAbstract {
		dispatched[side] = map[types.Object]bool{}
		for m := range ms {
			for _, typ := range named {
				if implements(typ, m) {
					if f, _, _ := types.LookupFieldOrMethod(typ, true, m.Pkg(), m.Name()); f != nil {
						dispatched[side][origin(f)] = true
					}
				}
			}
		}
	}

	allow := map[string]string{}
	matched := map[string]bool{}
	for _, e := range allowed {
		if _, dup := allow[e.id]; dup || e.reason == "" {
			problems = append(problems, fmt.Sprintf("allowlist entry %s: one entry per identifier, each with a reason", e.id))
		}
		allow[e.id] = e.reason
	}
	for _, d := range decls {
		if d.obj == nil {
			continue // the type check failed and said so
		}
		used, benchUsed := dispatched[0][d.obj], dispatched[1][d.obj]
		for _, u := range uses[d.obj] {
			if (u.pos >= d.node.Pos() && u.pos < d.node.End()) || (d.field && !u.read) {
				continue // a declaration does not keep itself alive, nor a write a field
			}
			used = used || !u.benchmark
			benchUsed = benchUsed || u.benchmark
		}
		unused := "has no caller outside tests and benchmark/"
		if d.field {
			unused = "is never read outside tests"
		} else if benchUsed {
			unused += " (benchmark/ calls it: an entry's reason is " + strconv.Quote(benchmarkOnly) + ")"
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

// typeCheck type-checks files, one package per directory: the module's
// packages from source, in import order, and every other import from the
// export data of one `go list -export -deps` run over those imports. It
// returns the one Info all packages share and every type error.
func typeCheck(t testing.TB, fset *token.FileSet, module string, files []goFile) (*types.Info, []string) {
	byDir := map[string][]*ast.File{}
	external := map[string]bool{}
	for _, gf := range files {
		byDir[gf.dir] = append(byDir[gf.dir], gf.file)
		for _, imp := range gf.file.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p != module && !strings.HasPrefix(p, module+"/") && p != "unsafe" {
				external[p] = true
			}
		}
	}
	exports := map[string]string{}
	if len(external) > 0 {
		cmd := exec.Command("go", append([]string{"list", "-export", "-deps", "-f", "{{.ImportPath}}={{.Export}}"}, slices.Sorted(maps.Keys(external))...)...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("go list -export: %v", err)
		}
		for _, line := range strings.Fields(string(out)) {
			path, file, _ := strings.Cut(line, "=")
			exports[path] = file
		}
	}
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok || file == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(file)
	})

	info := &types.Info{
		Defs:      map[*ast.Ident]types.Object{},
		Uses:      map[*ast.Ident]types.Object{},
		Instances: map[*ast.Ident]types.Instance{},
	}
	var problems []string
	pkgs := map[string]*types.Package{}
	var check func(dir string) *types.Package
	conf := types.Config{
		Importer: importerFunc(func(path string) (*types.Package, error) {
			if path == module {
				return check("."), nil
			}
			if dir, ok := strings.CutPrefix(path, module+"/"); ok {
				return check(dir), nil
			}
			return std.Import(path)
		}),
		Error: func(err error) { problems = append(problems, "type check: "+err.Error()) },
	}
	check = func(dir string) *types.Package {
		if pkg, ok := pkgs[dir]; ok {
			return pkg
		}
		path := module
		if dir != "." {
			path += "/" + dir
		}
		pkg, _ := conf.Check(path, fset, byDir[dir], info)
		pkgs[dir] = pkg
		return pkg
	}
	for _, dir := range slices.Sorted(maps.Keys(byDir)) {
		check(dir)
	}
	return info, problems
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// origin maps an instantiated method or field to its generic declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// isAbstract reports whether m is an interface's method.
func isAbstract(m *types.Func) bool {
	recv := m.Type().(*types.Signature).Recv()
	return recv != nil && types.IsInterface(recv.Type())
}

// implements reports whether typ, or a pointer to it, implements the
// interface that declares m.
func implements(typ types.Type, m *types.Func) bool {
	if p, ok := typ.(*types.Pointer); ok {
		typ = p.Elem()
	}
	iface, ok := m.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
	if !ok {
		return false
	}
	return types.Implements(typ, iface) || (!types.IsInterface(typ) && types.Implements(types.NewPointer(typ), iface))
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
// function (whose only use is itself), an unused type (whose only mentions
// are its method's receiver), an unused unexported method inside and
// outside internal/, a field that is written but never read, an
// allowlist entry naming nothing and an allowlisted name that has a caller;
// a method whose name only another package's selector uses (a type of that
// name), an interface method whose only call is a forwarder implementing it
// (with the forwarder and the other implementation), and an interface method
// nothing calls beside a used method of its name on another type (with its
// implementation) — and nothing else: a use from cmd/, a benchmark-only
// entry, a field read on an assignment's right side, a generic method used
// through an instantiation, methods reached only through a used interface
// method (declared, promoted by embedding, or the standard library's
// fmt.Stringer) all hold.
func TestDeadCodeRuleCatchesPlantedCases(t *testing.T) {
	fset := token.NewFileSet()
	var files []goFile
	for _, f := range []struct{ dir, src string }{
		{"internal/lib", `package lib
import "example.test/internal/sim"
type S struct{ read, written int }
func Used()   { var s S; s.written = s.read }
func Unused() {}
func Listed() {}
func Bench()  {}
type T struct{}
func (T) M()    {}
func (T) Dead() {}
func (T) idle() {}
func (T) String() string { return "t" }
type Inj struct{ plan *sim.Plan }
func (i *Inj) Active() bool     { return i.plan != nil }
func (i *Inj) Plan() *sim.Plan { return i.plan }
func dead()   { dead() }
type gone struct{}
func (gone) touch() {}

type Backend interface {
	Put()
	Batch()
}
type Store struct{}
func (*Store) Put()   {}
func (*Store) Batch() {}
type prefixed struct{ b Backend }
func (p prefixed) Put()   { p.b.Put() }
func (p prefixed) Batch() { p.b.Batch() }
func Prefixed(b Backend) Backend { return prefixed{b} }

type Model interface {
	Predict() int
	Name() string
}
type LR struct{}
func (LR) Predict() int { return 0 }
func (LR) Name() string { return "LR" }
type Crawler struct{}
func (Crawler) Name() string { return "SB" }

type Policy interface{ Count() int }
type stats struct{}
func (*stats) Count() int { return 0 }
type Greedy struct{ stats }
type Fixed struct{}
func (Fixed) Count() int { return 1 }

type List[E any] chan E
func (l List[E]) Get() (E, bool) { var e E; return e, false }
`},
		{"internal/sim", `package sim
type Plan struct{}
`},
		{"cmd/tool", `package main
import (
	"fmt"
	"example.test/internal/lib"
)
type tool struct{}
func (tool) run()  {}
func (tool) idle() {}
func main() {
	lib.Used(); lib.Listed()
	var t lib.T
	t.M()
	tool{}.run()
	var s fmt.Stringer = t
	fmt.Println(s.String(), lib.Crawler{}.Name(), (&lib.Inj{}).Active())
	lib.Prefixed(&lib.Store{}).Put()
	var m lib.Model = lib.LR{}
	m.Predict()
	for _, p := range []lib.Policy{&lib.Greedy{}, lib.Fixed{}} {
		p.Count()
	}
	var l lib.List[int]
	l.Get()
}
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
	problems := deadCode(t, fset, "example.test", files, allowed)
	want := []string{
		"internal/lib.Unused has no caller",
		"internal/lib.T.Dead has no caller",
		"internal/lib.dead has no caller",
		"internal/lib.gone has no caller",
		"internal/lib.gone.touch has no caller",
		"internal/lib.Missing names no declaration",
		"internal/lib.Listed has a caller now",
		"internal/lib.T.idle has no caller",
		"cmd/tool.tool.idle has no caller",
		"internal/lib.S.written is never read",
		"internal/lib.Inj.Plan has no caller",
		"internal/lib.Backend.Batch has no caller",
		"internal/lib.prefixed.Batch has no caller",
		"internal/lib.Store.Batch has no caller",
		"internal/lib.Model.Name has no caller",
		"internal/lib.LR.Name has no caller",
	}
	for _, w := range want {
		if !slices.ContainsFunc(problems, func(p string) bool { return strings.Contains(p, w) }) {
			t.Errorf("no report %q", w)
		}
	}
	if len(problems) != len(want) {
		t.Errorf("%d reports, want the %d planted:\n%s", len(problems), len(want), strings.Join(problems, "\n"))
	}
}
