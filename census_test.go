package pipetune

// Three gates over the repository itself, standard library only.
//
// TestNoTestOnlyExports is the reachability census: production code that
// no production path reads is deleted, and this test keeps it deleted. It
// parses every Go file in the module and fails on any exported identifier
// declared in internal/..., and on any option (With*) or *System method of
// the root package, that no non-test file refers to.
//
// TestCIRunPatternsMatch holds the CI workflow to the suite: `go test
// -run` on a pattern that matches nothing exits 0, so a renamed test would
// silently empty its gate.
//
// TestEveryExampleIsPinned holds every runnable example to a test: an
// example whose output nothing checks drifts from the code it shows.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// censusAllow lists the exported identifiers of internal/... that are
// kept although only tests refer to them. Keys are "dir.Name" for
// package-level names, "dir.Type.Name" for methods and fields, "dir.*"
// for a whole package and "dir.*.Name" for a member of every type in it;
// every entry says why it stays.
var censusAllow = map[string]string{
	// (a) Methods that satisfy an interface: the caller holds the
	// interface, so no file that imports the declaring package names them.
	"internal/xrand.Source.Int63": "math/rand.Source",

	// (b) What the frozen cmd/bench compiles against. (The three Clones
	// its test calls need no entry: other Clone methods share the name.)
	"internal/tsdb.*":              "cmd/bench/probes.go times a Write (tsdb.write_us); the package goes when that probe does",
	"internal/service.Service.Job": "cmd/bench/probes.go reads a result through r.d.svc, a field whose type the file does not import",

	// (c) Reference implementations, and what test-side references are
	// built from: the production path is held to them.
	"internal/perf.Sampler.Sample": "EpochProfile is the mean of consecutive Samples, bit for bit (perf/parity_test.go)",
	"internal/xrand.Source.Perm":   "nn/reference_test.go's naive shuffle the kernels' epoch order is held to",
	"internal/xrand.Source.State":  "nn/reference_test.go fingerprints dropout streams with it",

	// (d) Reached through a value whose type the calling file does not
	// import, which a census without type information cannot follow.
	"internal/admission.Queue.Position": "service.go calls s.disp.q.Position; the field is declared in dispatch.go",
}

// censusFile is one parsed file of the module.
type censusFile struct {
	dir  string // slash-separated, relative to the module root; "." for the root
	test bool
	ast  *ast.File
}

func parseModule(t *testing.T) (*token.FileSet, []censusFile) {
	t.Helper()
	fset := token.NewFileSet()
	var files []censusFile
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); p != "." && (strings.HasPrefix(n, ".") || n == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, censusFile{
			dir:  filepath.ToSlash(filepath.Dir(p)),
			test: strings.HasSuffix(p, "_test.go"),
			ast:  f,
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return fset, files
}

// censusDecl is one exported declaration of an internal package.
type censusDecl struct {
	key      string
	dir      string
	name     string
	member   bool // a method or field: referred to through a selector on a value
	pos, end token.Pos
}

func TestNoTestOnlyExports(t *testing.T) {
	const module = "pipetune"
	fset, files := parseModule(t)

	var decls []censusDecl
	add := func(f censusFile, owner string, id *ast.Ident, n ast.Node) {
		if !id.IsExported() {
			return
		}
		key := f.dir
		if key == "." {
			key = module
		}
		if owner != "" {
			key += "." + owner
		}
		key += "." + id.Name
		decls = append(decls, censusDecl{key, f.dir, id.Name, owner != "", n.Pos(), n.End()})
	}
	for _, f := range files {
		root := f.dir == "."
		if f.test || !root && !strings.HasPrefix(f.dir, "internal/") {
			continue
		}
		for _, d := range f.ast.Decls {
			if root {
				// The root package's settable surface: its options and
				// the methods on *System.
				if fd, ok := d.(*ast.FuncDecl); ok {
					if owner := receiverName(fd); owner == "System" || owner == "" && strings.HasPrefix(fd.Name.Name, "With") {
						add(f, owner, fd.Name, fd)
					}
				}
				continue
			}
			switch d := d.(type) {
			case *ast.FuncDecl:
				add(f, receiverName(d), d.Name, d)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.ValueSpec:
						for _, id := range s.Names {
							add(f, "", id, id)
						}
					case *ast.TypeSpec:
						add(f, "", s.Name, s.Name)
						if st, ok := s.Type.(*ast.StructType); ok {
							for _, fld := range st.Fields.List {
								for _, id := range fld.Names {
									add(f, s.Name.Name, id, id)
								}
							}
						}
					}
				}
			}
		}
	}

	// What the non-test files refer to. A package-level name is referred
	// to bare inside its package and as pkg.Name from a file that imports
	// it; a method or field by name through a selector or literal key,
	// inside its package or in a file that imports it (no type
	// information, so a shared name keeps every bearer it could reach). A
	// selector on an import's local name — stdlib included — is pkg.Name,
	// not a member reference.
	type ref struct {
		dir      string
		pos      token.Pos
		imported map[string]bool // the module dirs the referring file imports
	}
	bare := map[string][]ref{}     // dir + "." + name, within the package
	qualified := map[string]bool{} // dir + "." + name, from an importer
	members := map[string][]ref{}  // name
	for _, f := range files {
		if f.test {
			continue
		}
		imports := map[string]string{} // local name → module dir ("" outside the module)
		imported := map[string]bool{}
		for _, im := range f.ast.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			local := path.Base(p)
			if im.Name != nil {
				local = im.Name.Name
			}
			dir, ok := strings.CutPrefix(p, module+"/")
			switch {
			case p == module:
				dir = "."
			case !ok:
				dir = ""
			}
			imports[local] = dir
			if dir != "" {
				imported[dir] = true
			}
		}
		// Idents that name a member where it is declared or selected, and
		// receiver types, are not references to a package-level name.
		notBare := map[*ast.Ident]bool{}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Recv != nil {
					notBare[n.Name] = true
					ast.Inspect(n.Recv, func(r ast.Node) bool {
						if id, ok := r.(*ast.Ident); ok {
							notBare[id] = true
						}
						return true
					})
				}
			case *ast.Field:
				for _, id := range n.Names {
					notBare[id] = true
				}
			case *ast.SelectorExpr:
				notBare[n.Sel] = true
				// pkg.Name names a package-level identifier, never a member.
				if x, ok := n.X.(*ast.Ident); ok {
					if dir, ok := imports[x.Name]; ok {
						if dir != "" {
							qualified[dir+"."+n.Sel.Name] = true
						}
						break
					}
				}
				members[n.Sel.Name] = append(members[n.Sel.Name], ref{f.dir, n.Sel.Pos(), imported})
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok {
					members[id.Name] = append(members[id.Name], ref{f.dir, id.Pos(), imported})
				}
			case *ast.Ident:
				if !notBare[n] {
					k := f.dir + "." + n.Name
					bare[k] = append(bare[k], ref{f.dir, n.Pos(), nil})
				}
			}
			return true
		})
	}
	outside := func(d censusDecl, refs []ref) bool {
		for _, r := range refs {
			if r.dir != d.dir || r.pos < d.pos || r.pos >= d.end {
				return true
			}
		}
		return false
	}

	used := map[string]bool{}
	for _, d := range decls {
		var live bool
		if d.member {
			var reach []ref
			for _, r := range members[d.name] {
				if r.dir == d.dir || r.imported[d.dir] {
					reach = append(reach, r)
				}
			}
			live = outside(d, reach)
		} else {
			live = qualified[d.dir+"."+d.name] || outside(d, bare[d.dir+"."+d.name])
		}
		if live {
			continue
		}
		switch {
		case censusAllow[d.key] != "":
			used[d.key] = true
		case censusAllow[d.dir+".*"] != "":
			used[d.dir+".*"] = true
		case d.member && censusAllow[d.dir+".*."+d.name] != "":
			used[d.dir+".*."+d.name] = true
		default:
			t.Errorf("%s: %s is exported, but no non-test file refers to it", fset.Position(d.pos), d.key)
		}
	}
	for k := range censusAllow {
		if !used[k] {
			t.Errorf("censusAllow[%q] excuses nothing: delete the entry", k)
		}
	}
}

// receiverName returns the receiver's type name, "" for a plain function.
func receiverName(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return ""
	}
	e := d.Recv.List[0].Type
	if star, ok := e.(*ast.StarExpr); ok {
		e = star.X
	}
	return e.(*ast.Ident).Name // the module declares no generic types
}

// TestCIRunPatternsMatch splits every -run, -bench and -fuzz alternation
// in .github/workflows/ci.yml and requires each name to be a test function
// of a package the command targets. Names are held to exact matches, not
// to the regular expressions go test would accept: a prefix that still
// matches some tests hides the one that was renamed away.
func TestCIRunPatternsMatch(t *testing.T) {
	_, files := parseModule(t)
	funcs := map[string]map[string]bool{} // dir → top-level functions of its test files
	for _, f := range files {
		if !f.test {
			continue
		}
		if funcs[f.dir] == nil {
			funcs[f.dir] = map[string]bool{}
		}
		for _, d := range f.ast.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil {
				funcs[f.dir][fd.Name.Name] = true
			}
		}
	}
	prefix := map[string]string{"-run": "Test", "-bench": "Benchmark", "-fuzz": "Fuzz"}

	yml, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for i, line := range strings.Split(string(yml), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "#") {
			continue
		}
		args := strings.Fields(strings.ReplaceAll(line, "'", ""))
		at := -1
		for j := 1; j < len(args); j++ {
			if args[j-1] == "go" && args[j] == "test" {
				at = j
			}
		}
		if at < 0 {
			continue
		}
		var targets []string // path.Clean turns ./... into "..." and ./internal/... into "internal/..."
		for _, a := range args[at+1:] {
			if a == "." || strings.HasPrefix(a, "./") {
				targets = append(targets, path.Clean(a))
			}
		}
		for j := at + 1; j+1 < len(args); j++ {
			want, ok := prefix[args[j]]
			if !ok {
				continue
			}
			for _, name := range strings.Split(args[j+1], "|") {
				if name == "." || name == "^$" {
					continue // everything, or nothing: not a name
				}
				checked++
				found := false
				for dir, names := range funcs {
					for _, target := range targets {
						tree, all := strings.CutSuffix(target, "...")
						if (dir == target || all && strings.HasPrefix(dir+"/", tree)) && names[name] {
							found = true
						}
					}
				}
				if !found || !strings.HasPrefix(name, want) {
					t.Errorf("ci.yml:%d: %s %s names no %s function in %v", i+1, args[j], name, want, targets)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no -run pattern in ci.yml: the parser no longer reads the workflow")
	}
}

// TestEveryExampleIsPinned fails on a directory under examples/ without a
// _test.go file. Each example's test holds its stdout to
// testdata/output.txt (`go test ./examples/<name> -update` re-records).
func TestEveryExampleIsPinned(t *testing.T) {
	dirs, err := os.ReadDir("examples")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if !d.IsDir() {
			continue
		}
		tests, err := filepath.Glob(filepath.Join("examples", d.Name(), "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		if len(tests) == 0 {
			t.Errorf("examples/%s has no test: pin its stdout, or delete it", d.Name())
		}
	}
}
