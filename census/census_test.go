// Package census keeps the module free of code nothing reads. TestCensus
// type-checks every package and fails on two kinds of finding, unless the
// allowlist below gives the finding a reason:
//
//   - rule 1: an exported package-level func, type, var or const, or an
//     exported method, that no non-test code references outside its own
//     declaration. A method named like a method of an interface type in use
//     is exempt, because types.Info.Uses does not record interface
//     satisfaction.
//   - rule 2: a struct field that nothing, tests included, reads. Keyed and
//     positional composite-literal elements, the left side of = and op=,
//     and ++/-- are writes; every other reference is a read. Embedded
//     fields, fields with a struct tag (encoding/json reads them), and
//     fields of a struct type used as a map key or compared with ==
//     (hashing and comparison read them) are exempt.
//
// Every package of the module is a referrer, bench/, cmd/ and examples/
// included; findings declared under bench/ are out of scope. The test also
// logs the number of non-test lines per package, the census CHANGES.md
// quotes. Run it with
//
//	go test -count=1 -run TestCensus -v ./census/
//
// The package has no non-test files, so the census adds no non-test lines.
// It sits outside internal/, every package of which bench's host profile
// must name a layer for.
package census

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// allowlist maps a finding that stays to the reason it stays. A key is a
// finding's name, or a module-relative package path, which covers every
// rule-1 finding in that package. An entry that matches no finding fails
// the test, so the list cannot rot.
var allowlist = map[string]string{
	"fsim": "the library's public API (README quick start): its exported names are for importers outside the module",

	// Reference oracles the tests compare against.
	"internal/dev.Predecessors":            "reference oracle: the exhaustive barrier relation the driver's index and crashmc's reduction are held to",
	"internal/disk.Disk.Image":             "reference oracle: the whole media image the tests hand to fsck",
	"internal/fsck.Materialize":            "reference oracle: the full image the incremental checker's reports are compared with",
	"internal/fsck.ContentViolationsImage": "reference oracle: the crash tests' file-content check; ROADMAP item 1(e) makes it a crashmc ExtraCheck",

	"fsim.DistOptions.EngineWorkers": "deprecated and ignored: bench's sim.lpgroup probe still sets it, and ROADMAP item 5 removes both",

	"internal/ffs.FS.Truncate": "a documented operation (README's operation set); EXPERIMENTS.md's crash results cite partial truncation",

	// Probes that tests of another package assert; an export_test.go
	// reaches only the tests of its own package.
	"internal/cache.DrainStorage":            "test hook: ffs's allocation guard drains the process-wide storage pool before it counts",
	"internal/cache.Cache.HeldCount":         "probe: fsim's and ffs's tests assert no buffer is left held",
	"internal/ordering.SoftUpdates.DepCount": "probe: fsim's stress test asserts every dependency drains",
	"internal/crashmc.Recorder.Instant":      "probe: fsim's journal test marks the crash instant an fsync returned at",
	"internal/dev.Driver.Config":             "probe: crashmc's reduction test holds the mounted driver to its barrier rule",
	"internal/ffs.FS.Ordering":               "probe: fsim's scheme test checks the ordering each scheme mounts",
	"internal/ffs.FS.Unfinished":             "probe: fsim's stress and full-disk tests assert every removal finished",
	"internal/sim.Engine.Live":               "probe: fsim's test asserts no process outlives Shutdown",
	"internal/simnet.Network.Params":         "probe: fsim's cluster test asserts the cluster runs on the default cost model",

	"internal/harness.DistCrashCheckResult.Load": "encoding/json reads it: mdcheck -dist -json prints it",
}

// pkg is one type-checked package: its non-test files, or, as a test build,
// the package with its internal tests or its external tests.
type pkg struct {
	rel   string // module-relative path ("internal/sim"), the prefix of every finding's name
	test  bool   // a test build: it reads fields (rule 2) and declares and references nothing
	files []*ast.File
	types *types.Package
	info  *types.Info
}

type finding struct {
	rule int // 1: exported name nothing references; 2: field nothing reads
	pkg  string
	name string // "<pkg>.<Name>", "<pkg>.<Type>.<Method>" or "<pkg>.<Type>.<field>"
	pos  token.Position
}

func (f finding) String() string {
	what := "exported name no non-test code references"
	if f.rule == 2 {
		what = "field nothing reads"
	}
	return fmt.Sprintf("%s: %s: %s", f.pos, f.name, what)
}

func TestCensus(t *testing.T) {
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	pkgs, lines := loadModule(t, fset, root)
	logLines(t, lines)

	unlisted, stale := sift(audit(fset, pkgs, func(p *pkg) bool { return !inBench(p.rel) }), allowlist)
	for _, f := range unlisted {
		t.Errorf("%s: delete it, or allowlist it with a reason", f)
	}
	for _, key := range stale {
		t.Errorf("allowlist entry %q matches no finding: delete the entry", key)
	}
	for key, why := range allowlist {
		if strings.TrimSpace(why) == "" {
			t.Errorf("allowlist entry %q gives no reason", key)
		}
	}
}

// TestCensusRules runs the rules over the fixture package, which plants
// one case of each verdict.
func TestCensusRules(t *testing.T) {
	fset := token.NewFileSet()
	dir := filepath.Join("testdata", "fixture")
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	files, _, err := parse(fset, dir, names)
	if err != nil {
		t.Fatal(err)
	}
	p, err := check(fset, importer.ForCompiler(fset, "source", nil), "fixture", "fixture", files, false)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int{}
	for _, f := range audit(fset, []*pkg{p}, func(*pkg) bool { return true }) {
		got[f.name] = f.rule
	}
	// Each planted name and the rule that must report it; 0: it passes.
	for name, rule := range map[string]int{
		"fixture.Unused":        1, // an exported function nothing calls
		"fixture.Used":          0,
		"fixture.Square.Area":   0, // satisfies Shape, an interface in use
		"fixture.record.unread": 2, // only written
		"fixture.record.read":   0,
		"fixture.record.Tagged": 0, // has a struct tag
		"fixture.key.a":         0, // a map key's field
		"fixture.key.b":         0,
		"fixture.pair.x":        0, // compared with ==
	} {
		if got[name] != rule {
			t.Errorf("%s: reported by rule %d, want %d (0: passes)", name, got[name], rule)
		}
	}
	if len(got) != 2 {
		t.Errorf("findings %v, want exactly fixture.Unused and fixture.record.unread", got)
	}

	var fs []finding
	for name, rule := range got {
		fs = append(fs, finding{rule: rule, pkg: "fixture", name: name})
	}
	unlisted, stale := sift(fs, map[string]string{
		"fixture.Unused": "kept for the test",
		"fixture.Gone":   "matches nothing",
	})
	if len(unlisted) != 1 || unlisted[0].name != "fixture.record.unread" {
		t.Errorf("unlisted %v, want only fixture.record.unread", unlisted)
	}
	if len(stale) != 1 || stale[0] != "fixture.Gone" {
		t.Errorf("stale entries %v, want [fixture.Gone]", stale)
	}
}

// sift splits findings into those no allowlist entry covers, and returns
// the entries that cover no finding.
func sift(fs []finding, allow map[string]string) (unlisted []finding, stale []string) {
	used := map[string]bool{}
	for _, f := range fs {
		switch {
		case allow[f.name] != "":
			used[f.name] = true
		case f.rule == 1 && allow[f.pkg] != "":
			used[f.pkg] = true
		default:
			unlisted = append(unlisted, f)
		}
	}
	for key := range allow {
		if !used[key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(stale)
	return unlisted, stale
}

// loadModule type-checks the module's packages in dependency order and
// returns them with the non-test line count of each. The tests of each
// package follow as readers: the package checked again with its internal
// tests, and its external tests.
func loadModule(t *testing.T, fset *token.FileSet, root string) ([]*pkg, map[string]int) {
	t.Helper()
	cmd := exec.Command("go", "list", "-deps", "-json", "./...")
	cmd.Dir = root
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	type listed struct {
		ImportPath, Dir           string
		Standard                  bool
		Module                    *struct{ Path string }
		GoFiles                   []string
		TestGoFiles, XTestGoFiles []string
		base                      *pkg
	}
	var all []*listed
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		lp := new(listed)
		if err := dec.Decode(lp); err != nil {
			t.Fatal(err)
		}
		if !lp.Standard && lp.Module != nil && len(lp.GoFiles) > 0 {
			all = append(all, lp)
		}
	}

	std := importer.ForCompiler(fset, "source", nil)
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p := checked[path]; p != nil {
			return p, nil
		}
		return std.Import(path)
	})
	var pkgs []*pkg
	lines := map[string]int{}
	for _, lp := range all {
		rel := strings.TrimPrefix(strings.TrimPrefix(lp.ImportPath, lp.Module.Path), "/")
		if rel == "" {
			rel = lp.ImportPath
		}
		files, n, err := parse(fset, lp.Dir, lp.GoFiles)
		if err != nil {
			t.Fatal(err)
		}
		lines[rel] = n
		if lp.base, err = check(fset, imp, lp.ImportPath, rel, files, false); err != nil {
			t.Fatal(err)
		}
		checked[lp.ImportPath] = lp.base.types
		pkgs = append(pkgs, lp.base)
	}

	// A test may hand a value of the package it tests to a package that
	// imports the untested build of it, which type-checks as a mismatch;
	// such errors do not hide the fields the test reads.
	for _, lp := range all {
		under := lp.base
		if len(lp.TestGoFiles) > 0 {
			files, _, err := parse(fset, lp.Dir, lp.TestGoFiles)
			if err != nil {
				t.Fatal(err)
			}
			under, _ = check(fset, imp, lp.ImportPath, lp.base.rel, append(files, lp.base.files...), true)
			pkgs = append(pkgs, under)
		}
		if len(lp.XTestGoFiles) > 0 {
			files, _, err := parse(fset, lp.Dir, lp.XTestGoFiles)
			if err != nil {
				t.Fatal(err)
			}
			ximp := importerFunc(func(path string) (*types.Package, error) {
				if path == lp.ImportPath {
					return under.types, nil
				}
				return imp.Import(path)
			})
			x, _ := check(fset, ximp, lp.ImportPath+"_test", lp.base.rel, files, true)
			pkgs = append(pkgs, x)
		}
	}
	return pkgs, lines
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// parse parses the named files of dir and counts their lines.
func parse(fset *token.FileSet, dir string, names []string) ([]*ast.File, int, error) {
	var files []*ast.File
	lines := 0
	for _, name := range names {
		src, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, 0, err
		}
		lines += bytes.Count(src, []byte("\n"))
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), src, parser.SkipObjectResolution)
		if err != nil {
			return nil, 0, err
		}
		files = append(files, f)
	}
	return files, lines, nil
}

// check type-checks one package. A test build (test true) reads fields for
// rule 2 and nothing else, and its type errors are ignored.
func check(fset *token.FileSet, imp types.Importer, path, rel string, files []*ast.File, test bool) (*pkg, error) {
	p := &pkg{rel: rel, test: test, files: files, info: &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}}
	conf := types.Config{Importer: imp}
	if test {
		conf.Error = func(error) {}
	}
	var err error
	p.types, err = conf.Check(path, fset, files, p.info)
	return p, err
}

// inBench reports whether a module-relative package path is under bench/,
// which only a benchmark change edits: its findings are out of scope and
// its lines outside the total.
func inBench(rel string) bool { return rel == "bench" || strings.HasPrefix(rel, "bench/") }

func logLines(t *testing.T, lines map[string]int) {
	var rels []string
	for rel := range lines {
		rels = append(rels, rel)
	}
	sort.Strings(rels)
	var b strings.Builder
	total := 0
	fmt.Fprintf(&b, "non-test lines per package:\n")
	for _, rel := range rels {
		note := ""
		if inBench(rel) {
			note = "  (not in the total)"
		} else {
			total += lines[rel]
		}
		fmt.Fprintf(&b, "  %-30s %6d%s\n", rel, lines[rel], note)
	}
	fmt.Fprintf(&b, "  %-30s %6d", "total outside bench/", total)
	t.Log(b.String())
}

// audit applies both rules to the non-test packages inScope accepts. Every
// non-test package is a referrer for rule 1; every package, tests included,
// is a reader for rule 2. Rule 2 keys a field by its declaration's position,
// which a test build shares with the package it extends.
func audit(fset *token.FileSet, pkgs []*pkg, inScope func(*pkg) bool) []finding {
	var fs []finding
	add := func(rule int, p *pkg, name string, pos token.Pos) {
		fs = append(fs, finding{rule: rule, pkg: p.rel, name: p.rel + "." + name, pos: fset.Position(pos)})
	}

	// Rule 1. own holds each candidate's declaration: a reference inside it
	// (a recursive call, a method's receiver) does not count.
	type span struct{ pos, end token.Pos }
	own := map[types.Object][]span{}
	owner := map[types.Object]*pkg{}
	for _, p := range pkgs {
		if p.test || !inScope(p) {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					obj := p.info.Defs[d.Name]
					s := span{d.Pos(), d.End()}
					if d.Recv != nil {
						if named := recvNamed(obj); named != nil {
							own[named.Obj()] = append(own[named.Obj()], s)
						}
					}
					if obj != nil && obj.Exported() {
						own[obj] = append(own[obj], s)
						owner[obj] = p
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						s := span{spec.Pos(), spec.End()}
						var ids []*ast.Ident
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							ids = []*ast.Ident{spec.Name}
						case *ast.ValueSpec:
							ids = spec.Names
						}
						for _, id := range ids {
							if obj := p.info.Defs[id]; obj != nil && obj.Exported() {
								own[obj] = append(own[obj], s)
								owner[obj] = p
							}
						}
					}
				}
			}
		}
	}
	ifaceMethods := map[string]bool{"Error": true}
	addIface := func(typ types.Type) {
		if it, ok := typ.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				ifaceMethods[it.Method(i).Name()] = true
			}
		}
	}
	referenced := map[types.Object]bool{}
	for _, p := range pkgs {
		if p.test {
			continue
		}
		for _, tv := range p.info.Types {
			if tv.Type != nil {
				addIface(tv.Type)
			}
		}
		// fmt.Stringer, json.Marshaler and their kind are satisfied
		// without ever being named.
		for _, imp := range p.types.Imports() {
			for _, name := range imp.Scope().Names() {
				if tn, ok := imp.Scope().Lookup(name).(*types.TypeName); ok {
					addIface(tn.Type())
				}
			}
		}
		for id, obj := range p.info.Uses {
			obj = origin(obj)
			if _, ok := owner[obj]; !ok {
				continue
			}
			inside := false
			for _, s := range own[obj] {
				inside = inside || (s.pos <= id.Pos() && id.Pos() < s.end)
			}
			if !inside {
				referenced[obj] = true
			}
		}
	}
	for obj, p := range owner {
		if referenced[obj] {
			continue
		}
		name := obj.Name()
		if fn, ok := obj.(*types.Func); ok {
			named := recvNamed(fn)
			if named != nil && ifaceMethods[name] {
				continue
			}
			if named != nil {
				name = named.Obj().Name() + "." + name
			}
		}
		add(1, p, name, obj.Pos())
	}

	// Rule 2.
	read, exempt := map[token.Pos]bool{}, map[token.Pos]bool{}
	for _, p := range pkgs {
		for _, tv := range p.info.Types {
			if tv.Type == nil {
				continue
			}
			if m, ok := tv.Type.Underlying().(*types.Map); ok {
				exemptFields(m.Key(), exempt)
			}
		}
		written := map[*ast.Ident]bool{}
		wrote := func(e ast.Expr) {
			if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
				written[sel.Sel] = true
			}
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						wrote(lhs)
					}
				case *ast.IncDecStmt:
					wrote(n.X)
				case *ast.KeyValueExpr:
					if id, ok := n.Key.(*ast.Ident); ok {
						written[id] = true
					}
				case *ast.BinaryExpr:
					if n.Op == token.EQL || n.Op == token.NEQ {
						exemptFields(p.info.Types[n.X].Type, exempt)
					}
				}
				return true
			})
		}
		for id, obj := range p.info.Uses {
			if v, ok := obj.(*types.Var); ok && v.IsField() && !written[id] {
				read[v.Origin().Pos()] = true
			}
		}
	}
	for _, p := range pkgs {
		if p.test || !inScope(p) {
			continue
		}
		for _, f := range p.files {
			names := structNames(f)
			ast.Inspect(f, func(n ast.Node) bool {
				st, ok := n.(*ast.StructType)
				if !ok {
					return true
				}
				owner := names[st]
				if owner == "" {
					pos := fset.Position(st.Pos())
					owner = fmt.Sprintf("struct@%s:%d", filepath.Base(pos.Filename), pos.Line)
				}
				for _, fld := range st.Fields.List {
					if fld.Tag != nil {
						continue
					}
					for _, id := range fld.Names {
						if id.Name == "_" || read[id.Pos()] || exempt[id.Pos()] {
							continue
						}
						add(2, p, owner+"."+id.Name, id.Pos())
					}
				}
				return true
			})
		}
	}
	sort.Slice(fs, func(i, j int) bool { return fs[i].name < fs[j].name })
	return fs
}

// recvNamed returns the named type a method is declared on, or nil for a
// function.
func recvNamed(obj types.Object) *types.Named {
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// exemptFields marks every field that comparing or hashing a value of type
// t reads, through nested structs and arrays.
func exemptFields(t types.Type, exempt map[token.Pos]bool) {
	if t == nil {
		return
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			f := u.Field(i)
			if exempt[f.Pos()] {
				continue
			}
			exempt[f.Pos()] = true
			exemptFields(f.Type(), exempt)
		}
	case *types.Array:
		exemptFields(u.Elem(), exempt)
	}
}

// structNames names each struct type declared in f by its type and, for a
// struct nested in a field's type, the field's path.
func structNames(f *ast.File) map[*ast.StructType]string {
	names := map[*ast.StructType]string{}
	var walk func(prefix string, e ast.Expr)
	walk = func(prefix string, e ast.Expr) {
		ast.Inspect(e, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			names[st] = prefix
			for _, fld := range st.Fields.List {
				for _, id := range fld.Names {
					walk(prefix+"."+id.Name, fld.Type)
				}
			}
			return false
		})
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if ts, ok := n.(*ast.TypeSpec); ok {
			walk(ts.Name.Name, ts.Type)
		}
		return true
	})
	return names
}
