//go:build !race

// The scan is single-threaded and type-checks the whole tree (standard
// library included) from source, so the race detector adds nothing but a
// tenfold slowdown.

package securecloud_test

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// allowlistPath lists the exported internal/ identifiers that only tests
// reach on purpose, one "pkg.Name  reason" or "pkg.Type.Method  reason"
// per line.
const allowlistPath = "testdata/test_only_exports.txt"

// TestNoTestOnlyExports fails when an exported identifier of an internal/
// package has no referrer outside _test.go files and is not allowlisted,
// and when an allowlist entry is stale: the identifier gained a non-test
// referrer or no longer exists. Every non-test package of both modules is
// type-checked (benchmark/ included: it calls internal/ API the root
// module does not).
func TestNoTestOnlyExports(t *testing.T) {
	exports, err := scanTestOnlyExports(".")
	if err != nil {
		t.Fatal(err)
	}
	allowed, err := readAllowlist(allowlistPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range sortedKeys(exports.unused) {
		if _, ok := allowed[name]; !ok {
			t.Errorf("%s (%s) is exported but only tests reach it: delete it, unexport it, or allowlist it in %s with a reason",
				name, exports.unused[name], allowlistPath)
		}
	}
	for _, name := range sortedKeys(allowed) {
		switch {
		case !exports.all[name]:
			t.Errorf("%s: stale allowlist entry, the identifier no longer exists", name)
		case exports.unused[name] == "":
			t.Errorf("%s: stale allowlist entry, non-test code now references it", name)
		}
	}
}

// exportScan is the result of scanTestOnlyExports, keyed by
// "<package path under internal/>.<Name>" or "...<Type>.<Method>".
type exportScan struct {
	all    map[string]bool   // every exported internal/ identifier
	unused map[string]string // those with no non-test referrer → position
}

// scanTestOnlyExports type-checks every non-test package under root and
// reports the exported internal/ identifiers that no non-test code uses.
func scanTestOnlyExports(root string) (*exportScan, error) {
	l := &loader{
		fset:       token.NewFileSet(),
		dirs:       map[string]string{},
		pkgs:       map[string]*types.Package{},
		uses:       map[types.Object]bool{},
		ifaceCalls: map[string][]*types.Signature{},
	}
	l.std = importer.ForCompiler(l.fset, "source", nil)
	if err := l.findPackages(root); err != nil {
		return nil, err
	}
	for _, path := range sortedKeys(l.dirs) {
		if _, err := l.Import(path); err != nil {
			return nil, err
		}
	}
	scan := &exportScan{all: map[string]bool{}, unused: map[string]string{}}
	note := func(obj types.Object, name string) {
		scan.all[name] = true
		if !l.live(obj) {
			scan.unused[name] = l.fset.Position(obj.Pos()).String()
		}
	}
	for _, path := range sortedKeys(l.dirs) {
		rel, ok := strings.CutPrefix(path, "securecloud/internal/")
		if !ok {
			continue
		}
		scope := l.pkgs[path].Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() {
				note(obj, rel+"."+name)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() {
					note(m, rel+"."+name+"."+m.Name())
				}
			}
		}
	}
	return scan, nil
}

// loader type-checks the repository's packages from source, resolving
// module-local imports itself and the standard library through the
// "source" importer, and records every object non-test code uses.
type loader struct {
	fset *token.FileSet
	std  types.Importer
	dirs map[string]string // import path → directory
	pkgs map[string]*types.Package
	uses map[types.Object]bool
	// ifaceCalls maps the name of every method called through an
	// interface value to the signatures it was called with.
	ifaceCalls map[string][]*types.Signature
}

// findPackages maps every directory holding non-test Go files to its
// import path. A directory with its own go.mod starts a new module.
func (l *loader) findPackages(root string) error {
	modules := map[string]string{} // directory → module path
	return filepath.WalkDir(root, func(dir string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		base := d.Name()
		if dir != root && (strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_") || base == "testdata") {
			return filepath.SkipDir
		}
		modPath, modDir := "", ""
		if data, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil {
			modPath, modDir = modulePath(data), dir
			modules[dir] = modPath
		} else {
			for p := dir; ; p = filepath.Dir(p) {
				if m, ok := modules[p]; ok {
					modPath, modDir = m, p
					break
				}
				if p == "." || p == string(filepath.Separator) {
					return fmt.Errorf("%s: no enclosing go.mod", dir)
				}
			}
		}
		files, err := l.sourceFiles(dir)
		if err != nil || len(files) == 0 {
			return err
		}
		rel, err := filepath.Rel(modDir, dir)
		if err != nil {
			return err
		}
		l.dirs[path.Join(modPath, filepath.ToSlash(rel))] = dir
		return nil
	})
}

func modulePath(gomod []byte) string {
	for _, line := range strings.Split(string(gomod), "\n") {
		if m, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(m)
		}
	}
	return ""
}

// sourceFiles lists dir's non-test Go files that the default build
// context compiles.
func (l *loader) sourceFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil {
			return nil, err
		} else if ok {
			files = append(files, filepath.Join(dir, name))
		}
	}
	return files, nil
}

// Import type-checks a module-local package (once) and hands every other
// path to the standard-library importer.
func (l *loader) Import(path string) (*types.Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	pkgDir, ok := l.dirs[path]
	if !ok {
		return l.std.Import(path)
	}
	names, err := l.sourceFiles(pkgDir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", path, err)
	}
	l.pkgs[path] = pkg
	l.record(files, info)
	return pkg, nil
}

// record notes every object the files use, except a function's or
// method's references to itself and a method's receiver type.
func (l *loader) record(files []*ast.File, info *types.Info) {
	for sel, s := range info.Selections {
		if s.Kind() == types.MethodVal && types.IsInterface(s.Recv()) {
			name := sel.Sel.Name
			l.ifaceCalls[name] = append(l.ifaceCalls[name], s.Obj().Type().(*types.Signature))
		}
	}
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, _ := decl.(*ast.FuncDecl)
			ast.Inspect(decl, func(n ast.Node) bool {
				if fd != nil && n == fd.Recv {
					return false
				}
				id, ok := n.(*ast.Ident)
				if !ok || info.Uses[id] == nil {
					return true
				}
				obj := origin(info.Uses[id])
				if fd == nil || obj.Pos() != fd.Name.Pos() {
					l.uses[obj] = true
				}
				return true
			})
		}
	}
}

// origin maps an instantiated generic method or field to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// live reports whether non-test code reaches obj: by name, or — for a
// method — through an interface call of the same name and an identical
// signature (receiver aside), or as a String or Error method the fmt and
// errors packages call.
func (l *loader) live(obj types.Object) bool {
	if l.uses[obj] {
		return true
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil {
		return false
	}
	if name := fn.Name(); name == "String" || name == "Error" {
		return true
	}
	for _, called := range l.ifaceCalls[fn.Name()] {
		if types.Identical(sig, called) {
			return true
		}
	}
	return false
}

// readAllowlist parses the allowlist: "name reason", '#' comments and
// blank lines ignored. Every entry must carry a reason.
func readAllowlist(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("%s:%d: %s has no reason", path, n, name)
		}
		if _, dup := out[name]; dup {
			return nil, fmt.Errorf("%s:%d: %s listed twice", path, n, name)
		}
		out[name] = strings.TrimSpace(reason)
	}
	return out, sc.Err()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
