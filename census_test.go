package synchcount

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// exportCensus records, for the exported top-level names of a set of
// packages, which ones a set of caller files reaches. A name is reached
// when a caller spells it pkg.Name, or when it appears in the signature
// of a reached name of its own package: a function's parameters and
// results, a type's definition (exported fields only) and the
// signatures of its exported methods, a variable's or constant's
// declared type. Methods and fields are not themselves counted.
type exportCensus struct {
	fset *token.FileSet
	pkgs map[string]*censusPackage // by import path
}

type censusPackage struct {
	exports map[string][]ast.Node // name -> the nodes that make up its signature
	funcs   map[string]*ast.FuncDecl
	used    map[string]bool
}

// newExportCensus parses the non-test files of each package directory
// (relative to root) and records its exported top-level names; the
// import path of dir is modPath/dir, or modPath for ".".
func newExportCensus(t *testing.T, root, modPath string, dirs []string) *exportCensus {
	t.Helper()
	c := &exportCensus{fset: token.NewFileSet(), pkgs: map[string]*censusPackage{}}
	for _, dir := range dirs {
		p := &censusPackage{exports: map[string][]ast.Node{}, funcs: map[string]*ast.FuncDecl{}, used: map[string]bool{}}
		methods := map[string][]ast.Node{}
		for _, path := range goFiles(t, filepath.Join(root, dir), false) {
			f, err := parser.ParseFile(c.fset, path, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if !d.Name.IsExported() {
						continue
					}
					if d.Recv == nil {
						p.exports[d.Name.Name] = append(p.exports[d.Name.Name], d.Type)
						p.funcs[d.Name.Name] = d
					} else if recv := receiverType(d); recv != "" {
						methods[recv] = append(methods[recv], d.Type)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							if s.Name.IsExported() {
								p.exports[s.Name.Name] = append(p.exports[s.Name.Name], s)
							}
						case *ast.ValueSpec:
							for _, n := range s.Names {
								if n.IsExported() {
									p.exports[n.Name] = append(p.exports[n.Name], s.Type)
								}
							}
						}
					}
				}
			}
		}
		for recv, sigs := range methods {
			if _, ok := p.exports[recv]; ok {
				p.exports[recv] = append(p.exports[recv], sigs...)
			}
		}
		path := modPath
		if dir != "." {
			path = modPath + "/" + filepath.ToSlash(dir)
		}
		c.pkgs[path] = p
	}
	return c
}

// receiverType names a method's receiver base type.
func receiverType(fn *ast.FuncDecl) string {
	expr := fn.Recv.List[0].Type
	if star, ok := expr.(*ast.StarExpr); ok {
		expr = star.X
	}
	switch e := expr.(type) {
	case *ast.IndexExpr:
		expr = e.X
	case *ast.IndexListExpr:
		expr = e.X
	}
	if id, ok := expr.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// addCallers marks every pkg.Name spelled by the given files.
func (c *exportCensus) addCallers(t *testing.T, files []string) {
	t.Helper()
	for _, path := range files {
		f, err := parser.ParseFile(c.fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		local := map[string]*censusPackage{}
		for _, imp := range f.Imports {
			ipath, _ := strconv.Unquote(imp.Path.Value)
			p, ok := c.pkgs[ipath]
			if !ok {
				continue
			}
			name := ipath[strings.LastIndex(ipath, "/")+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			local[name] = p
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok {
					if p := local[x.Name]; p != nil {
						p.used[sel.Sel.Name] = true
					}
				}
			}
			return true
		})
	}
}

// offenders closes each package's used set over signatures and returns
// its unreached exports, as "importpath.Name", sorted.
func (c *exportCensus) offenders() []string {
	var out []string
	for path, p := range c.pkgs {
		for changed := true; changed; {
			changed = false
			for name, sigs := range p.exports {
				if !p.used[name] {
					continue
				}
				for _, sig := range sigs {
					if sig != nil && markSignature(p, sig) {
						changed = true
					}
				}
			}
		}
		for name := range p.exports {
			if !p.used[name] {
				out = append(out, path+"."+name)
			}
		}
	}
	sort.Strings(out)
	return out
}

// markSignature marks the package's exports named in sig and reports
// whether any was new. Unexported struct fields and interface methods
// are not part of a type's signature.
func markSignature(p *censusPackage, sig ast.Node) bool {
	changed := false
	var visit func(ast.Node) bool
	visit = func(n ast.Node) bool {
		var members *ast.FieldList
		switch n := n.(type) {
		case *ast.StructType:
			members = n.Fields
		case *ast.InterfaceType:
			members = n.Methods
		case *ast.SelectorExpr:
			return false // another package's name
		case *ast.Ident:
			if _, ok := p.exports[n.Name]; ok && !p.used[n.Name] {
				p.used[n.Name] = true
				changed = true
			}
			return true
		default:
			return true
		}
		for _, field := range members.List {
			if len(field.Names) == 0 || field.Names[0].IsExported() {
				ast.Inspect(field.Type, visit)
			}
		}
		return false
	}
	ast.Inspect(sig, visit)
	return changed
}

// goFiles lists the .go files directly in dir, or under it when
// recursive (skipping testdata trees); test files are left out.
func goFiles(t *testing.T, dir string, recursive bool) []string {
	t.Helper()
	var files []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != dir && (!recursive || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// packageDirs lists, relative to root, the directories under sub that
// hold non-test Go files.
func packageDirs(t *testing.T, root, sub string) []string {
	t.Helper()
	seen := map[string]bool{}
	var dirs []string
	for _, f := range goFiles(t, filepath.Join(root, sub), true) {
		rel, err := filepath.Rel(root, filepath.Dir(f))
		if err != nil {
			t.Fatal(err)
		}
		if !seen[rel] {
			seen[rel] = true
			dirs = append(dirs, rel)
		}
	}
	sort.Strings(dirs)
	return dirs
}

// internalCensus applies the internal rule to the module at root:
// every exported top-level name of a package under internal/ (skipping
// the listed test-support packages) must be reached from a production
// file outside its package, that is a non-test file of the root, cmd/,
// bench/ or another internal package.
func internalCensus(t *testing.T, root, modPath string, skip ...string) *exportCensus {
	t.Helper()
	var dirs []string
	for _, dir := range packageDirs(t, root, "internal") {
		if !slices.Contains(skip, filepath.ToSlash(dir)) {
			dirs = append(dirs, dir)
		}
	}
	c := newExportCensus(t, root, modPath, dirs)
	callers := goFiles(t, root, false)
	for _, sub := range []string{"cmd", "bench", "internal"} {
		if _, err := os.Stat(filepath.Join(root, sub)); err == nil {
			callers = append(callers, goFiles(t, filepath.Join(root, sub), true)...)
		}
	}
	c.addCallers(t, callers)
	return c
}

// TestInternalExportsHaveCallers keeps every internal package to the
// API its callers use. The test-support packages are skipped: only
// _test.go files import them, by design.
func TestInternalExportsHaveCallers(t *testing.T) {
	c := internalCensus(t, ".", "github.com/synchcount/synchcount",
		"internal/alg/algtest", "internal/registry/registrytest")
	offenders := c.offenders()
	total := 0
	for _, p := range c.pkgs {
		total += len(p.exports)
	}
	t.Logf("%d internal exports, %d without a caller", total, len(offenders))
	if len(offenders) > 0 {
		t.Errorf("%d of %d internal exports have no production caller outside their package "+
			"(unexport them, or move test-only code into _test.go files):\n  %s",
			len(offenders), total, strings.Join(offenders, "\n  "))
	}
}

// TestExportCensusFixture pins the census on a planted tree: an export
// with no caller is flagged, a type reached only through a called
// function's signature is accepted (but not one named only by an
// unexported field), cmd/ and bench/ non-test callers count, under an
// import alias too, and _test.go callers do not.
func TestExportCensusFixture(t *testing.T) {
	got := internalCensus(t, filepath.Join("testdata", "exportcensus"), "example.com/fixture").offenders()
	want := []string{
		"example.com/fixture/internal/lib.OnlyTested",
		"example.com/fixture/internal/lib.Planted",
		"example.com/fixture/internal/lib.Unreached",
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("offenders = %q, want %q", got, want)
	}
}
