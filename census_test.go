package synchcount

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// The census type-checks a module's packages from source (go/types,
// standard library only) and records which of their declarations the
// production code reaches. It knows two rules:
//
//   - an exported package-level name is reached when a caller outside
//     its package uses it, or when it appears in the signature of a
//     reached name of its own package: a function's parameters and
//     results, a type's definition (exported fields and interface
//     methods only) and the signatures of its exported methods, a
//     variable's or constant's type;
//   - a function, method, interface method or struct field is reached
//     when a caller uses it outside the function's own body (an
//     unkeyed struct literal uses all its fields), and a method also
//     when it implements a method of an interface declared in the
//     module, in a package it imports, or in the universe (error).

// censusFset and censusStd are shared by every census of the test
// binary, so each standard package is type-checked once.
var (
	censusFset = token.NewFileSet()
	censusStd  = importer.ForCompiler(censusFset, "source", nil)
)

type census struct {
	root, modPath string
	pkgs          map[string]*censusPackage // production packages of the module, by import path
	uses          map[types.Object][]censusUse
}

type censusPackage struct {
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// censusUse is one caller's use of an object: the using package and
// the position of the use.
type censusUse struct {
	pkg *types.Package
	pos token.Pos
}

func newCensus(root, modPath string) *census {
	return &census{root: root, modPath: modPath, pkgs: map[string]*censusPackage{}, uses: map[types.Object][]censusUse{}}
}

// Import resolves the module's packages from their non-test files
// under root and the rest from the standard library's source.
func (c *census) Import(path string) (*types.Package, error) {
	rel, ok := strings.CutPrefix(path, c.modPath)
	if !ok || rel != "" && rel[0] != '/' {
		return censusStd.Import(path)
	}
	if p, ok := c.pkgs[path]; ok {
		if p == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return p.types, nil
	}
	c.pkgs[path] = nil
	dir := filepath.Join(c.root, filepath.FromSlash(strings.TrimPrefix(rel, "/")))
	files, err := goFiles(dir, false)
	if err != nil {
		return nil, err
	}
	p, err := c.check(path, files)
	if err != nil {
		return nil, err
	}
	c.pkgs[path] = p
	return p.types, nil
}

// load type-checks the module package at path.
func (c *census) load(t *testing.T, path string) *censusPackage {
	t.Helper()
	if _, err := c.Import(path); err != nil {
		t.Fatal(err)
	}
	return c.pkgs[path]
}

// check parses and type-checks files as one package.
func (c *census) check(path string, files []string) (*censusPackage, error) {
	p := &censusPackage{info: &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}}
	for _, path := range files {
		f, err := parser.ParseFile(censusFset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: c}
	var err error
	p.types, err = conf.Check(path, censusFset, p.files, p.info)
	return p, err
}

// addCallers records every use the package's files make.
func (c *census) addCallers(p *censusPackage) {
	for id, obj := range p.info.Uses {
		c.use(obj, p.types, id.Pos())
	}
	for _, f := range p.files {
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok || len(lit.Elts) == 0 {
				return true
			}
			if _, keyed := lit.Elts[0].(*ast.KeyValueExpr); keyed {
				return true
			}
			typ := p.info.TypeOf(lit)
			if ptr, ok := typ.(*types.Pointer); ok {
				typ = ptr.Elem()
			}
			if s, ok := typ.Underlying().(*types.Struct); ok {
				for i := 0; i < s.NumFields(); i++ {
					c.use(s.Field(i), p.types, lit.Pos())
				}
			}
			return true
		})
	}
}

func (c *census) use(obj types.Object, pkg *types.Package, pos token.Pos) {
	switch o := obj.(type) {
	case *types.Func:
		obj = o.Origin()
	case *types.Var:
		obj = o.Origin()
	}
	c.uses[obj] = append(c.uses[obj], censusUse{pkg, pos})
}

// unreachedExports returns the exported package-level names of pkgs
// that no caller outside their package reaches, directly or through a
// reached signature, as "importpath.Name".
func (c *census) unreachedExports(pkgs []*censusPackage) []string {
	reached := map[types.Object]bool{}
	var queue []types.Object
	mark := func(obj types.Object) {
		if !reached[obj] {
			reached[obj] = true
			queue = append(queue, obj)
		}
	}
	var exports []types.Object
	aliases := map[*types.TypeName][]types.Object{} // a named type's aliases among the exports
	for _, p := range pkgs {
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() {
				continue
			}
			exports = append(exports, obj)
			if tn, ok := obj.(*types.TypeName); ok && tn.IsAlias() {
				if named, ok := types.Unalias(tn.Type()).(*types.Named); ok {
					aliases[named.Obj()] = append(aliases[named.Obj()], tn)
				}
			}
			for _, u := range c.uses[obj] {
				if u.pkg != obj.Pkg() {
					mark(obj)
				}
			}
		}
	}
	markNamed := func(tn *types.TypeName) {
		if tn.Exported() && tn.Pkg() != nil && tn.Parent() == tn.Pkg().Scope() {
			mark(tn)
		}
		for _, alias := range aliases[tn] {
			mark(alias)
		}
	}
	for len(queue) > 0 {
		obj := queue[0]
		queue = queue[1:]
		if _, ok := obj.(*types.TypeName); !ok {
			signatureNames(obj.Type(), markNamed)
			continue
		}
		named, ok := obj.Type().(*types.Named)
		if !ok {
			signatureNames(types.Unalias(obj.Type()), markNamed)
			continue
		}
		signatureNames(named.Underlying(), markNamed)
		for i := 0; i < named.NumMethods(); i++ {
			if m := named.Method(i); m.Exported() {
				signatureNames(m.Type(), markNamed)
			}
		}
	}
	var out []string
	for _, obj := range exports {
		if !reached[obj] {
			out = append(out, obj.Pkg().Path()+"."+obj.Name())
		}
	}
	return out
}

// signatureNames calls mark for each named type that t spells. It does
// not descend into a named type's definition, and skips unexported
// struct fields and interface methods.
func signatureNames(t types.Type, mark func(*types.TypeName)) {
	switch t := t.(type) {
	case *types.Named:
		mark(t.Obj())
		for i := 0; i < t.TypeArgs().Len(); i++ {
			signatureNames(t.TypeArgs().At(i), mark)
		}
	case *types.Alias:
		mark(t.Obj())
	case *types.Pointer:
		signatureNames(t.Elem(), mark)
	case *types.Slice:
		signatureNames(t.Elem(), mark)
	case *types.Array:
		signatureNames(t.Elem(), mark)
	case *types.Chan:
		signatureNames(t.Elem(), mark)
	case *types.Map:
		signatureNames(t.Key(), mark)
		signatureNames(t.Elem(), mark)
	case *types.Signature:
		signatureNames(t.Params(), mark)
		signatureNames(t.Results(), mark)
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			signatureNames(t.At(i).Type(), mark)
		}
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if f := t.Field(i); f.Exported() {
				signatureNames(f.Type(), mark)
			}
		}
	case *types.Interface:
		for i := 0; i < t.NumEmbeddeds(); i++ {
			signatureNames(t.EmbeddedType(i), mark)
		}
		for i := 0; i < t.NumExplicitMethods(); i++ {
			if m := t.ExplicitMethod(i); m.Exported() {
				signatureNames(m.Type(), mark)
			}
		}
	}
}

// unreachedMembers returns the functions, methods, interface methods
// and named struct fields declared in pkgs that no caller reaches, as
// "importpath.Name", "importpath.Type.Method" or
// "importpath.Owner.member" (the owner of a member is its enclosing
// type, or function for a local type).
func (c *census) unreachedMembers(pkgs []*censusPackage) []string {
	ifaces := c.interfacesByMethod()
	var out []string
	for _, p := range pkgs {
		prefix := p.types.Path() + "."
		for _, f := range p.files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					fn := p.info.Defs[d.Name].(*types.Func)
					if d.Recv == nil && (fn.Name() == "init" || fn.Name() == "main") || fn.Name() == "_" {
						continue
					}
					if !c.usedOutside(fn, d) && !implementsInterface(fn, ifaces) {
						out = append(out, prefix+qualifiedName(fn))
					}
					if d.Body != nil {
						out = append(out, c.unreachedTypeMembers(p, d.Body, prefix+d.Name.Name+".")...)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						if s, ok := spec.(*ast.TypeSpec); ok {
							out = append(out, c.unreachedTypeMembers(p, s.Type, prefix+s.Name.Name+".")...)
						}
					}
				}
			}
		}
	}
	return out
}

// unreachedTypeMembers lists the named fields of the struct types, and the
// methods of the interface types, under n that no caller uses,
// prefixed with their owner.
func (c *census) unreachedTypeMembers(p *censusPackage, n ast.Node, owner string) []string {
	var out []string
	ast.Inspect(n, func(n ast.Node) bool {
		var members *ast.FieldList
		switch n := n.(type) {
		case *ast.StructType:
			members = n.Fields
		case *ast.InterfaceType:
			members = n.Methods
		default:
			return true
		}
		for _, field := range members.List {
			for _, name := range field.Names {
				if obj := p.info.Defs[name]; name.Name != "_" && len(c.uses[obj]) == 0 {
					out = append(out, owner+name.Name)
				}
			}
		}
		return true
	})
	return out
}

// usedOutside reports whether a caller uses fn outside its declaration.
func (c *census) usedOutside(fn *types.Func, decl *ast.FuncDecl) bool {
	for _, u := range c.uses[fn] {
		if u.pos < decl.Pos() || u.pos >= decl.End() {
			return true
		}
	}
	return false
}

// interfacesByMethod indexes, by method name, the interfaces a method
// may implement: error, every non-generic interface type declared in
// the loaded packages or a package they import, and every interface
// literal they spell.
func (c *census) interfacesByMethod() map[string][]*types.Interface {
	byMethod := map[string][]*types.Interface{}
	add := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok || !it.IsMethodSet() {
			return
		}
		for i := 0; i < it.NumMethods(); i++ {
			name := it.Method(i).Name()
			byMethod[name] = append(byMethod[name], it)
		}
	}
	add(types.Universe.Lookup("error").Type())
	seen := map[*types.Package]bool{}
	var visit func(*types.Package)
	visit = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if named, ok := tn.Type().(*types.Named); !ok || named.TypeParams().Len() == 0 {
					add(tn.Type())
				}
			}
		}
		for _, imp := range pkg.Imports() {
			visit(imp)
		}
	}
	for _, p := range c.pkgs {
		visit(p.types)
		for _, tv := range p.info.Types {
			if it, ok := tv.Type.(*types.Interface); ok {
				add(it)
			}
		}
	}
	return byMethod
}

// implementsInterface reports whether method fn belongs to the method
// set, on its receiver's pointer type, of some interface of ifaces that
// has a method of fn's name. Signatures are compared without
// receivers, so a generic receiver type qualifies whenever the
// interface's methods do not depend on its type parameters.
func implementsInterface(fn *types.Func, ifaces map[string][]*types.Interface) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	typ := recv.Type()
	if ptr, ok := typ.(*types.Pointer); ok {
		typ = ptr.Elem()
	}
	mset := types.NewMethodSet(types.NewPointer(typ))
next:
	for _, it := range ifaces[fn.Name()] {
		for i := 0; i < it.NumMethods(); i++ {
			m := it.Method(i)
			sel := mset.Lookup(m.Pkg(), m.Name())
			if sel == nil || !types.Identical(sel.Obj().Type(), m.Type()) {
				continue next
			}
		}
		return true
	}
	return false
}

// qualifiedName spells a function as Name and a method as Type.Name.
func qualifiedName(fn *types.Func) string {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return fn.Name()
	}
	typ := recv.Type()
	if ptr, ok := typ.(*types.Pointer); ok {
		typ = ptr.Elem()
	}
	if named, ok := typ.(*types.Named); ok {
		return named.Obj().Name() + "." + fn.Name()
	}
	return fn.Name()
}

// goFiles lists the .go files directly in dir, or under it when
// recursive (skipping testdata trees), that build here; test files are
// left out.
func goFiles(dir string, recursive bool) ([]string, error) {
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
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(filepath.Dir(path), d.Name()); err != nil || !ok {
			return err
		}
		files = append(files, path)
		return nil
	})
	return files, err
}

// moduleCensus loads every production package of the module at root:
// the root package and the packages under cmd/, bench/ and internal/.
// All of them are callers; it returns the internal packages, less the
// listed test-support ones.
func moduleCensus(t *testing.T, root, modPath string, skip ...string) (*census, []*censusPackage) {
	t.Helper()
	files, err := goFiles(root, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, sub := range []string{"cmd", "bench", "internal"} {
		if _, err := os.Stat(filepath.Join(root, sub)); err != nil {
			continue
		}
		more, err := goFiles(filepath.Join(root, sub), true)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, more...)
	}
	var dirs []string
	for _, f := range files {
		rel, err := filepath.Rel(root, filepath.Dir(f))
		if err != nil {
			t.Fatal(err)
		}
		if rel = filepath.ToSlash(rel); !slices.Contains(dirs, rel) {
			dirs = append(dirs, rel)
		}
	}
	c := newCensus(root, modPath)
	var internal []*censusPackage
	for _, dir := range dirs {
		path := modPath
		if dir != "." {
			path += "/" + dir
		}
		p := c.load(t, path)
		c.addCallers(p)
		if strings.HasPrefix(dir, "internal/") && !slices.Contains(skip, dir) {
			internal = append(internal, p)
		}
	}
	return c, internal
}

// internalOffenders applies both rules to the internal packages of the
// module at root, with every production package as a caller.
func internalOffenders(t *testing.T, root, modPath string, skip ...string) []string {
	t.Helper()
	c, internal := moduleCensus(t, root, modPath, skip...)
	out := append(c.unreachedExports(internal), c.unreachedMembers(internal)...)
	sort.Strings(out)
	return slices.Compact(out)
}

// TestInternalExportsHaveCallers keeps every internal package to the
// code its production callers use. The test-support packages are
// skipped: only _test.go files import them, by design.
func TestInternalExportsHaveCallers(t *testing.T) {
	offenders := internalOffenders(t, ".", "github.com/synchcount/synchcount",
		"internal/alg/algtest", "internal/registry/registrytest")
	if len(offenders) > 0 {
		t.Errorf("%d internal declarations have no production caller "+
			"(delete them, unexport them, or move test-only code into _test.go files):\n  %s",
			len(offenders), strings.Join(offenders, "\n  "))
	}
}

// TestExportCensusFixture pins the census on a planted tree: an export
// with no caller is flagged, a type reached only through a called
// function's signature is accepted (but not one named only by an
// unexported field), cmd/ and bench/ non-test callers count, under an
// import alias too, and _test.go callers do not. Among members, a
// method with no caller, a method only a _test.go file calls and a
// field or interface method nothing names are flagged; a method
// reached only through a module interface and a Set satisfying
// flag.Value are accepted.
func TestExportCensusFixture(t *testing.T) {
	got := internalOffenders(t, filepath.Join("testdata", "exportcensus"), "example.com/fixture")
	want := []string{
		"example.com/fixture/internal/lib.OnlyTested",
		"example.com/fixture/internal/lib.Planted",
		"example.com/fixture/internal/lib.Reached.dropped",
		"example.com/fixture/internal/lib.Shape.Sides",
		"example.com/fixture/internal/lib.Square.Orphan",
		"example.com/fixture/internal/lib.Square.TestedOnly",
		"example.com/fixture/internal/lib.Unreached",
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("offenders = %q, want %q", got, want)
	}
}
