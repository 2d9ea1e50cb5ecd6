package synchcount

import (
	"go/ast"
	"sort"
	"strings"
	"testing"
)

// TestFacadeExportsHaveCallers keeps the facade to one spelling per
// capability. Every exported identifier of the root package must be
// used by a caller — the examples and the integration tests (one
// external test package) or the command — or be named in the signature
// of an export that is; the package's own internal tests do not count.
// A function that only forwards to a method of its own parameter is a
// second spelling of that method and is rejected even when it has
// callers.
func TestFacadeExportsHaveCallers(t *testing.T) {
	const modPath = "github.com/synchcount/synchcount"
	c := newCensus(".", modPath)
	facade := c.load(t, modPath)
	tests, err := c.check(modPath+"_test", []string{"example_test.go", "integration_test.go"})
	if err != nil {
		t.Fatal(err)
	}
	c.addCallers(tests)
	c.addCallers(c.load(t, modPath+"/cmd/synchcount"))

	var offenders []string
	for _, name := range c.unreachedExports([]*censusPackage{facade}) {
		offenders = append(offenders, strings.TrimPrefix(name, modPath+".")+" (no caller)")
	}
	for _, f := range facade.files {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Recv != nil || !fn.Name.IsExported() {
				continue
			}
			if m := forwardsToParamMethod(fn); m != "" {
				offenders = append(offenders, fn.Name.Name+" (second spelling of "+m+")")
			}
		}
	}
	sort.Strings(offenders)
	if len(offenders) > 0 {
		t.Errorf("%d facade exports do not earn their place:\n  %s",
			len(offenders), strings.Join(offenders, "\n  "))
	}
}

// forwardsToParamMethod returns "param.Method" when fn's body is a
// single return of a method call on one of fn's own parameters, and ""
// otherwise.
func forwardsToParamMethod(fn *ast.FuncDecl) string {
	if fn.Body == nil || len(fn.Body.List) != 1 {
		return ""
	}
	ret, ok := fn.Body.List[0].(*ast.ReturnStmt)
	if !ok || len(ret.Results) != 1 {
		return ""
	}
	call, ok := ret.Results[0].(*ast.CallExpr)
	if !ok {
		return ""
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	recv, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	for _, field := range fn.Type.Params.List {
		for _, p := range field.Names {
			if p.Name == recv.Name {
				return recv.Name + "." + sel.Sel.Name
			}
		}
	}
	return ""
}
