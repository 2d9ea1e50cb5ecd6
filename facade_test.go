package synchcount

import (
	"go/ast"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// facadeCallerFiles are the files whose synchcount.<Name> uses justify
// an export: the examples, the integration and benchmark tests, and the
// non-test files of the command.
func facadeCallerFiles(t *testing.T) []string {
	t.Helper()
	files := []string{"example_test.go", "integration_test.go", "bench_test.go"}
	cmd, err := filepath.Glob(filepath.Join("cmd", "synchcount", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range cmd {
		if !strings.HasSuffix(f, "_test.go") {
			files = append(files, f)
		}
	}
	return files
}

// TestFacadeExportsHaveCallers keeps the facade to one spelling per
// capability. Every exported identifier of synchcount.go must be used
// as synchcount.<Name> by a caller file, or be named in the signature
// of an export that is. A function that only forwards to a method of
// its own parameter is a second spelling of that method and is
// rejected even when it has callers.
func TestFacadeExportsHaveCallers(t *testing.T) {
	c := newExportCensus(t, ".", "github.com/synchcount/synchcount", []string{"."})
	c.addCallers(t, facadeCallerFiles(t))
	facade := c.pkgs["github.com/synchcount/synchcount"]

	var offenders []string
	for _, name := range c.offenders() {
		offenders = append(offenders, strings.TrimPrefix(name, "github.com/synchcount/synchcount.")+" (no caller)")
	}
	for name, fn := range facade.funcs {
		if m := forwardsToParamMethod(fn); m != "" && facade.used[name] {
			offenders = append(offenders, name+" (second spelling of "+m+")")
		}
	}
	sort.Strings(offenders)
	if len(offenders) > 0 {
		t.Errorf("%d of %d facade exports do not earn their place:\n  %s",
			len(offenders), len(facade.exports), strings.Join(offenders, "\n  "))
	}
}

// forwardsToParamMethod returns "param.Method" when fn's body is a
// single return of a method call on one of fn's own parameters, and ""
// otherwise (fn is nil for a non-function export).
func forwardsToParamMethod(fn *ast.FuncDecl) string {
	if fn == nil || fn.Body == nil || len(fn.Body.List) != 1 {
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
