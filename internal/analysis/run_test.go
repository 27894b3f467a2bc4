package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestStaleDirectives runs two analyzers over testdata/stale: "calls"
// reports every call to flagged, "elsewhere" is filtered off the package.
// The directive that silences the flagged call is live and produces
// nothing; each of the other three silences nothing and is reported on
// its own line, with the reason it is stale.
func TestStaleDirectives(t *testing.T) {
	path := filepath.Join("testdata", "stale", "stale.go")
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := newInfo()
	tpkg, err := (&types.Config{}).Check("stale", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	calls := &Analyzer{Name: "calls", Run: func(p *Pass) error {
		ast.Inspect(p.Files[0], func(n ast.Node) bool {
			if c, ok := n.(*ast.CallExpr); ok {
				if id, ok := c.Fun.(*ast.Ident); ok && id.Name == "flagged" {
					p.Reportf(c.Pos(), "call to flagged")
				}
			}
			return true
		})
		return nil
	}}
	elsewhere := &Analyzer{Name: "elsewhere", Filter: func(string) bool { return false }, Run: func(*Pass) error { return nil }}
	pkg := &Package{Path: "stale", Fset: fset, Files: []*ast.File{f}, Types: tpkg, Info: info}
	findings, err := RunAnalyzers([]*Package{pkg}, []*Analyzer{calls, elsewhere})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(src), "\n")
	want := map[string]string{ // directive reason prefix → finding
		"stale:":    "directive continulint:calls suppresses no finding; delete it",
		"filtered:": "directive continulint:elsewhere suppresses nothing: elsewhere does not run on stale",
		"unknown:":  "directive continulint:nosuch names no registered analyzer",
	}
	for _, fd := range findings {
		line := lines[fd.Pos.Line-1]
		matched := false
		for marker, msg := range want {
			if strings.Contains(line, marker) && fd.Message == msg {
				delete(want, marker)
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding %s on %q", fd, strings.TrimSpace(line))
		}
	}
	for marker, msg := range want {
		t.Errorf("no finding %q on the directive marked %q", msg, marker)
	}
}
