package dsd_test

import (
	"bytes"
	"flag"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// updateAPIBaseline rewrites the golden API surface instead of checking
// it: `make api` (go test -run TestAPIStability . -args -update).
var updateAPIBaseline = flag.Bool("update", false, "rewrite api/dsd.txt from the current exported surface")

const apiBaselinePath = "api/dsd.txt"

// TestAPIStability is the API gate of package dsd: its exported surface
// is snapshotted in api/dsd.txt, and a PR that changes a signature, drops
// a symbol, or adds one must refresh the baseline explicitly (`make api`)
// so the change is visible in review instead of silently breaking
// callers.
func TestAPIStability(t *testing.T) {
	got := apiSurface(t)
	if *updateAPIBaseline {
		if err := os.MkdirAll(filepath.Dir(apiBaselinePath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(apiBaselinePath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", apiBaselinePath)
		return
	}
	want, err := os.ReadFile(apiBaselinePath)
	if err != nil {
		t.Fatalf("missing API baseline (run `make api` to create it): %v", err)
	}
	if got == string(want) {
		return
	}
	// Report the first differing line so the drift is findable.
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("exported API surface drifted from %s at line %d:\n  baseline: %q\n  current:  %q\n"+
				"If the change is intentional, refresh the baseline with `make api`.",
				apiBaselinePath, i+1, w, g)
		}
	}
	t.Fatalf("exported API surface drifted from %s (lengths %d vs %d); refresh with `make api`",
		apiBaselinePath, len(want), len(got))
}

// apiSurface renders the exported declarations of package dsd (the
// package in the current directory) as a sorted, comment-free listing:
// funcs and methods without bodies, types with unexported struct fields
// elided, exported consts and vars. Sorting makes the baseline
// insensitive to moving declarations between files.
func apiSurface(t *testing.T) string {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	pkg, ok := pkgs["dsd"]
	if !ok {
		t.Fatalf("package dsd not found in .; got %v", pkgs)
	}

	var decls []string
	render := func(node any) string {
		var buf bytes.Buffer
		if err := printer.Fprint(&buf, fset, node); err != nil {
			t.Fatal(err)
		}
		// Collapse the blank lines left by stripped doc comments so that
		// commenting a field cannot churn the baseline.
		out := buf.String()
		for strings.Contains(out, "\n\n") {
			out = strings.ReplaceAll(out, "\n\n", "\n")
		}
		return out
	}
	for _, file := range pkg.Files {
		for _, d := range file.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() || !exportedRecv(d) {
					continue
				}
				fn := *d
				fn.Doc, fn.Body = nil, nil
				decls = append(decls, render(&fn))
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						if !sp.Name.IsExported() {
							continue
						}
						cp := *sp
						cp.Doc, cp.Comment = nil, nil
						stripUnexportedFields(&cp)
						kw := "type"
						decls = append(decls, kw+" "+render(&cp))
					case *ast.ValueSpec:
						if !anyExported(sp.Names) {
							continue
						}
						cp := *sp
						cp.Doc, cp.Comment = nil, nil
						kw := "const"
						if d.Tok == token.VAR {
							kw = "var"
						}
						decls = append(decls, kw+" "+render(&cp))
					}
				}
			}
		}
	}
	sort.Strings(decls)
	return strings.Join(decls, "\n") + "\n"
}

// exportedRecv reports whether a method's receiver type is exported
// (free functions trivially qualify).
func exportedRecv(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	t := d.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	id, ok := t.(*ast.Ident)
	return ok && id.IsExported()
}

// stripUnexportedFields elides unexported struct fields (and all field
// docs) so internals never leak into — or churn — the baseline.
func stripUnexportedFields(sp *ast.TypeSpec) {
	st, ok := sp.Type.(*ast.StructType)
	if !ok || st.Fields == nil {
		return
	}
	cp := *st
	fields := &ast.FieldList{}
	for _, f := range st.Fields.List {
		if !anyExported(f.Names) {
			continue
		}
		fc := *f
		fc.Doc, fc.Comment = nil, nil
		fields.List = append(fields.List, &fc)
	}
	cp.Fields = fields
	sp.Type = &cp
}

func anyExported(names []*ast.Ident) bool {
	for _, n := range names {
		if n.IsExported() {
			return true
		}
	}
	return false
}
