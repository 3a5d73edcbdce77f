package repro

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/api"
)

// TestTreeInvariants holds the structural rules of the source tree that
// earlier rounds enforced with CI greps: it parses the root module with
// go/parser, so the rules run wherever `go test ./...` runs.
func TestTreeInvariants(t *testing.T) {
	fset := token.NewFileSet()
	files := map[string]*ast.File{} // slash path relative to the module root
	loc := 0                        // lines of the non-test ones, as `wc -l` counts them
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// Hidden directories, and bench/: a module of its own.
			if path != "." && (strings.HasPrefix(d.Name(), ".") || path == "bench") {
				return filepath.SkipDir
			}
			return nil
		}
		if filepath.Ext(path) != ".go" {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files[filepath.ToSlash(path)] = f
		if !strings.HasSuffix(path, "_test.go") {
			loc += bytes.Count(src, []byte("\n"))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	isTest := func(path string) bool { return strings.HasSuffix(path, "_test.go") }
	imports := func(f *ast.File, pkg string) bool {
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == pkg {
				return true
			}
		}
		return false
	}

	// The device model is linked only by what prices work on it: one file
	// per package that simulates, and the binaries that print the
	// simulation. Everything a daemon executes fans out through
	// internal/par.
	t.Run("hetero importers", func(t *testing.T) {
		want := []string{
			"cmd/bc/main.go",
			"examples/heterosim/main.go",
			"examples/socialnetwork/main.go",
			"internal/bc/sim.go",
			"internal/mcb/price.go",
		}
		var got []string
		for path, f := range files {
			if !isTest(path) && imports(f, "repro/internal/hetero") {
				got = append(got, path)
			}
		}
		sort.Strings(got)
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("non-test files importing internal/hetero:\n got  %v\n want %v", got, want)
		}
	})

	// One priority queue: every Dijkstra shares ds.IndexedHeap.
	t.Run("one heap", func(t *testing.T) {
		var heaps []string
		for path, f := range files {
			if isTest(path) || !strings.HasPrefix(path, "internal/ds/") {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if ts, ok := n.(*ast.TypeSpec); ok && strings.HasSuffix(ts.Name.Name, "Heap") {
					heaps = append(heaps, ts.Name.Name)
				}
				return true
			})
		}
		if len(heaps) != 1 {
			t.Errorf("heap types in internal/ds: %v, want exactly one", heaps)
		}
	})

	// The served relaxation loops read weights from the CSR beside the
	// neighbour (AdjWeight), never through the edge array.
	t.Run("kernels index no edges", func(t *testing.T) {
		for _, path := range []string{"internal/sssp/dijkstra.go", "internal/bc/brandes.go", "internal/bc/decomposed.go"} {
			f := files[path]
			if f == nil {
				t.Errorf("%s: not found", path)
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if ix, ok := n.(*ast.IndexExpr); ok {
					if id, ok := ix.X.(*ast.Ident); ok && id.Name == "edges" {
						t.Errorf("%s: edges[...] in a kernel file", fset.Position(ix.Pos()))
					}
				}
				return true
			})
		}
	})

	// The snapshot slice codecs move a slice in one step: inside their
	// loops there is no call back into the codec, element by element.
	t.Run("slice codecs", func(t *testing.T) {
		f := files["internal/snapshot/snapshot.go"]
		if f == nil {
			t.Fatal("internal/snapshot/snapshot.go: not found")
		}
		seen := 0
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || len(fn.Recv.List[0].Names) != 1 {
				continue
			}
			if name := fn.Name.Name; name != "I32s" && name != "F64s" && name != "F32s" {
				continue
			}
			seen++
			recv := fn.Recv.List[0].Names[0].Name
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				var body *ast.BlockStmt
				switch loop := n.(type) {
				case *ast.ForStmt:
					body = loop.Body
				case *ast.RangeStmt:
					body = loop.Body
				default:
					return true
				}
				ast.Inspect(body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
						if id, ok := sel.X.(*ast.Ident); ok && id.Name == recv {
							t.Errorf("%s: %s.%s called per element in %s", fset.Position(call.Pos()), recv, sel.Sel.Name, fn.Name.Name)
						}
					}
					return true
				})
				return false
			})
		}
		if seen != 6 {
			t.Errorf("found %d of the 6 Encoder/Decoder slice codecs (I32s, F64s, F32s)", seen)
		}
	})

	// Names deleted because nothing ran them, or because a second copy of
	// a mechanism went (one block-cut navigation, one batch scheduler, one
	// mux maker, one oracle assembly, one forest walk, one phase loop, the
	// oracle's tables as the only resident rows),
	// must not come back under the same name: a caller that needs one
	// should say why first. A name too common to ban bare is matched where
	// it would be used instead: as a selector or a call.
	t.Run("deleted names stay deleted", func(t *testing.T) {
		deleted := map[string]bool{}
		for _, name := range []string{
			"Dial", "IntegralWeights", "BiDijkstra", "DeltaStepping", "BFS", "FrontierSSSP", "IsTreeEdge",
			"BucketQueue", "NewBucketQueue", "ReadDevices", "LoadDevices", "WriteDevices",
			"AllPlatforms", "SimByPlatform", "PhaseByPlatform",
			"apGraph", "apEdgeBlock", "apPathExact", "decodeForest", "decodeBlocks", "reduceForAPSP", "HybridRun",
			"LegacyAlias", "legacySunset", "HedgeAfter", "attemptHedged",
			"buildCandidates", "vectorOf", "LimitsFromConfig", "RegistryLimits", "RegistryLimitsFromConfig",
			"scanWindowed", "scanSequential", "ChunkedList", "NewChunkedList", "BatchFrom",
			"rowCache", "rowArena", "rowBuf", "rowRef", "rowCall", "removeIf", "staleComponents", "CacheRows",
			"NewOracleSim", "NewEarAPSPSim", "PostProcessSim",
		} {
			deleted[name] = true
		}
		goneSelectors := map[string]bool{"qe.Sizer": true, "api.Patterns": true, "registry.Limits": true}
		goneCalls := map[string]bool{"deprecated": true}
		check := func(id *ast.Ident) {
			if id != nil && deleted[id.Name] {
				t.Errorf("%s: %s is declared again", fset.Position(id.Pos()), id.Name)
			}
		}
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch d := n.(type) {
				case *ast.FuncDecl:
					check(d.Name)
				case *ast.TypeSpec:
					check(d.Name)
				case *ast.ValueSpec:
					for _, id := range d.Names {
						check(id)
					}
				case *ast.Field: // struct fields and interface methods
					for _, id := range d.Names {
						check(id)
					}
				case *ast.SelectorExpr:
					if x, ok := d.X.(*ast.Ident); ok && goneSelectors[x.Name+"."+d.Sel.Name] {
						t.Errorf("%s: %s.%s is used again", fset.Position(d.Pos()), x.Name, d.Sel.Name)
					}
				case *ast.CallExpr:
					if id, ok := d.Fun.(*ast.Ident); ok && goneCalls[id.Name] {
						t.Errorf("%s: %s() is called again", fset.Position(d.Pos()), id.Name)
					}
				}
				return true
			})
		}
	})

	// calls reports where path calls pkg.name.
	calls := func(path, pkg, name string) (at []token.Position) {
		ast.Inspect(files[path], func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == name {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == pkg {
					at = append(at, fset.Position(sel.Pos()))
				}
			}
			return true
		})
		return at
	}

	// Every published file goes through snapshot.WriteFile (temp + fsync +
	// rename): nothing else renames.
	t.Run("one rename", func(t *testing.T) {
		for path := range files {
			if path == "internal/snapshot/file.go" {
				continue
			}
			for _, pos := range calls(path, "os", "Rename") {
				t.Errorf("%s: os.Rename outside internal/snapshot/file.go", pos)
			}
		}
		if len(calls("internal/snapshot/file.go", "os", "Rename")) == 0 {
			t.Error("internal/snapshot/file.go no longer renames: the rule guards nothing")
		}
	})

	// The AP table is a forest walk over the block tables: the file that
	// builds it searches nothing and builds no graph.
	t.Run("no AP graph", func(t *testing.T) {
		const path = "internal/apsp/general.go"
		f := files[path]
		if f == nil {
			t.Fatalf("%s: not found", path)
		}
		if imports(f, "repro/internal/sssp") {
			t.Errorf("%s imports repro/internal/sssp", path)
		}
		for _, pos := range calls(path, "graph", "NewBuilder") {
			t.Errorf("%s: graph.NewBuilder in the oracle's build", pos)
		}
	})

	// The checked-in OpenAPI spec is generated from the route table in
	// internal/api (go run ./cmd/apigen -out api/openapi.yaml); the mux
	// side of the same contract is structural: cmd/oracled mounts from
	// the table and refuses to boot on a drifted one.
	t.Run("openapi spec matches route table", func(t *testing.T) {
		have, err := os.ReadFile("api/openapi.yaml")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(have, api.OpenAPI()) {
			t.Error("api/openapi.yaml is stale — regenerate with: go run ./cmd/apigen -out api/openapi.yaml")
		}
	})

	// The round's trajectory (ROADMAP aim 2): non-test Go lines outside
	// bench/, held under the bar the last PR to lower it reached.
	t.Run("non-test LOC", func(t *testing.T) {
		const bar = 22270
		t.Logf("%d non-test lines outside bench/", loc)
		if loc >= bar {
			t.Errorf("%d non-test lines outside bench/, want < %d", loc, bar)
		}
	})

	if _, err := os.Stat("internal/core"); err == nil {
		t.Error("internal/core exists again: repro.go is the one-call facade")
	}
}
