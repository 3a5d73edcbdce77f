package repro

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/format"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	pathpkg "path"
	"path/filepath"
	"regexp"
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
	benchFiles := map[string]*ast.File{}
	loc := 0 // lines of the root module's non-test files, as `wc -l` counts them
	var unformatted []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
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
		if out, err := format.Source(src); err != nil || !bytes.Equal(out, src) {
			unformatted = append(unformatted, filepath.ToSlash(path))
		}
		// bench/ is a module of its own: its files are read only as callers
		// of the root module's exports.
		if slash := filepath.ToSlash(path); strings.HasPrefix(slash, "bench/") {
			benchFiles[slash] = f
		} else {
			files[slash] = f
			if !strings.HasSuffix(path, "_test.go") {
				loc += bytes.Count(src, []byte("\n"))
			}
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

	// Every Go file is as gofmt writes it.
	t.Run("gofmt", func(t *testing.T) {
		for _, path := range unformatted {
			t.Errorf("%s is not gofmt-formatted: run gofmt -w %s", path, path)
		}
	})

	// The serving package imports only what the oracle runs on: a
	// comparison baseline's dependencies (internal/partition for Djidjev)
	// stay beside the baseline, in internal/exp.
	t.Run("apsp imports", func(t *testing.T) {
		want := "bcc ear graph obs par snapshot sssp"
		seen := map[string]bool{}
		for path, f := range files {
			if isTest(path) || pathpkg.Dir(path) != "internal/apsp" {
				continue
			}
			for _, imp := range f.Imports {
				if p, _ := strconv.Unquote(imp.Path.Value); strings.HasPrefix(p, "repro/") {
					seen[strings.TrimPrefix(p, "repro/internal/")] = true
				}
			}
		}
		var got []string
		for p := range seen {
			got = append(got, p)
		}
		sort.Strings(got)
		if strings.Join(got, " ") != want {
			t.Errorf("internal/apsp's module imports: got %v, want [%s]", got, want)
		}
	})

	// The device model is linked only by what prices work on it: one file
	// per package that simulates, and the binaries that print the
	// simulation. Everything a daemon executes fans out through
	// internal/par.
	t.Run("hetero importers", func(t *testing.T) {
		want := []string{
			"cmd/bc/main.go",
			"examples/heterosim/main.go",
			"examples/socialnetwork/main.go",
			"internal/exp/bc.go",
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

	// One metrics registry: cmd/ creates it and renders it, no package keeps
	// one of its own, the device model records nothing, and the algorithm
	// packages report on the values they return — an oracle's BuildPhases,
	// a basis's Timing — instead of writing to a registry.
	t.Run("one registry", func(t *testing.T) {
		isObs := func(x ast.Expr, path, name string) bool {
			switch x := x.(type) {
			case *ast.SelectorExpr:
				id, ok := x.X.(*ast.Ident)
				return ok && id.Name == "obs" && x.Sel.Name == name
			case *ast.Ident:
				return strings.HasPrefix(path, "internal/obs/") && x.Name == name
			}
			return false
		}
		registryMethods := map[string]bool{"Counter": true, "Gauge": true, "Histogram": true, "Phases": true, "Attach": true, "Publish": true}
		for path, f := range files {
			if isTest(path) {
				continue
			}
			if strings.HasPrefix(path, "internal/hetero/") && imports(f, "repro/internal/obs") {
				t.Errorf("%s imports internal/obs: the device model prices work and records nothing", path)
			}
			for _, decl := range f.Decls {
				if gd, ok := decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
					for _, spec := range gd.Specs {
						vs := spec.(*ast.ValueSpec)
						typ := vs.Type
						if st, ok := typ.(*ast.StarExpr); ok {
							typ = st.X
						}
						minted := false
						for _, v := range vs.Values {
							c, ok := v.(*ast.CallExpr)
							minted = minted || ok && isObs(c.Fun, path, "NewRegistry")
						}
						if typ != nil && isObs(typ, path, "Registry") || minted {
							t.Errorf("%s: package-level %s holds a registry: the daemon owns the only one", fset.Position(vs.Pos()), vs.Names[0].Name)
						}
					}
				}
			}
			algorithm := strings.HasPrefix(path, "internal/apsp/") || strings.HasPrefix(path, "internal/mcb/")
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					if isObs(n.Fun, path, "NewRegistry") && !strings.HasPrefix(path, "cmd/") {
						t.Errorf("%s: obs.NewRegistry outside cmd/: take the daemon's registry, or none", fset.Position(n.Pos()))
					}
					if sel, ok := n.Fun.(*ast.SelectorExpr); ok && algorithm && registryMethods[sel.Sel.Name] {
						t.Errorf("%s: %s called in an algorithm package: report on the returned value", fset.Position(n.Pos()), sel.Sel.Name)
					}
				case *ast.SelectorExpr:
					if algorithm && isObs(n, path, "Registry") {
						t.Errorf("%s: obs.Registry in an algorithm package: report on the returned value", fset.Position(n.Pos()))
					}
				}
				return true
			})
		}
	})

	// The flag conventions every tool shares link no server: the daemon's
	// own flags live in cmd/oracled.
	t.Run("cli links no server", func(t *testing.T) {
		for path, f := range files {
			if isTest(path) || !strings.HasPrefix(path, "internal/cli/") {
				continue
			}
			for _, pkg := range []string{"qe", "registry", "jobs", "shard"} {
				if imports(f, "repro/internal/"+pkg) {
					t.Errorf("%s imports repro/internal/%s: the server's flags belong in cmd/oracled", path, pkg)
				}
			}
		}
	})

	// One binary layout: every file the system writes is a snapshot
	// container, so internal/snapshot is the one codec of raw bytes.
	t.Run("one binary codec", func(t *testing.T) {
		for path, f := range files {
			if !isTest(path) && imports(f, "encoding/binary") && !strings.HasPrefix(path, "internal/snapshot/") {
				t.Errorf("%s imports encoding/binary: encode through internal/snapshot", path)
			}
		}
	})

	// One checksum: snapshot.Checksum (CRC-32C‖CRC-32) guards every
	// container and derives every plan epoch. A float64 table's byte view
	// (snapshot's bytesOf) is the tree's one use of unsafe, at two sites:
	// Encoder.F64s borrows a table into a write, and Decoder.F64s reads a
	// table's bytes straight into its new slice.
	t.Run("one checksum, one unsafe", func(t *testing.T) {
		for path, f := range files {
			if !isTest(path) && imports(f, "hash/crc64") {
				t.Errorf("%s imports hash/crc64: checksum with snapshot.Checksum", path)
			}
			if !isTest(path) && imports(f, "unsafe") && !strings.HasPrefix(path, "internal/snapshot/") {
				t.Errorf("%s imports unsafe: only internal/snapshot may", path)
			}
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

	// graph.Edges returns the graph's own edge array, the one its CSR
	// weights (AdjWeight) were built from, so writing an element through
	// it leaves the two disagreeing: a benchmark once divided an Edges()
	// result by 3 in place and ran an "integral" oracle over thirds
	// (ROADMAP 8(e)). Clone the slice first. Within each function, a name
	// assigned an Edges() call is followed, and an element assignment or a
	// copy into it, or straight into an Edges() call, fails.
	t.Run("Edges() is read-only", func(t *testing.T) {
		isEdges := func(e ast.Expr) bool {
			call, ok := e.(*ast.CallExpr)
			if !ok || len(call.Args) != 0 {
				return false
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			return ok && sel.Sel.Name == "Edges"
		}
		check := func(f *ast.File) {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				alias := map[string]bool{}
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					if as, ok := n.(*ast.AssignStmt); ok && len(as.Lhs) == len(as.Rhs) {
						for i, r := range as.Rhs {
							if id, ok := as.Lhs[i].(*ast.Ident); ok && isEdges(r) {
								alias[id.Name] = true
							}
						}
					}
					if vs, ok := n.(*ast.ValueSpec); ok && len(vs.Names) == len(vs.Values) {
						for i, v := range vs.Values {
							if isEdges(v) {
								alias[vs.Names[i].Name] = true
							}
						}
					}
					return true
				})
				// through reports whether e reaches an Edges() result: the
				// result itself, or, when elem is set, one of its elements.
				through := func(e ast.Expr, elem bool) bool {
					for indexed := false; ; {
						switch x := e.(type) {
						case *ast.ParenExpr:
							e = x.X
						case *ast.SelectorExpr:
							e = x.X
						case *ast.IndexExpr:
							e, indexed = x.X, true
						case *ast.SliceExpr:
							e = x.X
						case *ast.Ident:
							return (indexed || !elem) && alias[x.Name]
						default:
							return (indexed || !elem) && isEdges(e)
						}
					}
				}
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					var written []ast.Expr
					switch s := n.(type) {
					case *ast.AssignStmt:
						if s.Tok != token.DEFINE {
							written = s.Lhs
						}
					case *ast.IncDecStmt:
						written = []ast.Expr{s.X}
					case *ast.CallExpr:
						if id, ok := s.Fun.(*ast.Ident); ok && id.Name == "copy" && len(s.Args) == 2 && through(s.Args[0], false) {
							t.Errorf("%s: copy into an Edges() result; clone it first", fset.Position(s.Pos()))
						}
					}
					for _, w := range written {
						if through(w, true) {
							t.Errorf("%s: element write through an Edges() result; clone it first", fset.Position(w.Pos()))
						}
					}
					return true
				})
			}
		}
		for _, f := range files {
			check(f)
		}
		for _, f := range benchFiles {
			check(f)
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
			if name := fn.Name.Name; name != "I32s" && name != "AppendI32s" && name != "F64s" {
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
		if seen != 5 {
			t.Errorf("found %d of the 5 Encoder/Decoder slice codecs (I32s, AppendI32s, F64s)", seen)
		}
	})

	// Names deleted because nothing ran them, or because a second copy of
	// a mechanism went (one block-cut navigation, one batch scheduler, one
	// mux maker, one oracle assembly, one forest walk, one phase loop, the
	// oracle's tables as the only resident rows, exports with no caller, a
	// snapshot as state rather than a script to replay, an engine with
	// nothing to release on eviction, one table precision, one Phase II
	// search with no arc mask or assembly beside it, one metrics registry,
	// one HTTP error carrier, one keyset paginator, one walk certifier, a
	// block engine that is no query source, the stitch and pair kernels as
	// oracle methods with no copied view of its topology)
	// must not come back under the same name: a caller that needs one
	// should say why first. A name too common to ban bare is matched where
	// it would be used instead: as a selector or a call, or, for a facade
	// name whose internal namesake stays, as a declaration in repro.go.
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
			"GraphFormat", "GraphFormatEdgeList", "GraphFormatDIMACS", "GraphFormatMatrixMarket", "GraphFormatBinary",
			"GraphFormatFromPath", "ReadGraph", "LoadGraph", "ShortestPathsCtx", "MinimumCycleBasisCtx", "MinimumCycleBasisOpts",
			"ErrSnapshotBadMagic", "ErrSnapshotVersionSkew", "ErrSnapshotChecksum", "ErrSnapshotCorrupt",
			"ErrRegistryUnknownGraph", "ErrRegistryBadName", "ErrRegistryReadOnly", "ErrRegistryClosed",
			"ErrShardEpochMismatch", "ErrShardNotOwned", "ErrMCBCycleIndex", "ErrMCBVertexRange", "ErrMCBEdgeRange", "ErrMCBNotClosedWalk",
			"WriteOracleChain", "RegistryEntry", "RegistryGraphInfo", "ReadShardPlan", "ShardError",
			"JobsManager", "JobsConfig", "JobSpec", "JobStatus", "JobGraphRef", "JobKindBatchMatrix", "JobKindBC", "JobTerminal", "OpenJobs",
			"MetricsRegistry", "GenConfig", "BCResult", "BCOptions", "BetweennessCentrality", "BetweennessCentralityOpts", "VerifyDistances",
			"NewFloydWarshall", "NewDense", "MaterializeBlockTables", "BoundarySize", "PeelPendants", "DotRange", "DecreaseKey",
			"ComputeStats", "LargestComponent", "SaveBinary", "LoadBinary", "ParentToLocal", "IsBiconnected", "RunOn",
			"CyclesThroughEdge", "CyclesThroughVertex", "CyclesThroughVertexChecked", "VerifyFVS", "CutEdges", "NumAPs",
			"Materialize", "Dense", "Pendant", "CopyFrom",
			"WriteChainTo", "replayChain", "writeChainSnapshot",
			"teardown", "tornDown", "retired", "retireLocked",
			"Compact32", "CompactTol", "CompactAPSP", "compressTable", "pathTol32", "sr32", "a32", "apF32",
			"APSPOptions", "ShortestPathsOpts", "NewOracleOpts",
			"EngineFlags", "RegistryFlags", "JobsFlags", "ShardFlags",
			"FromCSR", "FillSchedule", "newFill", "unpend", "triangle", "triangleRows", "beats", "assembledArcs",
			"apiError", "phaseRecorder",
			"ListPage", "RefinePasses", "weightsAgree",
			"DecodeReduced", "hashI32s", "i32sEqual",
			"derive", "planFormatVersion", "shardFormatVersion", "oracleFormatVersion", "BuildForest",
			"StitchView", "buildView", "DOTOptions", "BlockAPSP",
		} {
			deleted[name] = true
		}
		goneSelectors := map[string]bool{"qe.Sizer": true, "api.Patterns": true, "registry.Limits": true,
			"bc.Sequential": true, "bc.Sim": true, "verify.Distances": true, "graph.Stats": true, "partition.Sizes": true, "mcb.ErrVertexRange": true,
			"qe.ErrClosed": true, "obs.Default": true}
		// Facade names whose internal namesakes stay: banned in repro.go only.
		goneFacade := map[string]bool{"Edge": true, "ErrBadDelta": true, "ErrOverloaded": true, "ErrShardUnavailable": true,
			"MutateGraph": true, "ShardStatus": true, "RNG": true, "NewRNG": true, "Metrics": true, "WriteDOT": true}
		// Methods with names too common to ban bare: banned on their receiver.
		goneMethods := map[string]bool{"Vector.Words": true, "Vector.Clear": true, "Vector.IsZero": true, "Vector.Equal": true,
			"UnionFind.Connected": true, "UnionFind.Sets": true, "Graph.Other": true, "Encoder.F32": true, "Decoder.F32": true,
			"ShardBlocks.Owned": true, "Entry.Swap": true, "Engine.Close": true,
			"Encoder.F32s": true, "Decoder.F32s": true, "Oracle.Compact": true,
			"EarAPSP.Pair": true, "EarAPSP.NumVertices": true, "EarAPSP.QueryChecked": true, "Djidjev.QueryChecked": true,
			"Reduced.EncodeSnapshot": true, "Plan.StitchView": true, "ShardBlocks.NumEdges": true}
		// Struct fields whose names other types keep: banned on their type.
		goneFields := map[string]bool{"Plan.CutVertices": true, "Plan.BlockCuts": true, "Plan.BlockVerts": true,
			"locIndex.verts": true, "PlanOptions.Epoch": true}
		goneCalls := map[string]bool{"deprecated": true}
		for path, f := range files {
			check := func(id *ast.Ident) {
				if id != nil && (deleted[id.Name] || path == "repro.go" && goneFacade[id.Name]) {
					t.Errorf("%s: %s is declared again", fset.Position(id.Pos()), id.Name)
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch d := n.(type) {
				case *ast.FuncDecl:
					check(d.Name)
					if d.Recv != nil && goneMethods[recvType(d.Recv.List[0].Type)+"."+d.Name.Name] {
						t.Errorf("%s: %s is declared again", fset.Position(d.Pos()), d.Name.Name)
					}
				case *ast.TypeSpec:
					check(d.Name)
					if st, ok := d.Type.(*ast.StructType); ok {
						for _, fl := range st.Fields.List {
							for _, id := range fl.Names {
								if goneFields[d.Name.Name+"."+id.Name] {
									t.Errorf("%s: %s.%s is declared again", fset.Position(id.Pos()), d.Name.Name, id.Name)
								}
							}
						}
					}
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

	// Every exported name has a non-test caller, or a written reason.
	t.Run("every export has a caller", func(t *testing.T) {
		refs := map[string]*ast.File{}
		for path, f := range files {
			refs[path] = f
		}
		for path, f := range benchFiles {
			refs[path] = f
		}
		for _, p := range exportScan(refs, exportAllowlist) {
			t.Error(p)
		}
		if len(exportAllowlist) >= 40 {
			t.Errorf("%d allowlisted exports, want < 40", len(exportAllowlist))
		}

		// The guard guards: a planted orphan is reported until a caller
		// appears, and so is an allowlist entry that outlived its name.
		plant := func(path, src string) {
			f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			refs[path] = f
		}
		reports := func(allow map[string]string, want string) bool {
			for _, p := range exportScan(refs, allow) {
				if strings.HasPrefix(p, want) {
					return true
				}
			}
			return false
		}
		plant("internal/x/x.go", "package x; func Orphan() {}")
		if !reports(exportAllowlist, "x.Orphan has no non-test caller") {
			t.Error("a planted orphan internal/x.Orphan is not reported")
		}
		plant("cmd/x/main.go", `package main; import "repro/internal/x"; func main() { x.Orphan() }`)
		if reports(exportAllowlist, "x.Orphan ") {
			t.Error("internal/x.Orphan is reported although cmd/x calls it")
		}
		stale := map[string]string{"x.Gone": "a reason"}
		if !reports(stale, "x.Gone is allowlisted but not declared") {
			t.Error("an allowlist entry naming no declaration is not reported")
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

	// The /v1 wire types live in internal/api, where the spec is derived
	// from them: a json-tagged struct declared beside a handler would be
	// a body the spec does not describe.
	t.Run("wire types in api", func(t *testing.T) {
		for path, f := range files {
			if !strings.HasPrefix(path, "cmd/oracled/") || isTest(path) {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if fd, ok := n.(*ast.Field); ok && fd.Tag != nil && strings.Contains(fd.Tag.Value, `json:"`) {
					t.Errorf("%s: json-tagged field in cmd/oracled: declare the wire type in internal/api", fset.Position(fd.Pos()))
				}
				return true
			})
		}
	})

	// README's "### Flags" table is the daemon's whole flag surface: a
	// flag cmd/oracled/main.go registers that the table lacks, or a row
	// for a flag it no longer registers, fails.
	t.Run("oracled flags documented", func(t *testing.T) {
		registered := map[string]bool{}
		ast.Inspect(files["cmd/oracled/main.go"], func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
				return true
			}
			switch sel.Sel.Name {
			case "Bool", "Duration", "Float64", "Int", "Int64", "String", "Uint", "Uint64":
			default:
				return true
			}
			lit, ok := call.Args[0].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				t.Errorf("%s: flag name is not a string literal", fset.Position(call.Pos()))
				return true
			}
			name, _ := strconv.Unquote(lit.Value)
			registered["-"+name] = true
			return true
		})
		readme, err := os.ReadFile("README.md")
		if err != nil {
			t.Fatal(err)
		}
		_, table, ok := strings.Cut(string(readme), "\n### Flags\n")
		if !ok {
			t.Fatal(`README.md has no "### Flags" section`)
		}
		documented := map[string]bool{}
		for _, line := range strings.Split(table, "\n") {
			if strings.HasPrefix(line, "#") {
				break
			}
			if rest, ok := strings.CutPrefix(line, "| `-"); ok {
				name, _, _ := strings.Cut(rest, "`")
				if documented["-"+name] {
					t.Errorf("README flag table lists -%s twice", name)
				}
				documented["-"+name] = true
			}
		}
		for name := range registered {
			if !documented[name] {
				t.Errorf("oracled registers %s, which README's flag table lacks", name)
			}
		}
		for name := range documented {
			if !registered[name] {
				t.Errorf("README's flag table lists %s, which oracled does not register", name)
			}
		}
		if len(registered) == 0 {
			t.Error("found no flag registrations in cmd/oracled/main.go: the rule guards nothing")
		}
	})

	// CI runs what the tree declares: every fuzz target is smoked, and
	// every benchmark the allocs/op gate holds a baseline for is run by
	// the gate step on its own package (benchgate fails a baseline entry
	// no run reports, but only in CI). ci.yml names a fuzz target as
	// "<package dir> <name>" on one line, and runs benchmarks as
	// "go test ... -bench=<pattern> ... <package pattern>".
	ci, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	declared := func(prefix string) map[string][]string { // name -> package dirs
		out := map[string][]string{}
		for path, f := range files {
			if !isTest(path) {
				continue
			}
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, prefix) {
					out[fn.Name.Name] = append(out[fn.Name.Name], pathpkg.Dir(path))
				}
			}
		}
		return out
	}
	t.Run("fuzz targets in CI", func(t *testing.T) {
		named := map[string]bool{}
		for _, line := range strings.Split(string(ci), "\n") {
			fields := strings.Fields(line)
			for i := 0; i+1 < len(fields); i++ {
				named[fields[i]+" "+fields[i+1]] = true
			}
		}
		for name, dirs := range declared("Fuzz") {
			for _, dir := range dirs {
				if !named[dir+" "+name] {
					t.Errorf("%s in %s is not fuzzed by ci.yml: add \"%s %s <fuzztime>\" to the fuzz-smoke list", name, dir, dir, name)
				}
			}
		}
	})
	t.Run("gated benchmarks are run", func(t *testing.T) {
		var baseline struct{ Benchmarks map[string]json.RawMessage }
		raw, err := os.ReadFile("ci/bench_baseline.json")
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &baseline); err != nil {
			t.Fatal(err)
		}
		type run struct{ pattern, pkg string }
		var runs []run
		for _, line := range strings.Split(string(ci), "\n") {
			fields := strings.Fields(line)
			if len(fields) < 2 || fields[0] != "go" || fields[1] != "test" {
				continue
			}
			var r run
			for _, f := range fields[2:] {
				if f == "|" {
					break
				}
				if p, ok := strings.CutPrefix(f, "-bench="); ok {
					r.pattern = strings.Trim(p, "'")
				} else if !strings.HasPrefix(f, "-") {
					r.pkg = f
				}
			}
			if r.pattern != "" {
				runs = append(runs, r)
			}
		}
		// covers reports whether r runs benchmark name of package dir, as
		// go test matches -bench: element by element of the slash-split
		// name and pattern.
		covers := func(r run, dir, name string) bool {
			pkg := strings.TrimPrefix(r.pkg, "./")
			if rest, ok := strings.CutSuffix(pkg, "/..."); ok {
				if dir != rest && !strings.HasPrefix(dir, rest+"/") {
					return false
				}
			} else if dir != pkg {
				return false
			}
			parts := strings.Split(name, "/")
			for i, p := range strings.Split(r.pattern, "/") {
				if i == len(parts) {
					break
				}
				if ok, err := regexp.MatchString(p, parts[i]); err != nil || !ok {
					return false
				}
			}
			return true
		}
		benchmarks := declared("Benchmark")
		for name := range baseline.Benchmarks {
			top, _, _ := strings.Cut(name, "/")
			dirs := benchmarks[top]
			if len(dirs) == 0 {
				t.Errorf("ci/bench_baseline.json gates %s, which no _test.go declares", name)
				continue
			}
			ran := false
			for _, r := range runs {
				for _, dir := range dirs {
					ran = ran || covers(r, dir, name)
				}
			}
			if !ran {
				t.Errorf("ci/bench_baseline.json gates %s (in %v), which no go test -bench line of ci.yml runs", name, dirs)
			}
		}
		if len(baseline.Benchmarks) == 0 || len(runs) == 0 {
			t.Errorf("%d baseline entries, %d gate runs: the rule guards nothing", len(baseline.Benchmarks), len(runs))
		}
	})

	// The round's trajectory (ROADMAP aim 2): non-test Go lines outside
	// bench/, held under the bar the last PR to move it reached (lowered
	// when oracled's tuning flags that no deployment set became
	// constants).
	t.Run("non-test LOC", func(t *testing.T) {
		const bar = 20105
		t.Logf("%d non-test lines outside bench/", loc)
		if loc >= bar {
			t.Errorf("%d non-test lines outside bench/, want < %d", loc, bar)
		}
	})

	if _, err := os.Stat("internal/core"); err == nil {
		t.Error("internal/core exists again: repro.go is the one-call facade")
	}
}

// exportAllowlist names the exports exportScan may find without a caller,
// each with the reason it stays: "pkg.Name", or "pkg.Type.Method" for a
// method.
var exportAllowlist = map[string]string{
	"apsp.QueryError.Unwrap": "errors.Is/As walk through it (the Unwrap interface)",
	"shard.Error.Unwrap":     "errors.Is/As walk through it (the Unwrap interface)",

	// Facade forms of internal calls bench/ makes, kept so the benchmark
	// can switch to repro alone without re-adding them.
	"repro.ApplyDelta":           benchTarget,
	"repro.DeltaKind":            benchTarget,
	"repro.DeltaWeight":          benchTarget,
	"repro.DeltaInsert":          benchTarget,
	"repro.DeltaDelete":          benchTarget,
	"repro.WriteOracle":          benchTarget,
	"repro.ReadOracle":           benchTarget,
	"repro.PlanShards":           benchTarget,
	"repro.WriteShardPlan":       benchTarget,
	"repro.WriteShardSnapshot":   benchTarget,
	"repro.ReadShardSnapshot":    benchTarget,
	"repro.NewRemoteRowSource":   benchTarget,
	"repro.OpenRegistry":         benchTarget,
	"repro.RegistryDefaultGraph": benchTarget,
	"repro.VerifyPath":           benchTarget,
}

const benchTarget = "ROADMAP 1(b) bench target"

// exportScan returns one line per broken rule over files (slash paths
// relative to the root module; bench/ files are read as callers only):
//
//   - an exported func, type, var or const declared in a non-test file
//     under internal/ or in repro.go, or an exported method on an exported
//     type declared there, that no non-test file references outside its
//     declaration and that allow does not list. internal/check and
//     internal/gen are test support and exempt; example_test.go counts as
//     a caller of repro.go's names. Package-level names are resolved by
//     package; methods by name alone, so a method only an interface calls
//     implicitly (String, Error, ...) needs an allow entry naming it;
//   - an allow entry that names no declaration, or a name with a caller.
func exportScan(files map[string]*ast.File, allow map[string]string) []string {
	type export struct {
		dir, name string // dir "." is the root package
		method    bool
	}
	exports := map[string]export{} // "pkg.Name" or "pkg.Type.Method"
	skip := map[*ast.Ident]bool{}  // declaring names and receivers
	for path, f := range files {
		dir := pathpkg.Dir(path)
		scanned := path == "repro.go" || strings.HasPrefix(dir, "internal/") &&
			dir != "internal/check" && dir != "internal/gen"
		if strings.HasSuffix(path, "_test.go") || !scanned {
			continue
		}
		pkg := f.Name.Name
		add := func(id *ast.Ident, key string, method bool) {
			skip[id] = true
			if id.IsExported() {
				exports[key] = export{dir, id.Name, method}
			}
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					add(d.Name, pkg+"."+d.Name.Name, false)
					continue
				}
				ast.Inspect(d.Recv, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						skip[id] = true
					}
					return true
				})
				if recv := recvType(d.Recv.List[0].Type); ast.IsExported(recv) {
					add(d.Name, pkg+"."+recv+"."+d.Name.Name, true)
				} else {
					skip[d.Name] = true
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						add(s.Name, pkg+"."+s.Name.Name, false)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							add(id, pkg+"."+id.Name, false)
						}
					}
				}
			}
		}
	}

	used := map[string]bool{}   // dir + " " + name, package-level
	called := map[string]bool{} // selector names: methods, by name
	for path, f := range files {
		rootOnly := path == "example_test.go"
		if strings.HasSuffix(path, "_test.go") && !rootOnly {
			continue
		}
		dir := pathpkg.Dir(path)
		if strings.HasPrefix(path, "bench/") {
			dir = "bench"
		}
		imported := map[string]string{} // local name -> dir
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			var d string
			switch {
			case p == "repro":
				d = "."
			case strings.HasPrefix(p, "repro/"):
				d = strings.TrimPrefix(p, "repro/")
			default:
				continue
			}
			if rootOnly && d != "." {
				continue
			}
			name := pathpkg.Base(p)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imported[name] = d
		}
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.SelectorExpr:
				if id, ok := x.X.(*ast.Ident); ok && imported[id.Name] != "" {
					used[imported[id.Name]+" "+x.Sel.Name] = true
					return false
				}
				if !rootOnly {
					called[x.Sel.Name] = true
				}
				ast.Inspect(x.X, visit)
				return false
			case *ast.Ident:
				if !rootOnly && !skip[x] {
					used[dir+" "+x.Name] = true
				}
			}
			return true
		}
		ast.Inspect(f, visit)
	}

	var problems []string
	for key, e := range exports {
		hasCaller := used[e.dir+" "+e.name]
		if e.method {
			hasCaller = called[e.name]
		}
		_, listed := allow[key]
		switch {
		case !hasCaller && !listed:
			problems = append(problems, key+" has no non-test caller: delete it, move it beside its user, or allowlist it with a reason")
		case hasCaller && listed:
			problems = append(problems, key+" is allowlisted but has a caller: drop the entry")
		}
	}
	for key := range allow {
		if _, ok := exports[key]; !ok {
			problems = append(problems, key+" is allowlisted but not declared: drop the entry")
		}
	}
	sort.Strings(problems)
	return problems
}

// recvType is the type name of a method receiver: T, *T, T[P] or *T[P].
func recvType(x ast.Expr) string {
	for {
		switch t := x.(type) {
		case *ast.StarExpr:
			x = t.X
		case *ast.IndexExpr:
			x = t.X
		case *ast.IndexListExpr:
			x = t.X
		case *ast.Ident:
			return t.Name
		default:
			return ""
		}
	}
}
