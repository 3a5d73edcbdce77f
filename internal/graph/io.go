package graph

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
)

// This file implements the three on-disk formats the tooling accepts:
//
//   - a plain weighted edge list ("u v w" per line, '#' comments), the
//     native format of cmd/graphgen;
//   - the DIMACS shortest-path format ("p sp n m" header, "a u v w" arcs),
//     so published road-network instances can be fed in directly;
//   - a subset of MatrixMarket coordinate format, the format of the
//     University of Florida Sparse Matrix Collection the paper draws its
//     datasets from (pattern and real, symmetric entries; diagonal entries
//     become self-loops, which the MCB engine tolerates and APSP ignores).

// WriteEdgeList writes g as a plain edge list.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# vertices %d edges %d\n", g.NumVertices(), g.NumEdges()); err != nil {
		return err
	}
	for _, e := range g.Edges() {
		if _, err := fmt.Fprintf(bw, "%d %d %g\n", e.U, e.V, e.W); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadEdgeList parses the plain edge-list format. Vertices are numbered by
// the maximum endpoint seen, or by a "# vertices N edges M" header comment
// (as written by WriteEdgeList) when that declares more — without the
// header, trailing isolated vertices would be lost on a write/read round
// trip. A missing weight column defaults to 1.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	var edges []Edge
	maxV, declaredN := int32(-1), 0
	err := scanLines(r, func(line int, text string) error {
		if text[0] == '#' || text[0] == '%' {
			if n, ok := parseVertexHeader(text); ok && n > declaredN {
				declaredN = n
			}
			return nil
		}
		f := strings.Fields(text)
		if len(f) < 2 {
			return fmt.Errorf("graph: edge list line %d: need at least 2 fields, got %q", line, text)
		}
		u, v, w, err := parseEdge(f, 0)
		if err != nil {
			return fmt.Errorf("graph: edge list line %d: %v", line, err)
		}
		if u < 0 || v < 0 {
			return fmt.Errorf("graph: edge list line %d: negative vertex", line)
		}
		maxV = max(maxV, u, v)
		edges = append(edges, Edge{U: u, V: v, W: w})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return FromEdges(max(int(maxV+1), declaredN), edges), nil
}

// scanLines calls fn with each non-blank line of r, trimmed, and its
// 1-based line number, until fn fails.
func scanLines(r io.Reader, fn func(line int, text string) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		if text := strings.TrimSpace(sc.Text()); text != "" {
			if err := fn(line, text); err != nil {
				return err
			}
		}
	}
	return sc.Err()
}

// parseEdge parses an edge line's "u v [w]" fields, numbering vertices
// from base; a missing weight is 1.
func parseEdge(f []string, base int64) (u, v int32, w float64, err error) {
	var x [2]int64
	for i := range x {
		if x[i], err = strconv.ParseInt(f[i], 10, 32); err != nil {
			return 0, 0, 0, err
		}
	}
	if w = 1; len(f) > 2 {
		w, err = strconv.ParseFloat(f[2], 64)
	}
	return int32(x[0] - base), int32(x[1] - base), w, err
}

// parseVertexHeader recognises the "# vertices N edges M" comment emitted by
// WriteEdgeList and returns the declared vertex count.
func parseVertexHeader(text string) (int, bool) {
	f := strings.Fields(text)
	if len(f) < 3 || f[0] != "#" || f[1] != "vertices" {
		return 0, false
	}
	n, err := strconv.Atoi(f[2])
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// ReadDIMACS parses the DIMACS shortest-path format. Each undirected edge of
// a symmetric instance appears as two "a" lines; duplicates (v,u) after
// (u,v) are collapsed.
func ReadDIMACS(r io.Reader) (*Graph, error) {
	n := 0
	var edges []Edge
	seen := make(map[[2]int32]bool)
	err := scanLines(r, func(line int, text string) error {
		switch f := strings.Fields(text); f[0] {
		case "p":
			if len(f) < 4 {
				return fmt.Errorf("graph: dimacs line %d: malformed problem line", line)
			}
			var err error
			if n, err = strconv.Atoi(f[2]); err != nil {
				return fmt.Errorf("graph: dimacs line %d: %v", line, err)
			}
		case "a", "e":
			if len(f) < 3 {
				return fmt.Errorf("graph: dimacs line %d: malformed arc line", line)
			}
			u, v, w, err := parseEdge(f[1:], 1) // DIMACS is 1-based
			if err != nil {
				return fmt.Errorf("graph: dimacs line %d: %v", line, err)
			}
			if u < 0 || v < 0 {
				return fmt.Errorf("graph: dimacs line %d: vertex below 1", line)
			}
			if key := [2]int32{min(u, v), max(u, v)}; !seen[key] {
				seen[key] = true
				edges = append(edges, Edge{U: u, V: v, W: w})
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, fmt.Errorf("graph: dimacs input missing problem line")
	}
	return FromEdges(n, edges), nil
}

// ReadMatrixMarket parses symmetric coordinate MatrixMarket files (pattern
// or real). Entries above the diagonal of a symmetric matrix are mirrored by
// the format's convention of storing only one triangle, so each coordinate
// entry becomes one undirected edge. Explicit zeros are skipped; negative
// values are taken by absolute value since the paper's datasets are used as
// positive-weight graphs.
func ReadMatrixMarket(r io.Reader) (*Graph, error) {
	header, dims, pattern := false, false, false
	n := 0
	var edges []Edge
	err := scanLines(r, func(line int, text string) error {
		if !header {
			if !strings.HasPrefix(text, "%%MatrixMarket") {
				return fmt.Errorf("graph: not a MatrixMarket file")
			}
			low := strings.ToLower(text)
			if !strings.Contains(low, "coordinate") {
				return fmt.Errorf("graph: only coordinate MatrixMarket supported")
			}
			pattern, header = strings.Contains(low, "pattern"), true
			return nil
		}
		if text[0] == '%' {
			return nil
		}
		f := strings.Fields(text)
		if !dims {
			if len(f) < 3 {
				return fmt.Errorf("graph: mm line %d: malformed size line", line)
			}
			rows, err := strconv.Atoi(f[0])
			if err != nil {
				return fmt.Errorf("graph: mm line %d: %v", line, err)
			}
			cols, err := strconv.Atoi(f[1])
			if err != nil {
				return fmt.Errorf("graph: mm line %d: %v", line, err)
			}
			if rows != cols {
				return fmt.Errorf("graph: mm matrix must be square, got %dx%d", rows, cols)
			}
			n, dims = rows, true
			return nil
		}
		if len(f) < 2 {
			return fmt.Errorf("graph: mm line %d: malformed entry", line)
		}
		if pattern {
			f = f[:2]
		}
		u, v, w, err := parseEdge(f, 1)
		if err != nil {
			return fmt.Errorf("graph: mm line %d: %v", line, err)
		}
		if w = math.Abs(w); w == 0 {
			return nil
		}
		if u < 0 || v < 0 || int(u) >= n || int(v) >= n {
			return fmt.Errorf("graph: mm line %d: index out of range", line)
		}
		edges = append(edges, Edge{U: u, V: v, W: w})
		return nil
	})
	if err != nil {
		return nil, err
	}
	if !dims {
		return nil, fmt.Errorf("graph: mm input missing size line")
	}
	return FromEdges(n, edges), nil
}

// Format names one of the supported on-disk graph formats, so graphs can
// be read from any stream — an HTTP body, embedded testdata, a pipe —
// rather than only from extension-carrying file paths.
type Format int

const (
	// FormatEdgeList is the plain "u v w" edge list (cmd/graphgen's
	// native output).
	FormatEdgeList Format = iota
	// FormatDIMACS is the DIMACS shortest-path format (.gr/.dimacs).
	FormatDIMACS
	// FormatMatrixMarket is symmetric coordinate MatrixMarket (.mtx).
	FormatMatrixMarket
	// FormatBinary is the .earg binary graph snapshot.
	FormatBinary
)

// String names the format for error messages.
func (f Format) String() string {
	switch f {
	case FormatEdgeList:
		return "edge-list"
	case FormatDIMACS:
		return "dimacs"
	case FormatMatrixMarket:
		return "matrix-market"
	case FormatBinary:
		return "binary"
	}
	return fmt.Sprintf("Format(%d)", int(f))
}

// FormatFromPath sniffs the format from a file extension, the same rules
// LoadFile has always applied: .mtx → MatrixMarket, .gr/.dimacs → DIMACS,
// .earg → binary, anything else → edge list.
func FormatFromPath(path string) Format {
	switch {
	case strings.HasSuffix(path, ".mtx"):
		return FormatMatrixMarket
	case strings.HasSuffix(path, ".gr"), strings.HasSuffix(path, ".dimacs"):
		return FormatDIMACS
	case strings.HasSuffix(path, ".earg"):
		return FormatBinary
	default:
		return FormatEdgeList
	}
}

// Read parses a graph from r in the given format.
func Read(r io.Reader, format Format) (*Graph, error) {
	switch format {
	case FormatEdgeList:
		return ReadEdgeList(r)
	case FormatDIMACS:
		return ReadDIMACS(r)
	case FormatMatrixMarket:
		return ReadMatrixMarket(r)
	case FormatBinary:
		return ReadBinary(r)
	}
	return nil, fmt.Errorf("graph: unknown format %v", format)
}

// LoadFile reads a graph file, selecting the parser by extension via
// FormatFromPath.
func LoadFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f, FormatFromPath(path))
}
