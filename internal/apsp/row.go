package apsp

import "repro/internal/graph"

// Row-granular query surface.
//
// A distance row d_G(u, ·) is the natural unit of reuse for a serving
// layer: queries sharing a source share almost all of their work, and the
// stitch kernel (stitch.go) computes a row far cheaper than n calls to
// Query. This file is only the oracle's side of that kernel: the provider
// that reads in-block rows from its own tables. A sharded frontend
// (internal/shard) drives the same kernel with rows fetched from shard
// daemons.
//
// Like Query, Row is pure: it only reads the immutable oracle tables, is
// safe for any number of concurrent callers, and never panics.

// NumVertices returns the vertex count of the underlying graph, so the
// oracle satisfies row-source interfaces (internal/qe) without exposing
// the graph.
func (o *Oracle) NumVertices() int { return o.G.NumVertices() }

// Row writes d_G(u, v) for every vertex v into out (len ≥ n) and returns
// the number of table operations performed. An out-of-range u yields an
// all-Inf row; use RowChecked to surface that as an error instead.
func (o *Oracle) Row(u int32, out []graph.Weight) int64 {
	ops, err := o.RowChecked(u, out)
	if err != nil {
		out = out[:o.G.NumVertices()]
		for i := range out {
			out[i] = Inf
		}
	}
	return ops
}

// RowChecked is Row with vertex validation: an out-of-range u comes back
// as a *QueryError wrapping ErrVertexRange and out is left untouched.
func (o *Oracle) RowChecked(u int32, out []graph.Weight) (int64, error) {
	return o.StitchRow(u, out, o.blockRows)
}

// blockRows is the oracle's BlockRowsFunc: in-block rows straight from
// the resident S^r tables. It cannot fail.
func (o *Oracle) blockRows(want []BlockWant, rows [][]graph.Weight) error {
	for i, w := range want {
		o.row(w.Block, w.Src, rows[i])
	}
	return nil
}
