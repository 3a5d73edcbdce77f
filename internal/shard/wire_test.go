package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"hash/crc64"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/apsp"
	"repro/internal/graph"
	"repro/internal/snapshot"
)

// TestRowCtxOutOfRangeTyped: an out-of-range source on the frontend is
// the kernel's typed range error with out untouched — not a silent
// all-Inf row a caller could cache as an answer.
func TestRowCtxOutOfRangeTyped(t *testing.T) {
	c := newCluster(t, testGraph(), 2, clusterOpts{})
	n := c.plan.NumVertices
	out := make([]graph.Weight, n)
	for _, u := range []int32{-1, int32(n)} {
		for i := range out {
			out[i] = 42
		}
		_, err := c.src.RowCtx(context.Background(), u, out)
		var qe *apsp.QueryError
		if !errors.Is(err, apsp.ErrVertexRange) || !errors.As(err, &qe) {
			t.Fatalf("RowCtx(%d): err = %v, want *apsp.QueryError wrapping ErrVertexRange", u, err)
		}
		for v, d := range out {
			if d != 42 {
				t.Fatalf("RowCtx(%d) overwrote out[%d] with %v", u, v, d)
			}
		}
	}
	if got := c.reg.Counter("shard.rpc.requests").Value(); got != 0 {
		t.Fatalf("range errors issued %d shard RPCs", got)
	}
}

// countingBody streams size bytes of a plausible container prefix then
// zeros, counting what the client actually read.
type countingBody struct {
	size, read int
}

func (b *countingBody) Read(p []byte) (int, error) {
	if b.read >= b.size {
		return 0, io.EOF
	}
	n := min(len(p), b.size-b.read)
	for i := range p[:n] {
		p[i] = 0
	}
	if b.read == 0 {
		copy(p[:n], snapshot.Magic)
	}
	b.read += n
	return n, nil
}
func (b *countingBody) Close() error { return nil }

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// TestOversizedResponseBounded: a shard that answers 200 with a body far
// larger than the request's rows allow is cut off one byte past the
// derived limit, reported as a corrupt response, not retried, and marked
// unhealthy.
func TestOversizedResponseBounded(t *testing.T) {
	c := newCluster(t, testGraph(), 1, clusterOpts{
		retries: 3,
	})
	const oversized = 32 << 20
	body := &countingBody{size: oversized}
	c.src.client = &http.Client{Transport: roundTripFunc(func(*http.Request) (*http.Response, error) {
		return &http.Response{StatusCode: http.StatusOK, Body: body, Header: http.Header{}}, nil
	})}

	out := make([]graph.Weight, c.plan.NumVertices)
	_, err := c.src.RowCtx(context.Background(), 0, out)
	if !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("err = %v, want ErrShardUnavailable", err)
	}
	// Every block of this plan is wanted by row 0's component at most once.
	var lens []int
	for _, verts := range c.plan.o.BCT.BlockVerts {
		lens = append(lens, len(verts))
	}
	if limit := int(rowsResponseLen(lens)); body.read > limit+1 {
		t.Fatalf("read %d bytes of a %d-byte body; the request allows at most %d", body.read, oversized, limit)
	}
	if n := c.reg.Counter("shard.rpc.retries").Value(); n != 0 {
		t.Fatalf("oversized response was retried %d times", n)
	}
	if st := c.src.Status()[0]; st.Healthy || st.LastError == "" {
		t.Fatalf("shard not marked bad after an oversized response: %+v", st)
	}

	// The decoder itself names the failure with the snapshot sentinel.
	_, derr := decodeRowsResponse(&countingBody{size: oversized}, c.plan.Epoch, [][2]int32{{0, 0}}, []int{3})
	var nr *noRetryError
	if !errors.Is(derr, snapshot.ErrCorrupt) || !errors.As(derr, &nr) {
		t.Fatalf("decode err = %v, want a non-retryable ErrCorrupt", derr)
	}
}

// rowsExchange performs one real /internal/rows exchange against shard 0
// of a cluster, asking one row per owned block, and returns the request
// and the raw response body.
func rowsExchange(t testing.TB, p *Plan, url string) (reqs [][2]int32, lens []int, raw []byte) {
	t.Helper()
	for b, verts := range p.o.BCT.BlockVerts {
		if p.BlockShard[b] == 0 {
			reqs = append(reqs, [2]int32{int32(b), verts[0]})
			lens = append(lens, len(verts))
		}
	}
	body, err := json.Marshal(rowsRequest{Epoch: p.Epoch, Rows: reqs})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/internal/rows", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if raw, err = io.ReadAll(resp.Body); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("rows exchange: HTTP %d, %v", resp.StatusCode, err)
	}
	return reqs, lens, raw
}

// TestWireGolden pins the three byte formats frontends and shard daemons
// of different builds meet on, for one fixed small oracle: the plan
// manifest (and so its content epoch), a shard snapshot, and a
// /internal/rows response. The constants were re-recorded when the
// container went to version 2: against v1 the bytes differ only in the
// version word, the checksum slots and the content epoch those feed. The
// shard snapshot alone was re-recorded when its payload went to v2 (no
// ear reduction stored). All four moved when the manifest and the shard
// snapshot became the oracle snapshot's layout with a cluster section:
// the manifest now holds the graph and partition instead of a block-cut
// tree, so its content hash — the epoch — moved, and the rows response
// differs from the one before only in the 8 bytes of that epoch in its
// rmeta section and that section's checksum slot. All four moved again
// when every table became its upper triangle (payload v5): in the
// manifest the meta version word (4 → 5), the aptable section's length
// in the section table (300 → 180 bytes), the table's kind word (0 → 1)
// and count (36 → 21 entries, a = 6) and its entries, the epoch those
// feed, and the checksum slots of meta, cluster and aptable; in the shard
// snapshot the same version word and epoch, each block table's kind word
// and count (a two-vertex S^r 4 → 3 entries), the blocks section's
// length (160 → 144 bytes) and the checksums; in the rows response the
// epoch and its checksum, as before. A change here means old and new
// binaries no longer interoperate.
func TestWireGolden(t *testing.T) {
	o := apsp.NewOracle(testGraph())
	p, err := PlanShards(o, PlanOptions{Shards: 2})
	if err != nil {
		t.Fatalf("PlanShards: %v", err)
	}
	tab := crc64.MakeTable(crc64.ECMA)
	var manifest, snap bytes.Buffer
	if _, err := p.WriteTo(&manifest); err != nil {
		t.Fatal(err)
	}
	if _, err := o.WriteShardSnapshot(&snap, apsp.ShardMeta{Epoch: p.Epoch, Shard: 0, NumShards: 2}, p.OwnedMask(0)); err != nil {
		t.Fatal(err)
	}
	sb, err := apsp.ReadShardSnapshot(bytes.NewReader(snap.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	NewHandler(sb).Register(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	_, lens, raw := rowsExchange(t, p, srv.URL)

	for _, g := range []struct {
		what      string
		got, want uint64
	}{
		{"plan epoch", p.Epoch, 0x601db4bb3c321467},
		{"manifest bytes", crc64.Checksum(manifest.Bytes(), tab), 0x4fd571ef91edd458},
		{"shard 0 snapshot bytes", crc64.Checksum(snap.Bytes(), tab), 0x71089af87ecc8cec},
		{"rows response bytes", crc64.Checksum(raw, tab), 0x76e11858dcdbb8f7},
		{"rows response length", uint64(len(raw)), uint64(rowsResponseLen(lens))},
	} {
		if g.got != g.want {
			t.Errorf("%s: %#x, recorded %#x", g.what, g.got, g.want)
		}
	}
}

// TestRowsBoundedByOwnedBlocks: a frontend asks a shard for at most one
// row per block, so a batch longer than the shard's owned block count is
// refused with 400 bad_request before a row is built, while one row per
// owned block is served.
func TestRowsBoundedByOwnedBlocks(t *testing.T) {
	c := newCluster(t, testGraph(), 2, clusterOpts{})
	p := c.plan
	reqs, _, _ := rowsExchange(t, p, c.servers[0].URL) // one per owned block: 200
	if len(reqs) != p.ShardBlockCount(0) {
		t.Fatalf("exchange asked %d rows of a shard owning %d blocks", len(reqs), p.ShardBlockCount(0))
	}
	body, err := json.Marshal(rowsRequest{Epoch: p.Epoch, Rows: append(reqs, reqs[0])})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(c.servers[0].URL+"/internal/rows", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env struct{ Error, Code string }
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil || resp.StatusCode != http.StatusBadRequest ||
		env.Code != "bad_request" {
		t.Fatalf("%d rows from a shard owning %d blocks: HTTP %d %+v (%v), want 400 bad_request",
			len(reqs)+1, len(reqs), resp.StatusCode, env, err)
	}
}

// FuzzRowsRequest: whatever a frontend, or anything else, POSTs to
// /internal/rows, the shard handler answers without a panic and without a
// 5xx, and a 200 carries one well-formed row per requested pair, no more
// rows than the shard owns blocks.
func FuzzRowsRequest(f *testing.F) {
	o := apsp.NewOracle(testGraph())
	p, err := PlanShards(o, PlanOptions{Shards: 2})
	if err != nil {
		f.Fatal(err)
	}
	var snap bytes.Buffer
	if _, err := o.WriteShardSnapshot(&snap, apsp.ShardMeta{Epoch: p.Epoch, Shard: 0, NumShards: 2}, p.OwnedMask(0)); err != nil {
		f.Fatal(err)
	}
	sb, err := apsp.ReadShardSnapshot(bytes.NewReader(snap.Bytes()))
	if err != nil {
		f.Fatal(err)
	}
	h := NewHandler(sb)

	var owned [][2]int32
	unowned := int32(-1)
	for b, verts := range p.o.BCT.BlockVerts {
		if p.BlockShard[b] == 0 {
			owned = append(owned, [2]int32{int32(b), verts[0]})
		} else {
			unowned = int32(b)
		}
	}
	for _, req := range []rowsRequest{
		{Epoch: p.Epoch, Rows: owned},
		{Epoch: p.Epoch, Rows: append(owned[1:], owned[0], owned[0])},
		{Epoch: p.Epoch + 1, Rows: owned},
		{Epoch: p.Epoch, Rows: [][2]int32{{unowned, 0}}},
		{Epoch: p.Epoch, Rows: [][2]int32{{int32(len(p.BlockShard)), 0}, {-1, -1}}},
		{Epoch: p.Epoch, Rows: [][2]int32{{owned[0][0], 1 << 30}}},
	} {
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	for _, seed := range []string{"", "{}", "null", "[]", `{"epoch":-1}`, `{"rows":[[0]]}`, `{"rows":[[0,0,0]]} trailing`} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		w := httptest.NewRecorder()
		h.Rows(w, httptest.NewRequest(http.MethodPost, "/internal/rows", bytes.NewReader(data)))
		if w.Code >= 500 {
			t.Fatalf("HTTP %d: %s", w.Code, w.Body.Bytes())
		}
		if w.Code != http.StatusOK {
			return
		}
		var req rowsRequest // decoded as the handler decodes it
		if err := json.NewDecoder(bytes.NewReader(data)).Decode(&req); err != nil {
			t.Fatalf("HTTP 200 for a body that does not decode: %v", err)
		}
		if len(req.Rows) > sb.OwnedBlocks() {
			t.Fatalf("HTTP 200 for %d rows from a shard owning %d blocks", len(req.Rows), sb.OwnedBlocks())
		}
		lens := make([]int, len(req.Rows))
		for i, pair := range req.Rows {
			lens[i] = sb.BlockLen(pair[0])
		}
		if _, err := decodeRowsResponse(w.Body, p.Epoch, req.Rows, lens); err != nil {
			t.Fatalf("HTTP 200 body does not decode as the %d requested rows: %v", len(req.Rows), err)
		}
	})
}

func typedWireErr(err error) bool {
	return errors.Is(err, snapshot.ErrBadMagic) || errors.Is(err, snapshot.ErrVersionSkew) ||
		errors.Is(err, snapshot.ErrChecksum) || errors.Is(err, snapshot.ErrCorrupt) ||
		errors.Is(err, snapshot.ErrWrongKind) || errors.Is(err, ErrEpochMismatch)
}

// FuzzDecodeRowsResponse: whatever a shard sends back, the frontend's
// decoder returns rows matching the request or a typed error — never a
// panic, never rows of the wrong shape.
func FuzzDecodeRowsResponse(f *testing.F) {
	c := newCluster(f, testGraph(), 1, clusterOpts{})
	p := c.plan
	reqs, lens, raw := rowsExchange(f, p, c.servers[0].URL)
	f.Add(raw)
	f.Add(raw[:len(raw)/2])
	f.Add([]byte(snapshot.Magic))
	f.Fuzz(func(t *testing.T, data []byte) {
		rows, err := decodeRowsResponse(bytes.NewReader(data), p.Epoch, reqs, lens)
		if err != nil {
			if !typedWireErr(err) {
				t.Fatalf("untyped error %v", err)
			}
			return
		}
		if len(rows) != len(reqs) {
			t.Fatalf("%d rows for %d requests", len(rows), len(reqs))
		}
		for i := range rows {
			if len(rows[i]) != lens[i] {
				t.Fatalf("row %d has %d values, want %d", i, len(rows[i]), lens[i])
			}
		}
	})
}

// cyclicManifest hand-writes a manifest that passes every load check yet
// whose block-cut topology is no forest: a triangle whose three edges are
// three components, every vertex flagged an articulation point, so three
// blocks form a cycle through three APs. Its payload version is read off
// a real manifest.
func cyclicManifest(t testing.TB, manifest []byte) []byte {
	sr, err := snapshot.NewReader(bytes.NewReader(manifest))
	if err != nil {
		t.Fatal(err)
	}
	version := sr.Section("meta").U32()
	sw := snapshot.NewWriter()
	md := sw.Section("meta")
	md.U32(version)
	md.U64(3) // vertices
	md.U64(3) // blocks
	md.U64(3) // articulation points
	md.I64(0) // relaxations
	md.U32(0) // flags
	ce := sw.Section("cluster")
	ce.U64(1) // epoch
	ce.I32(1) // shards
	ce.I32(apsp.Frontend)
	ce.I32s([]int32{0, 0, 0})
	graph.FromEdges(3, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 2, V: 0, W: 1}}).
		EncodeSnapshot(sw.Section("graph"))
	bd := sw.Section("bcc")
	bd.U64(3)
	for e := int32(0); e < 3; e++ {
		bd.I32s([]int32{e})
	}
	bd.Bools([]bool{true, true, true})
	sw.Section("blocks") // a plan holds no block tables
	at := sw.Section("aptable")
	at.U32(1)                        // table kind: upper triangle, float64
	at.F64s(make([]graph.Weight, 6)) // the 3×3 triangle
	var buf bytes.Buffer
	if _, err := sw.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReadPlan: a manifest is rejected with a typed error or yields a
// plan the stitch kernel can walk from any source without panicking. The
// seeds hold an oracle and a shard snapshot too, so the wrong-kind
// refusal is mutated as well.
func FuzzReadPlan(f *testing.F) {
	c := newCluster(f, testGraph(), 1, clusterOpts{})
	var mbuf, obuf, sbuf bytes.Buffer
	if _, err := c.plan.WriteTo(&mbuf); err != nil {
		f.Fatal(err)
	}
	if _, err := c.o.WriteTo(&obuf); err != nil {
		f.Fatal(err)
	}
	meta := apsp.ShardMeta{Epoch: c.plan.Epoch, Shard: 0, NumShards: 1}
	if _, err := c.o.WriteShardSnapshot(&sbuf, meta, c.plan.OwnedMask(0)); err != nil {
		f.Fatal(err)
	}
	manifest := mbuf.Bytes()
	cyclic := cyclicManifest(f, manifest)
	if _, err := ReadPlan(bytes.NewReader(cyclic)); err != nil {
		f.Fatalf("cyclic manifest refused: %v", err)
	}
	for _, seed := range [][]byte{manifest, manifest[:len(manifest)/3], []byte(snapshot.Magic), cyclic, obuf.Bytes(), sbuf.Bytes()} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ReadPlan(bytes.NewReader(data))
		if err != nil {
			if !typedWireErr(err) {
				t.Fatalf("untyped error %v", err)
			}
			return
		}
		out := make([]graph.Weight, p.NumVertices)
		zero := func(_ []apsp.BlockWant, rows [][]graph.Weight) error {
			for _, r := range rows {
				for i := range r {
					r[i] = 0
				}
			}
			return nil
		}
		for u := 0; u < p.NumVertices && u < 64; u++ {
			if _, err := p.o.StitchRow(int32(u), out, zero); err != nil {
				t.Fatalf("kernel row %d over an accepted plan: %v", u, err)
			}
		}
	})
}

// BenchmarkRemoteSourceRow measures one whole-graph row through a
// frontend: the stitch kernel over the plan, with block rows fetched
// from two real shard.Handlers on loopback httptest servers. Recorded in
// CI, not gated — it is dominated by the HTTP exchange.
func BenchmarkRemoteSourceRow(b *testing.B) {
	c := newCluster(b, testGraph(), 2, clusterOpts{})
	p, src := c.plan, c.src
	n := int32(p.NumVertices)
	row := make([]graph.Weight, n)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := src.RowCtx(ctx, int32(i)%n, row); err != nil {
			b.Fatal(err)
		}
	}
}
