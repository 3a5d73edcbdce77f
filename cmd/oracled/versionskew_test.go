package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc64"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/apsp"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/jobs"
	"repro/internal/registry"
	"repro/internal/shard"
	"repro/internal/snapshot"
)

// asV1 rewrites a container the way the version-1 writer laid it out:
// the same header, table and payloads, but version word 1 and a
// CRC-64/ECMA checksum in every section's slot.
func asV1(data []byte) []byte {
	out := slices.Clone(data)
	le := binary.LittleEndian
	le.PutUint32(out[len(snapshot.Magic):], 1)
	ecma := crc64.MakeTable(crc64.ECMA)
	for i := 0; i < int(le.Uint32(out[len(snapshot.Magic)+4:])); i++ {
		ent := out[snapshot.Overhead(i):] // table entry i: name, offset, length, checksum
		off, n := le.Uint64(ent[8:]), le.Uint64(ent[16:])
		le.PutUint64(ent[24:], crc64.Checksum(out[off:off+n], ecma))
	}
	return out
}

// TestV1ContainersRefused: the reader accepts exactly the container
// version it writes. Every kind of file and upload loads as written, and
// the same bytes as a version-1 container are version skew — typed, and
// over HTTP a 400 whose envelope names it.
func TestV1ContainersRefused(t *testing.T) {
	g, kinds := threeKinds(t)
	var earg bytes.Buffer
	if err := graph.WriteBinary(&earg, g); err != nil {
		t.Fatal(err)
	}
	job, openJobs := jobFile(t)

	dir, _, _ := snapDir(t)
	s, _ := multiServer(t, dir, 4)
	ts := httptest.NewServer(s.mux)
	defer ts.Close()
	put := func(data []byte) error {
		status, env, err := putGraph(ts, data)
		if err != nil || status == http.StatusOK {
			return err
		}
		if status == http.StatusBadRequest && env.Code == "bad_request" &&
			strings.Contains(env.Error, snapshot.ErrVersionSkew.Error()) {
			return fmt.Errorf("%s: %w", env.Error, snapshot.ErrVersionSkew)
		}
		return fmt.Errorf("HTTP %d %+v", status, env)
	}

	cases := append(kinds,
		fileKind{name: ".earg", data: earg.Bytes(), read: func(b []byte) error { _, err := graph.ReadBinary(bytes.NewReader(b)); return err }},
		fileKind{name: "job file", data: job, read: openJobs},
		fileKind{name: "PUT /v1/graphs/{name}", data: kinds[0].data, read: put})
	for _, c := range cases {
		if err := c.read(c.data); err != nil {
			t.Fatalf("%s as written: %v", c.name, err)
		}
		if err := c.read(asV1(c.data)); !errors.Is(err, snapshot.ErrVersionSkew) {
			t.Errorf("%s as v1: err = %v, want ErrVersionSkew", c.name, err)
		}
	}
	// The refused upload left the directory as the last good one did.
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 1 || ents[0].Name() != "up.snap" {
		t.Errorf("snapshot directory after the refused upload: %v (%v)", ents, err)
	}
}

// fileKind is one of the three files of a deployment: its bytes for a
// small two-block oracle, its reader, and the oracled flag that loads it.
type fileKind struct {
	name, flag string
	data       []byte
	read       func([]byte) error
}

// threeKinds writes the oracle snapshot, shard 0's snapshot and the plan
// manifest of a two-shard plan of one small graph.
func threeKinds(t *testing.T) (*graph.Graph, []fileKind) {
	g := gen.ChainBlocks([]*graph.Graph{
		gen.Ring(5, gen.Config{MaxWeight: 9}, gen.NewRNG(1)),
		gen.Ring(6, gen.Config{MaxWeight: 9}, gen.NewRNG(2)),
	}, gen.Config{MaxWeight: 9}, gen.NewRNG(3))
	o := apsp.NewOracle(g)
	p, err := shard.PlanShards(o, shard.PlanOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	var oracle, shardSnap, plan bytes.Buffer
	if _, err := o.WriteTo(&oracle); err != nil {
		t.Fatal(err)
	}
	if _, err := o.WriteShardSnapshot(&shardSnap, apsp.ShardMeta{Epoch: p.Epoch, Shard: 0, NumShards: 2}, p.OwnedMask(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := p.WriteTo(&plan); err != nil {
		t.Fatal(err)
	}
	return g, []fileKind{
		{"oracle snapshot", "-load-snapshot", oracle.Bytes(),
			func(b []byte) error { _, err := apsp.ReadOracle(bytes.NewReader(b)); return err }},
		{"shard snapshot", "-shard-snapshot", shardSnap.Bytes(),
			func(b []byte) error { _, err := apsp.ReadShardSnapshot(bytes.NewReader(b)); return err }},
		{"plan manifest", "-cluster-plan", plan.Bytes(),
			func(b []byte) error { _, err := shard.ReadPlan(bytes.NewReader(b)); return err }},
	}
}

// putGraph uploads data as graph "up" and returns the status and, unless
// it is 200, the error envelope.
func putGraph(ts *httptest.Server, data []byte) (int, struct{ Error, Code string }, error) {
	var env struct{ Error, Code string }
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/graphs/up", bytes.NewReader(data))
	if err != nil {
		return 0, env, err
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		return 0, env, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		err = json.NewDecoder(resp.Body).Decode(&env)
	}
	return resp.StatusCode, env, err
}

// TestWrongKindRefusedByName: the three files share one layout, and each
// reader given either of the other two kinds refuses it with
// snapshot.ErrWrongKind, naming the kind it found and the flag that
// serves it. An upload of a shard snapshot or a plan stays a 400 whose
// envelope says the snapshot is invalid.
func TestWrongKindRefusedByName(t *testing.T) {
	_, kinds := threeKinds(t)
	for _, reader := range kinds {
		for _, file := range kinds {
			err := reader.read(file.data)
			if reader.name == file.name {
				if err != nil {
					t.Errorf("%s: %v", file.name, err)
				}
				continue
			}
			if !errors.Is(err, snapshot.ErrWrongKind) || !strings.Contains(err.Error(), file.name) ||
				!strings.Contains(err.Error(), file.flag) {
				t.Errorf("%s given to the %s reader: err = %v, want ErrWrongKind naming %q and %s",
					file.name, reader.name, err, file.name, file.flag)
			}
		}
	}

	dir, _, _ := snapDir(t)
	s, _ := multiServer(t, dir, 4)
	ts := httptest.NewServer(s.mux)
	defer ts.Close()
	for _, file := range kinds[1:] {
		status, env, err := putGraph(ts, file.data)
		if err != nil || status != http.StatusBadRequest || env.Code != "bad_request" ||
			!strings.Contains(env.Error, registry.ErrBadSnapshot.Error()) || !strings.Contains(env.Error, file.flag) {
			t.Errorf("PUT of a %s: HTTP %d %+v (%v), want 400 bad_request naming %q and %s",
				file.name, status, env, err, registry.ErrBadSnapshot, file.flag)
		}
	}
}

// jobFile returns the file of one submitted job, and a reader that opens a
// job directory holding the given bytes as that file.
func jobFile(t *testing.T) ([]byte, func([]byte) error) {
	host := func(context.Context, string) (jobs.GraphRef, error) { return nil, errors.New("no graphs") }
	open := func(dir string) (*jobs.Manager, error) { return jobs.Open(jobs.Config{Dir: dir, Host: host}) }
	dir := t.TempDir()
	m, err := open(dir)
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Submit(jobs.Spec{Kind: jobs.KindBatchMatrix, Graph: "g"})
	if err != nil {
		t.Fatal(err)
	}
	m.Close(context.Background())
	name := st.ID + ".job"
	data, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	return data, func(b []byte) error {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			return err
		}
		m, err := open(dir)
		if err == nil {
			m.Close(context.Background())
		}
		return err
	}
}
