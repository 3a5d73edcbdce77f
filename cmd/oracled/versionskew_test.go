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
	g := gen.ChainBlocks([]*graph.Graph{
		gen.Ring(5, gen.Config{MaxWeight: 9}, gen.NewRNG(1)),
		gen.Ring(6, gen.Config{MaxWeight: 9}, gen.NewRNG(2)),
	}, gen.Config{MaxWeight: 9}, gen.NewRNG(3))
	o := apsp.NewOracle(g)
	p, err := shard.PlanShards(o, shard.PlanOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	var oracle, shardSnap, plan, earg bytes.Buffer
	if _, err := o.WriteTo(&oracle); err != nil {
		t.Fatal(err)
	}
	if _, err := o.WriteShardSnapshot(&shardSnap, apsp.ShardMeta{Epoch: p.Epoch, Shard: 0, NumShards: 2}, p.OwnedMask(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := p.WriteTo(&plan); err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteBinary(&earg, g); err != nil {
		t.Fatal(err)
	}
	job, openJobs := jobFile(t)

	dir, _, _ := snapDir(t)
	s, _ := multiServer(t, dir, 4)
	ts := httptest.NewServer(s.mux)
	defer ts.Close()
	put := func(data []byte) error {
		req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/graphs/up", bytes.NewReader(data))
		if err != nil {
			return err
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		var env struct{ Error, Code string }
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil || resp.StatusCode == http.StatusOK {
			return err
		}
		if resp.StatusCode == http.StatusBadRequest && env.Code == "bad_request" &&
			strings.Contains(env.Error, snapshot.ErrVersionSkew.Error()) {
			return fmt.Errorf("%s: %w", env.Error, snapshot.ErrVersionSkew)
		}
		return fmt.Errorf("HTTP %d %+v", resp.StatusCode, env)
	}

	for _, c := range []struct {
		name string
		data []byte
		read func([]byte) error
	}{
		{"oracle snapshot", oracle.Bytes(), func(b []byte) error { _, err := apsp.ReadOracle(bytes.NewReader(b)); return err }},
		{"shard snapshot", shardSnap.Bytes(), func(b []byte) error { _, err := apsp.ReadShardSnapshot(bytes.NewReader(b)); return err }},
		{"plan", plan.Bytes(), func(b []byte) error { _, err := shard.ReadPlan(bytes.NewReader(b)); return err }},
		{".earg", earg.Bytes(), func(b []byte) error { _, err := graph.ReadBinary(bytes.NewReader(b)); return err }},
		{"job file", job, openJobs},
		{"PUT /v1/graphs/{name}", oracle.Bytes(), put},
	} {
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
