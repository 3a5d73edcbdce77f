package api

import (
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"strings"
)

// OpenAPI renders the route table as an OpenAPI 3.0 document in YAML.
// The output is deterministic — same table, same bytes — which is what
// lets tier-1 compare it with the checked-in api/openapi.yaml instead of
// trusting anyone to hand-sync the two. The emitter is deliberately tiny
// (the repo takes no YAML dependency): two-space indentation, double-
// quoted scalars, keys sorted where the source order isn't meaningful.
// Every component schema is derived from the Go type an op names, so a
// body's schema cannot drift from the struct the daemon encodes.
func OpenAPI() []byte {
	d := &document{schemas: map[reflect.Type]string{}}
	w := d.line
	q := strconv.Quote

	w(0, "# Generated from internal/api (go run ./cmd/apigen -out api/openapi.yaml).")
	w(0, "# Do not edit by hand: CI regenerates and diffs this file.")
	w(0, "openapi: 3.0.3")
	w(0, "info:")
	w(1, "title: %s", q("oracled — ear-decomposition shortest path/cycle oracle"))
	w(1, "description: %s", q("Versioned /v1 HTTP API: point and batch shortest-path queries, "+
		"minimum-cycle-basis access, live edge deltas, multi-tenant graph administration, and the "+
		"async job tier (batch_matrix and bc jobs with resumable NDJSON result streams)."))
	w(1, "version: %s", q("1"))
	w(0, "paths:")

	type mount struct {
		path   string
		rt     Route
		scoped bool
	}
	var mounts []mount
	for _, rt := range Routes() {
		mounts = append(mounts, mount{path: rt.Path, rt: rt})
		if rt.GraphScoped {
			mounts = append(mounts, mount{path: Scoped(rt.Path), rt: rt, scoped: true})
		}
	}
	sort.Slice(mounts, func(i, j int) bool { return mounts[i].path < mounts[j].path })

	for _, mt := range mounts {
		w(1, "%s:", mt.path)
		for _, op := range mt.rt.Ops {
			w(2, "%s:", strings.ToLower(op.Method))
			summary := op.Summary
			if mt.scoped {
				summary += " (named graph)"
			}
			w(3, "summary: %s", q(summary))
			w(3, "operationId: %s", q(opID(op.Method, mt.path)))
			params := pathParams(mt.path)
			if len(params)+len(op.Params) > 0 {
				w(3, "parameters:")
				for _, name := range params {
					w(4, "- name: %s", q(name))
					w(5, "in: path")
					w(5, "required: true")
					w(5, "schema:")
					w(6, "type: string")
				}
				for _, p := range op.Params {
					w(4, "- name: %s", q(p.Name))
					w(5, "in: query")
					if p.Required {
						w(5, "required: true")
					}
					w(5, "description: %s", q(p.Desc))
					w(5, "schema:")
					w(6, "type: %s", p.Type)
				}
			}
			if op.Body != nil {
				w(3, "requestBody:")
				w(4, "required: true")
				w(4, "content:")
				if _, raw := op.Body.([]byte); raw {
					w(5, "application/octet-stream:")
					w(6, "schema:")
					w(7, "type: string")
					w(7, "format: binary")
				} else {
					w(5, "application/json:")
					w(6, "schema:")
					d.schema(7, reflect.TypeOf(op.Body), "")
				}
			}
			w(3, "responses:")
			status := "200"
			if op.Accepted {
				status = "202"
			}
			w(4, "%s:", q(status))
			if op.NDJSON {
				w(5, "description: %s", q("newline-delimited JSON result rows; resume with the byte offset of the next row"))
				w(5, "content:")
				w(6, "application/x-ndjson:")
				w(7, "schema:")
				w(8, "type: string")
			} else {
				w(5, "description: success")
				w(5, "content:")
				w(6, "application/json:")
				w(7, "schema:")
				d.schema(8, reflect.TypeOf(op.Response), "")
			}
			w(4, "default:")
			w(5, "description: %s", q("uniform error envelope"))
			w(5, "content:")
			w(6, "application/json:")
			w(7, "schema:")
			d.schema(8, reflect.TypeOf(ErrorEnvelope{}), "")
		}
	}

	w(0, "components:")
	w(1, "schemas:")
	types := make([]reflect.Type, 0, len(d.schemas))
	for t := range d.schemas {
		types = append(types, t)
	}
	sort.Slice(types, func(i, j int) bool { return types[i].Name() < types[j].Name() })
	for i, t := range types {
		if i > 0 && types[i-1].Name() == t.Name() {
			panic("api: two wire types named " + t.Name() + " would share one schema")
		}
		d.WriteString(d.schemas[t])
	}
	return []byte(d.String())
}

// opID derives a unique operationId: method + path with separators
// camel-ready and parameters inlined ("get_v1_jobs_id_results").
func opID(method, path string) string {
	s := strings.NewReplacer("/", "_", "{", "", "}", "", "-", "_").Replace(strings.Trim(path, "/"))
	return strings.ToLower(method) + "_" + s
}

// pathParams extracts {param} segments in order.
func pathParams(path string) []string {
	var out []string
	for _, seg := range strings.Split(path, "/") {
		if strings.HasPrefix(seg, "{") && strings.HasSuffix(seg, "}") {
			out = append(out, seg[1:len(seg)-1])
		}
	}
	return out
}

// document is the YAML being written plus, by type, the rendered
// component schema of every struct it has referenced. A component is
// named by its Go type name.
type document struct {
	strings.Builder
	schemas map[reflect.Type]string
}

func (d *document) line(indent int, format string, args ...interface{}) {
	d.WriteString(strings.Repeat("  ", indent))
	fmt.Fprintf(d, format, args...)
	d.WriteByte('\n')
}

var rawMessage = reflect.TypeOf(json.RawMessage(nil))

// schema writes the schema of a value of type t at indent: for a struct
// a $ref (which carries no description) to its component, rendered on
// first reference; else its JSON type, desc, and for a slice or array the
// schema of its items. json.RawMessage is an object.
func (d *document) schema(indent int, t reflect.Type, desc string) {
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	if t.Kind() == reflect.Struct {
		d.component(t)
		d.line(indent, "$ref: %s", strconv.Quote("#/components/schemas/"+t.Name()))
		return
	}
	typ := "object" // json.RawMessage, maps, interfaces
	switch t.Kind() {
	case reflect.Bool:
		typ = "boolean"
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		typ = "integer"
	case reflect.Float32, reflect.Float64:
		typ = "number"
	case reflect.String:
		typ = "string"
	case reflect.Slice, reflect.Array:
		if t != rawMessage {
			typ = "array"
		}
	}
	d.line(indent, "type: %s", typ)
	if desc != "" {
		d.line(indent, "description: %s", strconv.Quote(desc))
	}
	if typ == "array" {
		d.line(indent, "items:")
		d.schema(indent+1, t.Elem(), "")
	}
}

// component renders struct t's schema once: its JSON members in encoding
// order, each described by its doc tag.
func (d *document) component(t reflect.Type) {
	if _, done := d.schemas[t]; done {
		return
	}
	d.schemas[t] = "" // a self-referencing type stops here
	c := &document{schemas: d.schemas}
	c.line(2, "%s:", t.Name())
	c.line(3, "type: object")
	c.line(3, "properties:")
	for _, f := range properties(t) {
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if name == "" {
			name = f.Name
		}
		c.line(4, "%s:", name)
		c.schema(5, f.Type, f.Tag.Get("doc"))
	}
	d.schemas[t] = c.String()
}

// properties lists the fields encoding/json writes for t, in order: an
// untagged embedded struct is flattened into its parent, and unexported
// and "-" fields are skipped.
func properties(t reflect.Type) []reflect.StructField {
	var out []reflect.StructField
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		tag := f.Tag.Get("json")
		switch {
		case f.Anonymous && tag == "" && f.Type.Kind() == reflect.Struct:
			out = append(out, properties(f.Type)...)
		case f.IsExported() && tag != "-":
			out = append(out, f)
		}
	}
	return out
}
