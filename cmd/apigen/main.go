// Command apigen renders the declarative route table in internal/api as
// the OpenAPI document api/openapi.yaml. The spec is generated, never
// hand-edited: -out writes the file, -check verifies the checked-in copy
// matches the current route table byte-for-byte and exits non-zero on
// drift (the CI gate). Because cmd/oracled mounts its mux from the same
// table, spec and server cannot disagree.
//
//	go run ./cmd/apigen -out api/openapi.yaml
//	go run ./cmd/apigen -check api/openapi.yaml
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"

	"repro/internal/api"
)

func main() {
	out := flag.String("out", "", "write the generated OpenAPI spec to this path")
	check := flag.String("check", "", "verify this checked-in spec matches the route table; exit 1 on drift")
	flag.Parse()
	if (*out == "") == (*check == "") {
		fmt.Fprintln(os.Stderr, "apigen: exactly one of -out or -check is required")
		os.Exit(2)
	}
	spec := api.OpenAPI()
	if *out != "" {
		if err := os.WriteFile(*out, spec, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "apigen: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "apigen: wrote %s (%d bytes)\n", *out, len(spec))
		return
	}
	have, err := os.ReadFile(*check)
	if err != nil {
		fmt.Fprintf(os.Stderr, "apigen: %v\n", err)
		os.Exit(1)
	}
	if !bytes.Equal(have, spec) {
		fmt.Fprintf(os.Stderr, "apigen: %s is stale — regenerate with: go run ./cmd/apigen -out %s\n", *check, *check)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "apigen: %s matches the route table\n", *check)
}
