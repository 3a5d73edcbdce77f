// Command apigen renders the declarative route table in internal/api as
// the OpenAPI document api/openapi.yaml. The spec is generated, never
// hand-edited; tier-1's TestTreeInvariants fails when the checked-in copy
// differs from the current route table by a byte. Because cmd/oracled
// mounts its mux from the same table, spec and server cannot disagree.
//
//	go run ./cmd/apigen -out api/openapi.yaml
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/api"
)

func main() {
	out := flag.String("out", "", "write the generated OpenAPI spec to this path")
	flag.Parse()
	if *out == "" {
		fmt.Fprintln(os.Stderr, "apigen: -out is required")
		os.Exit(2)
	}
	spec := api.OpenAPI()
	if err := os.WriteFile(*out, spec, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "apigen: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "apigen: wrote %s (%d bytes)\n", *out, len(spec))
}
