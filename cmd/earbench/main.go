// Command earbench regenerates the paper's evaluation tables and figures
// on the synthetic dataset stand-ins:
//
//	earbench -exp table1          # dataset structure & memory model
//	earbench -exp fig2            # APSP time vs Banerjee / Djidjev
//	earbench -exp fig3            # APSP MTEPS comparison
//	earbench -exp table2          # MCB: 4 implementations × {ear, no-ear}
//	earbench -exp fig5            # MCB speedups over sequential
//	earbench -exp fig6            # MCB absolute runtimes
//	earbench -exp phases          # Section 3.5 phase breakdown
//	earbench -exp bc              # extension: betweenness centrality
//	earbench -exp all             # everything
//
// The -scale flag sets the dataset size as a fraction of the paper's
// |V|/|E| (default 0.03; the paper's sizes need hours of APSP at 1.0).
// With -csv the raw data rows are emitted as CSV instead of text tables.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cli"
	"repro/internal/datasets"
	"repro/internal/exp"
	"repro/internal/par"
)

func main() {
	var (
		expName  = flag.String("exp", "all", "experiment: table1, fig2, fig3, table2, fig5, fig6, phases, bc, scaling, all")
		scale    = flag.Float64("scale", 0.03, "dataset scale (fraction of the paper's sizes)")
		mcbScale = flag.Float64("mcb-scale", 0, "override scale for the MCB experiments (default scale/2)")
		seed     = flag.Uint64("seed", 1, "generator seed")
		workers  = flag.Int("workers", par.Workers(), "goroutine workers for real parallel phases")
		asCSV    = flag.Bool("csv", false, "emit raw CSV instead of formatted tables")
	)
	cli.SetUsage("earbench", "-exp name [flags]")
	flag.Parse()
	if *mcbScale == 0 {
		*mcbScale = *scale / 2
	}

	out := os.Stdout
	want := func(names ...string) bool {
		if *expName == "all" {
			return true
		}
		for _, n := range names {
			if n == *expName {
				return true
			}
		}
		return false
	}
	fail := func(err error) {
		cli.Fatalf("earbench", "%v", err)
	}

	ran := false
	if want("table1") {
		ran = true
		rows := exp.RunTable1(*scale, *seed)
		if *asCSV {
			if err := exp.WriteTable1CSV(out, rows); err != nil {
				fail(err)
			}
		} else {
			exp.WriteTable1(out, rows, *scale)
			fmt.Fprintln(out)
		}
	}
	if want("fig2", "fig3") {
		ran = true
		rows := exp.RunAPSPComparison(datasets.Table1, *scale, *seed, *workers)
		if *asCSV {
			if err := exp.WriteAPSPCSV(out, rows); err != nil {
				fail(err)
			}
		} else {
			if want("fig2") {
				exp.WriteFig2(out, rows, *scale)
				fmt.Fprintln(out)
			}
			if want("fig3") {
				exp.WriteFig3(out, rows, *scale)
				fmt.Fprintln(out)
			}
		}
	}
	if want("table2", "fig5", "fig6", "phases") {
		ran = true
		rows, err := exp.RunMCB(exp.MCBSpecs(), *mcbScale, *seed, *workers)
		if err != nil {
			fail(err)
		}
		if *asCSV {
			if err := exp.WriteMCBCSV(out, rows); err != nil {
				fail(err)
			}
		} else {
			if want("table2") {
				exp.WriteTable2(out, rows, *mcbScale)
				fmt.Fprintln(out)
			}
			if want("fig5") {
				exp.WriteFig5(out, rows, *mcbScale)
				fmt.Fprintln(out)
			}
			if want("fig6") {
				exp.WriteFig6(out, rows, *mcbScale)
				fmt.Fprintln(out)
			}
			if want("phases") {
				exp.WritePhases(out, rows, *mcbScale)
				fmt.Fprintln(out)
			}
		}
	}
	if want("bc") {
		ran = true
		rows := exp.RunBC(exp.MCBSpecs(), *mcbScale, *seed)
		exp.WriteBC(out, rows, *mcbScale)
		fmt.Fprintln(out)
	}
	if *expName == "scaling" {
		ran = true
		spec, err := datasets.ByName("as-22july06")
		if err != nil {
			fail(err)
		}
		scales := []float64{*scale / 2, *scale, *scale * 2, *scale * 4}
		rows := exp.RunScaling(spec, scales, *seed, *workers)
		exp.WriteScaling(out, spec.Name, rows)
		fmt.Fprintln(out)
	}
	if !ran {
		cli.BadUsage("earbench", "unknown experiment %q", *expName)
	}
}
