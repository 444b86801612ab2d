// Command sbbench regenerates the paper's evaluation artefacts: every
// table, figure, remark and lemma has an experiment that reruns its
// workload and prints the measured rows next to the paper's claims:
// -list is the per-experiment index and -exp all the measured-vs-paper
// record. The module map is the repository's doc.go.
//
// Usage:
//
//	sbbench -list            list the experiments
//	sbbench -exp fig10       run one experiment
//	sbbench -exp all         run the full evaluation
//	sbbench -json            measure the hot-path kernels, write BENCH_NEW.json
//	sbbench -json -scale     add the 5e5/8e6 sharded flatness kernels
//
// -cpuprofile/-memprofile write pprof profiles of the measured work, so a
// regression flagged by benchdiff can be drilled into without a separate
// harness.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/experiments"
	"repro/internal/scenario"
)

func main() {
	var (
		list     = flag.Bool("list", false, "list the experiments")
		exp      = flag.String("exp", "", "experiment id, or 'all'")
		jsonMode = flag.Bool("json", false, "emit a machine-readable bench record")
		// A record checked in as a point of the trajectory is written
		// with an explicit -o BENCH_<N>.json; CI uploads the default.
		jsonOut    = flag.String("o", "BENCH_NEW.json", "output path for -json")
		scale      = flag.Bool("scale", false, "include the 5e5/8e6 sharded flatness kernels in -json (slow, hundreds of MB)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile at exit to this file")
	)
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sbbench: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "sbbench: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "sbbench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "sbbench: %v\n", err)
			}
		}()
	}

	if *jsonMode {
		data, err := experiments.RunBenchJSONWith(experiments.BenchOpts{Scale: *scale})
		if err != nil {
			fmt.Fprintf(os.Stderr, "sbbench: bench failed: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "sbbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *jsonOut)
		return
	}

	if *list {
		fmt.Printf("%-12s %s\n", "ID", "PAPER ARTEFACT")
		for _, e := range experiments.All() {
			fmt.Printf("%-12s %s\n", e.ID, e.Paper)
		}
		fmt.Printf("\n%-14s %s\n", "SCENARIO", "GENERATOR (shared registry: CLIs, examples, sbserver)")
		for _, g := range scenario.Generators() {
			params := ""
			for i, p := range g.Params {
				if i > 0 {
					params += ","
				}
				params += fmt.Sprintf("%s=%d", p.Name, p.Default)
			}
			if params != "" {
				params = " [" + params + "]"
			}
			fmt.Printf("%-14s %s%s\n", g.Name, g.Doc, params)
		}
		return
	}
	if *exp == "" {
		flag.Usage()
		os.Exit(2)
	}
	var toRun []experiments.Experiment
	if *exp == "all" {
		toRun = experiments.All()
	} else {
		e, ok := experiments.ByID(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "sbbench: unknown experiment %q (try -list)\n", *exp)
			os.Exit(2)
		}
		toRun = []experiments.Experiment{e}
	}
	failed := 0
	for _, e := range toRun {
		fmt.Printf("==> %s — %s\n\n", e.ID, e.Paper)
		out, err := e.Run()
		fmt.Println(out)
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "sbbench: %s FAILED: %v\n\n", e.ID, err)
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "sbbench: %d experiment(s) failed\n", failed)
		os.Exit(1)
	}
}
