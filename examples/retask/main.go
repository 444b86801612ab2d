// Retask: the flexibility pitch of the Smart Blocks project (§I). A classic
// monolithic conveyor must be replaced when the output point of the line
// changes; a modular surface simply rebuilds itself. This example runs the
// same initial blob against two different output points — the "morning
// shift" and the "afternoon shift" — and reports the cost of each
// deployment.
//
// One session engine serves both deployments, one Engine.Run each.
//
// (Rebuilding directly from a finished column is deliberately not shown:
// a bare 1-wide column is exactly the blocking shape Remark 1 warns about —
// blocks in a line have no lateral support and cannot restart. A real line
// would redeploy from the compact blob, as modelled here.)
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/rules"
	"repro/internal/scenario"
	"repro/internal/trace"
)

func main() {
	// One session engine serves every deployment of the day.
	eng := core.NewEngine(rules.StandardLibrary(), core.WithSeed(1))

	shifts := []struct {
		name string
		rise int
	}{
		// Morning: a short line. Afternoon: the pick-up point moved three
		// rows further.
		{"morning shift", 7},
		{"afternoon shift", 10},
	}

	for _, sh := range shifts {
		// The same 12-block staircase blob each time.
		s, err := scenario.Staircase("blob", []int{5, 5, 2}, sh.rise)
		if err != nil {
			log.Fatal(err)
		}
		res, err := eng.Run(context.Background(), s.Surface, s.Config())
		fmt.Printf("=== %s: output at %s (%d cells above the input) ===\n",
			sh.name, s.Output, sh.rise)
		if err != nil {
			log.Fatalf("%s deployment failed: %v", sh.name, err)
		}
		if !res.Success {
			log.Fatalf("%s deployment failed: %v", sh.name, res)
		}
		fmt.Println(trace.Render(s.Surface, s.Input, s.Output))
		fmt.Printf("deployed with %d elections and %d block moves\n\n",
			res.Rounds, res.Hops)
	}

	fmt.Println("the same blocks served both layouts; a monolithic conveyor would have")
	fmt.Println("been replaced (paper §I: conveyors are designed for a fixed environment)")
}
