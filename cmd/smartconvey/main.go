// Command smartconvey runs a Smart Blocks reconfiguration end to end: it
// builds a scenario, executes the distributed algorithm on the chosen
// engine, renders the Fig. 10/11-style storyboard, and optionally conveys
// micro-parts along the built path.
//
// Usage:
//
//	smartconvey [flags]
//
//	-scenario fig10|tower:N|stair:H1,H2,...|slope:TOP|ridge
//	                                         instance to run (default fig10)
//	-rise N                                  path rise for stair/slope scenarios
//	-engine des|async                        execution backend (default des)
//	-parallel K                              elect up to K non-interfering blocks
//	                                         per round (default 1 = the paper's
//	                                         serial protocol)
//	-seed N                                  random seed (default 1)
//	-timeout D                               wall-clock bound (e.g. 30s; 0 = backend
//	                                         default: none for des, 60s for async)
//	-frames                                  print a frame after every motion
//	-json FILE                               write the recorded run as JSON
//	-parts N                                 convey N parts after building
//	-quiet                                   result line only
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/convey"
	"repro/internal/core"
	"repro/internal/rules"
	"repro/internal/scenario"
	"repro/internal/trace"
)

func main() {
	var (
		scen     = flag.String("scenario", "fig10", "fig10 | tower:N | stair:H1,H2,... | slope:TOP | ridge")
		rise     = flag.Int("rise", 0, "path rise for stair/slope scenarios (default: blocks-2 / TOP+6)")
		engine   = flag.String("engine", "des", "des (deterministic) | async (goroutines)")
		parallel = flag.Int("parallel", 1, "election batch width K (1 = serial paper protocol)")
		seed     = flag.Int64("seed", 1, "random seed")
		timeout  = flag.Duration("timeout", 0, "wall-clock bound (0 = backend default: none for des, 60s for async)")
		frames   = flag.Bool("frames", false, "print a frame after every motion")
		jsonF    = flag.String("json", "", "write the recorded run to this file")
		svgF     = flag.String("svg", "", "write the final state as SVG to this file")
		parts    = flag.Int("parts", 0, "convey N parts along the built path")
		quiet    = flag.Bool("quiet", false, "result line only")
	)
	flag.Parse()

	s, err := scenario.Parse(*scen, *rise)
	if err != nil {
		fail(err)
	}
	if !*quiet {
		fmt.Printf("scenario %s: %d blocks, I=%s, O=%s, path %d cells\n",
			s.Name, s.Surface.NumBlocks(), s.Input, s.Output, s.Input.Manhattan(s.Output)+1)
		fmt.Println("initial configuration:")
		fmt.Println(trace.Render(s.Surface, s.Input, s.Output))
	}

	rec := trace.NewRecorder(s.Surface, s.Input, s.Output, *frames)
	opts := []core.Option{core.WithSeed(*seed), core.WithObserver(rec)}
	switch *engine {
	case "des":
		// DES is the default backend.
	case "async":
		opts = append(opts, core.WithBackend(core.Async))
	default:
		fail(fmt.Errorf("unknown engine %q", *engine))
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
		opts = append(opts, core.WithTimeout(*timeout))
	}
	cfg := s.Config()
	cfg.ParallelMoves = *parallel
	eng := core.NewEngine(rules.StandardLibrary(), opts...)
	res, err := eng.Run(ctx, s.Surface, cfg)
	if err != nil {
		fail(err)
	}

	if *frames {
		for _, st := range rec.Steps() {
			fmt.Printf("step %d: %s\n%s\n", st.Index, st.Rule, st.Frame)
		}
	}
	if !*quiet {
		fmt.Println("final configuration:")
		fmt.Println(trace.Render(s.Surface, s.Input, s.Output))
	}
	fmt.Println(res)

	if *jsonF != "" {
		data, err := rec.JSON()
		if err != nil {
			fail(err)
		}
		if err := os.WriteFile(*jsonF, data, 0o644); err != nil {
			fail(err)
		}
		if !*quiet {
			fmt.Printf("run written to %s (%d steps)\n", *jsonF, len(rec.Steps()))
		}
	}

	if *svgF != "" {
		if err := os.WriteFile(*svgF, []byte(trace.SVG(s.Surface, s.Input, s.Output)), 0o644); err != nil {
			fail(err)
		}
		if !*quiet {
			fmt.Printf("final state written to %s\n", *svgF)
		}
	}

	if *parts > 0 {
		if !res.Success {
			fail(fmt.Errorf("cannot convey: reconfiguration failed"))
		}
		c, err := convey.New(s.Surface, s.Input, s.Output)
		if err != nil {
			fail(err)
		}
		injected, delivered := 0, 0
		for tick := 0; delivered < *parts; tick++ {
			if injected < *parts {
				if _, err := c.Inject(); err == nil {
					injected++
				}
			}
			delivered += len(c.Tick())
			if tick > 10*(*parts)+10*c.PathLength() {
				fail(fmt.Errorf("conveying stalled at %d/%d", delivered, *parts))
			}
		}
		fmt.Printf("conveyed %d parts over %d cells in %d ticks (steady-state 1 part/tick)\n",
			delivered, c.PathLength(), c.Ticks())
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "smartconvey:", err)
	os.Exit(1)
}
