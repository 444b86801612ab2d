//go:build scale

package repro

// Large-N smoke benchmarks at the paper's §VI scale (5e5 to 8e6 modules),
// kept behind the `scale` build tag so the default CI benchmark smoke stays
// fast. Run with:
//
//	go test -tags scale -bench LargeSurface -benchtime 1x -run xxx .
//
// They exercise the paths the ROADMAP flags at this size: the lazy
// connectivity rebuild (one full-width band vs column-band sharded), the
// per-event constrained verdict that must stay flat as the surface grows,
// and concurrent Engine.Run sessions. The sharded fixtures share the flatness
// geometry of the sbbench kernels: fixed fill height and band width, so a
// bigger surface means more bands, not bigger ones.

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/lattice"
	"repro/internal/rules"
	"repro/internal/scenario"
)

// largeSurfaceDims: 1500 x 1334 filled cells ≈ 2.0e6 modules on a surface
// with free headroom above (so motions have somewhere to go).
const (
	largeW      = 1500
	largeFillH  = 1334
	largeBlocks = largeW * largeFillH
)

var (
	largeOnce sync.Once
	largeSurf *lattice.Surface
	largeErr  error
)

// largeSurface builds the ~2e6-module surface once per process, on one
// full-width band: NewSurface would band it by width, and RebuildConn
// times the one-band rebuild.
func largeSurface() (*lattice.Surface, error) {
	largeOnce.Do(func() {
		surf, err := lattice.NewSurface(largeW, largeFillH+6)
		if err != nil {
			largeErr = err
			return
		}
		if _, err := surf.FillRect(geom.RectSpanning(geom.V(0, 0), geom.V(largeW-1, largeFillH-1))); err != nil {
			largeErr = err
			return
		}
		if err := surf.EnableSharding(1); err != nil {
			largeErr = err
			return
		}
		if n := surf.ShardCount(); n != 1 {
			largeErr = fmt.Errorf("large surface has %d bands, want 1", n)
			return
		}
		largeSurf = surf
	})
	return largeSurf, largeErr
}

// BenchmarkLargeSurfaceRebuildConn measures one full connectivity rebuild
// (component count + articulation bitset) over ~2e6 modules: the cost a
// single full-width band pays after an occupancy mutation invalidates it.
func BenchmarkLargeSurfaceRebuildConn(b *testing.B) {
	surf, err := largeSurface()
	if err != nil {
		b.Fatal(err)
	}
	top := geom.V(0, largeFillH) // a free cell laterally adjacent to the fill
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Mutate to invalidate the cache, then force the rebuild.
		id, err := surf.Place(top)
		if err != nil {
			b.Fatal(err)
		}
		surf.WarmConnectivity()
		b.StopTimer()
		if err := surf.Remove(id); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(surf.NumBlocks()), "modules")
}

// BenchmarkLargeSurfaceValidate measures the per-candidate constrained
// verdict on the warmed 2e6-module cache: the number the incremental design
// must keep O(window) regardless of N.
func BenchmarkLargeSurfaceValidate(b *testing.B) {
	surf, err := largeSurface()
	if err != nil {
		b.Fatal(err)
	}
	lib := rules.StandardLibrary()
	// A rider block on the flat top of the fill can slide along it (support
	// everywhere below): the canonical mobile block of the rule system.
	pos := geom.V(largeW/2, largeFillH)
	id, err := surf.Place(pos)
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		if err := surf.Remove(id); err != nil {
			b.Fatal(err)
		}
	}()
	surf.WarmConnectivity()
	cons := lattice.Constraints{RequireConnectivity: true}
	apps, err := surf.ApplicationsFor(id, lib, cons)
	if err != nil || len(apps) == 0 {
		b.Fatalf("edge block has no constrained applications (err=%v)", err)
	}
	app := apps[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := surf.Validate(app, cons); err != nil {
			b.Fatal(err)
		}
	}
}

// Sharded flatness fixtures: height and band width (lattice.BandWidth)
// fixed, width (= band count) grows. 750 cols ≈ 5e5 modules, 3000 ≈ 2e6,
// 12000 ≈ 8e6.
const shardBenchH = 667

var shardScales = []struct {
	label string
	cols  int
}{
	{"5e5", 750},
	{"2e6", 3000},
	{"8e6", 12000},
}

// shardBenchSurface fills cols x shardBenchH modules on a surface that
// NewSurface lays out in cols/lattice.BandWidth bands, and returns it warmed
// with a rider block mid-band on the flat top.
func shardBenchSurface(b *testing.B, cols int) (*lattice.Surface, lattice.BlockID) {
	b.Helper()
	surf, err := lattice.NewSurface(cols, shardBenchH+6)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := surf.FillRect(geom.RectSpanning(geom.V(0, 0), geom.V(cols-1, shardBenchH-1))); err != nil {
		b.Fatal(err)
	}
	if got := surf.ShardCount(); got != cols/lattice.BandWidth {
		b.Fatalf("%d columns laid out in %d bands, want %d", cols, got, cols/lattice.BandWidth)
	}
	mid := (cols/lattice.BandWidth/2)*lattice.BandWidth + lattice.BandWidth/2
	id, err := surf.Place(geom.V(mid, shardBenchH))
	if err != nil {
		b.Fatal(err)
	}
	surf.WarmConnectivity()
	return surf, id
}

// BenchmarkLargeSurfaceShardRebuild measures the cost the sharded cache
// pays after a mutation: one band rebuild plus the boundary composition,
// at every scale of the sweep. Flat ns/op across the sub-benchmarks is the
// headline (the one-band RebuildConn above grows linearly instead).
func BenchmarkLargeSurfaceShardRebuild(b *testing.B) {
	for _, sc := range shardScales {
		sc := sc
		b.Run(sc.label, func(b *testing.B) {
			surf, _ := shardBenchSurface(b, sc.cols)
			probe := geom.V(lattice.BandWidth/4, shardBenchH)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id, err := surf.Place(probe)
				if err != nil {
					b.Fatal(err)
				}
				surf.WarmConnectivity()
				b.StopTimer()
				if err := surf.Remove(id); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(surf.NumBlocks()), "modules")
		})
	}
}

// BenchmarkLargeSurfaceShardValidate measures the per-event constrained
// verdict with a band dirtied before every op: the flat per-event cost of
// the issue's acceptance bar (ns/op within 25% across 5e5 -> 8e6).
func BenchmarkLargeSurfaceShardValidate(b *testing.B) {
	lib := rules.StandardLibrary()
	cons := lattice.Constraints{RequireConnectivity: true}
	for _, sc := range shardScales {
		sc := sc
		b.Run(sc.label, func(b *testing.B) {
			surf, id := shardBenchSurface(b, sc.cols)
			apps, err := surf.ApplicationsFor(id, lib, cons)
			if err != nil || len(apps) == 0 {
				b.Fatalf("rider has no constrained applications (err=%v)", err)
			}
			app := apps[0]
			probe := geom.V(lattice.BandWidth/4, shardBenchH)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pid, err := surf.Place(probe)
				if err != nil {
					b.Fatal(err)
				}
				if err := surf.Validate(app, cons); err != nil {
					b.Fatal(err)
				}
				if err := surf.Remove(pid); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(surf.NumBlocks()), "modules")
		})
	}
}

// BenchmarkLargeSurfaceBatch measures a §VI-style ensemble sweep of 16
// independent tower instances, each an Engine.Run with its own seed on its
// own goroutine. At most GOMAXPROCS sessions run at once: more only add
// contention (all 16 at once ran about 10% slower on a 2-vCPU host).
func BenchmarkLargeSurfaceBatch(b *testing.B) {
	lib := rules.StandardLibrary()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		scs := make([]*scenario.Scenario, 16)
		for j := range scs {
			sweep, err := scenario.TowerSweep([]int{48})
			if err != nil {
				b.Fatal(err)
			}
			scs[j] = sweep[0]
		}
		b.StartTimer()
		slots := make(chan struct{}, runtime.GOMAXPROCS(0))
		var wg sync.WaitGroup
		for j, s := range scs {
			wg.Add(1)
			slots <- struct{}{}
			go func() {
				defer wg.Done()
				defer func() { <-slots }()
				res, err := core.NewEngine(lib, core.WithSeed(int64(j+1))).
					Run(context.Background(), s.Surface, s.Config())
				if err != nil || !res.Success {
					b.Errorf("tower-48-%d: err=%v res=%v", j, err, res)
				}
			}()
		}
		wg.Wait()
	}
}
