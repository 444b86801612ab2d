package lattice

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/rules"
)

// oracleConnectedAfter answers connectedAfterMove's question with the
// reference machinery this PR replaces on the hot path: clone the surface,
// apply the delta through Remove/Place, run the map-based DFS oracle.
func oracleConnectedAfter(t *testing.T, s *Surface, removed, added []geom.Vec) bool {
	t.Helper()
	c := s.Clone()
	for _, v := range removed {
		id, ok := c.BlockAt(v)
		if !ok {
			t.Fatalf("oracle: removed cell %v not occupied", v)
		}
		if err := c.Remove(id); err != nil {
			t.Fatal(err)
		}
	}
	for _, v := range added {
		if _, err := c.Place(v); err != nil {
			t.Fatal(err)
		}
	}
	return c.Connected()
}

// oracleApplications returns the candidates of block id that the
// clone+execute+Connected() oracle admits under RequireConnectivity: the
// physics-valid applications, in ApplicationsFor's order, after which the
// ensemble is one component.
func oracleApplications(t *testing.T, s *Surface, id BlockID, lib *rules.Library) []rules.Application {
	t.Helper()
	all, err := s.ApplicationsFor(id, lib, Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	var want []rules.Application
	for _, app := range all {
		after := s.Clone()
		if err := after.execute(app); err != nil {
			t.Fatal(err)
		}
		if after.Connected() {
			want = append(want, app)
		}
	}
	return want
}

// TestConnectedAfterMoveMatchesOracle pins the incremental checker to the
// Clone()+Connected() DFS oracle across randomized surfaces and randomized
// occupancy deltas: single displacements (the fast path), multi-cell deltas,
// pure fault-injection removals (empty added set), and queries against
// surfaces already fragmented by removals, on one to four column bands.
// Surfaces mutate between queries so the setOcc/clearOcc invalidation is
// exercised too.
func TestConnectedAfterMoveMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 40; trial++ {
		s := randomConnectedSurface(t, rng, 14, 10, 4+rng.Intn(20))
		if err := s.EnableSharding(1 + trial%4); err != nil {
			t.Fatal(err)
		}
		if trial%3 == 0 && s.NumBlocks() > 2 {
			// Fragment some trials: the checker must agree with the oracle
			// on disconnected surfaces as well (moves may reconnect them).
			ids := s.Blocks()
			if err := s.Remove(ids[rng.Intn(len(ids))]); err != nil {
				t.Fatal(err)
			}
		}
		for q := 0; q < 80; q++ {
			occ := s.Positions()
			if len(occ) == 0 {
				break
			}
			// Random delta: 1-2 distinct occupied cells out, 0-2 empty in.
			rng.Shuffle(len(occ), func(i, j int) { occ[i], occ[j] = occ[j], occ[i] })
			nRemoved := 1 + rng.Intn(2)
			if nRemoved > len(occ) {
				nRemoved = len(occ)
			}
			removed := occ[:nRemoved]
			var added []geom.Vec
			nAdded := rng.Intn(3)
			for len(added) < nAdded {
				v := geom.V(rng.Intn(s.Width()), rng.Intn(s.Height()))
				if s.Occupied(v) {
					continue
				}
				dup := false
				for _, a := range added {
					if a == v {
						dup = true
					}
				}
				if !dup {
					added = append(added, v)
				}
			}
			got := s.connectedAfterMove(removed, added)
			want := oracleConnectedAfter(t, s, removed, added)
			if got != want {
				t.Fatalf("trial %d query %d: connectedAfterMove(%v, %v) = %t, oracle says %t",
					trial, q, removed, added, got, want)
			}
			// Stir the surface so the cache is invalidated and rebuilt.
			if q%7 == 0 {
				if v := geom.V(rng.Intn(s.Width()), rng.Intn(s.Height())); !s.Occupied(v) {
					if _, err := s.Place(v); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
}

// TestValidateConnectivityMatchesCloneOracle drives the full constrained
// Validate over random walks (slides and carries) and checks every
// physics-valid candidate's connectivity verdict against the clone+DFS
// oracle, including after fault-injection removals fragment the ensemble.
func TestValidateConnectivityMatchesCloneOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	lib := rules.StandardLibrary()
	consConn := Constraints{RequireConnectivity: true}
	for trial := 0; trial < 25; trial++ {
		s := randomConnectedSurface(t, rng, 12, 12, 6+rng.Intn(10))
		for step := 0; step < 30; step++ {
			var all []rules.Application
			for _, id := range s.Blocks() {
				apps, err := s.ApplicationsFor(id, lib, Constraints{})
				if err != nil {
					t.Fatal(err)
				}
				all = append(all, apps...)
			}
			if len(all) == 0 {
				break
			}
			for _, app := range all {
				gotErr := s.Validate(app, consConn)
				after := s.Clone()
				if err := after.execute(app); err != nil {
					t.Fatalf("oracle execute %v: %v", app, err)
				}
				want := after.Connected()
				if (gotErr == nil) != want {
					t.Fatalf("trial %d step %d: %v: Validate says %v, oracle says connected=%t",
						trial, step, app, gotErr, want)
				}
			}
			// Walk: one constrained application if any survives, plus an
			// occasional fault-injection removal.
			app := all[rng.Intn(len(all))]
			if s.Validate(app, consConn) == nil {
				if _, err := s.Apply(app, consConn); err != nil {
					t.Fatal(err)
				}
			}
			if rng.Intn(8) == 0 && s.NumBlocks() > 4 {
				ids := s.Blocks()
				if err := s.Remove(ids[rng.Intn(len(ids))]); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// TestArticulationMoverCanStillMove: an articulation-point mover is not
// automatically rejected — the exact fallback must notice when the
// destination re-bridges the pieces the removal creates. L-tromino corner
// hop: {(0,0),(1,0),(1,1)}, moving (1,0) to (0,1) keeps the ensemble
// connected even though (1,0) is the cut vertex.
func TestArticulationMoverCanStillMove(t *testing.T) {
	s := mustSurface(t, 5, 5, geom.V(0, 0), geom.V(1, 0), geom.V(1, 1))
	if !s.IsArticulation(geom.V(1, 0)) {
		t.Fatal("(1,0) should be an articulation point of the L-tromino")
	}
	removed := []geom.Vec{geom.V(1, 0)}
	added := []geom.Vec{geom.V(0, 1)}
	if !s.connectedAfterMove(removed, added) {
		t.Error("corner hop of the cut vertex must stay connected: (0,1) re-bridges")
	}
	// And the genuinely disconnecting variant is refused.
	if s.connectedAfterMove(removed, []geom.Vec{geom.V(3, 3)}) {
		t.Error("moving the cut vertex far away must disconnect")
	}
}

// TestConstrainedValidateZeroAllocs asserts the connectivity-constrained
// boolean verdict allocates nothing: on the mover's ring (rung 0, with the
// cavity check too once its marks exist) and on rung 2's what-if overlay
// (an articulation mover, and multi-cell deltas on one and on three bands),
// the last checked through the unexported core so no error is materialised.
func TestConstrainedValidateZeroAllocs(t *testing.T) {
	s, err := NewSurface(8, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []geom.Vec{geom.V(0, 0), geom.V(1, 0), geom.V(2, 0), geom.V(0, 1), geom.V(1, 1)} {
		if _, err := s.Place(v); err != nil {
			t.Fatal(err)
		}
	}
	app := slideApp(geom.V(1, 1))
	cons := Constraints{RequireConnectivity: true}
	cavity := Constraints{RequireConnectivity: true, ForbidCavity: true}
	// The first cavity scan allocates the surface's marks.
	if err := s.Validate(app, cavity); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := s.Validate(app, cons); err != nil {
			t.Fatal(err)
		}
		if err := s.Validate(app, cavity); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("connectivity-constrained Validate allocates %v/op, want 0", n)
	}

	// The L-tromino cut vertex and the multi-cell deltas take the overlay,
	// on one band and across three 2-column bands (the split delta touches
	// bands 0 and 2).
	tromino := []geom.Vec{geom.V(0, 0), geom.V(1, 0), geom.V(1, 1)}
	l := mustSurface(t, 6, 6, tromino...)
	banded := mustSurface(t, 6, 6, tromino...)
	if err := banded.EnableSharding(3); err != nil {
		t.Fatal(err)
	}
	removed := []geom.Vec{geom.V(1, 0)}
	bridge := []geom.Vec{geom.V(0, 1)}
	island := []geom.Vec{geom.V(4, 4)}
	growR := []geom.Vec{geom.V(1, 1)}
	growA := []geom.Vec{geom.V(0, 1), geom.V(2, 0)}
	splitR := []geom.Vec{geom.V(1, 0), geom.V(1, 1)}
	splitA := []geom.Vec{geom.V(0, 1), geom.V(4, 4)}
	if n := testing.AllocsPerRun(200, func() {
		if !l.connectedAfterMove(removed, bridge) {
			t.Fatal("bridge move must stay connected")
		}
		if l.connectedAfterMove(removed, island) {
			t.Fatal("island move must disconnect")
		}
		for _, surf := range [...]*Surface{l, banded} {
			if !surf.connectedAfterMove(growR, growA) {
				t.Fatal("multi-cell grow must stay connected")
			}
			if surf.connectedAfterMove(splitR, splitA) {
				t.Fatal("multi-cell split must disconnect")
			}
		}
	}); n != 0 {
		t.Errorf("articulation and overlay verdicts allocate %v/op, want 0", n)
	}
}

// TestConstrainedApplicationsForMatchesOracleAndStaysLean: the constrained
// enumeration returns exactly the candidates the oracle admits, and costs
// no allocations beyond the result slice (measured indirectly: rejected
// candidates must not inflate the allocation count).
func TestConstrainedApplicationsFor(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	lib := rules.StandardLibrary()
	for trial := 0; trial < 10; trial++ {
		s := randomConnectedSurface(t, rng, 10, 10, 5+rng.Intn(8))
		for _, id := range s.Blocks() {
			constrained, err := s.ApplicationsFor(id, lib, Constraints{RequireConnectivity: true})
			if err != nil {
				t.Fatal(err)
			}
			// The constrained list must be exactly the oracle-surviving
			// subsequence of the unconstrained list.
			want := oracleApplications(t, s, id, lib)
			if len(constrained) != len(want) {
				t.Fatalf("block %d: constrained %v, oracle wants %v", id, constrained, want)
			}
			for i := range want {
				if constrained[i] != want[i] {
					t.Fatalf("block %d: constrained[%d] = %v, want %v", id, i, constrained[i], want[i])
				}
			}
		}
	}
}

// BenchmarkValidateConnectivity measures the connectivity-constrained
// validation verdict: the incremental path of this PR against the seed's
// clone+DFS oracle. The acceptance bar is >= 5x and 0 allocs on the
// incremental path; BENCH_2.json records the same pair via sbbench.
func BenchmarkValidateConnectivity(b *testing.B) {
	s, err := NewSurface(32, 8)
	if err != nil {
		b.Fatal(err)
	}
	// A dense 32x6 slab with a lone mover riding on top: the common shape
	// of the paper's workloads (mover on the rim of a big component).
	for y := 0; y < 6; y++ {
		for x := 0; x < 32; x++ {
			if _, err := s.Place(geom.V(x, y)); err != nil {
				b.Fatal(err)
			}
		}
	}
	if _, err := s.Place(geom.V(1, 6)); err != nil {
		b.Fatal(err)
	}
	app := slideApp(geom.V(1, 6))
	cons := Constraints{RequireConnectivity: true}
	if err := s.Validate(app, cons); err != nil {
		b.Fatal(err)
	}

	b.Run("incremental", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := s.Validate(app, cons); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cloneDFS", func(b *testing.B) {
		// The seed's connectivity check, verbatim: deep-copy the surface,
		// execute the candidate, run the map-based DFS.
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			after := s.Clone()
			if err := after.execute(app); err != nil {
				b.Fatal(err)
			}
			if !after.Connected() {
				b.Fatal("slab must stay connected")
			}
		}
	})
}

// BenchmarkApplicationsForConstrained measures the full constrained
// enumeration (the planner's per-block query) against the unconstrained
// bitboard baseline; the tentpole targets ~2x.
func BenchmarkApplicationsForConstrained(b *testing.B) {
	s, err := NewSurface(32, 8)
	if err != nil {
		b.Fatal(err)
	}
	for y := 0; y < 6; y++ {
		for x := 0; x < 32; x++ {
			if _, err := s.Place(geom.V(x, y)); err != nil {
				b.Fatal(err)
			}
		}
	}
	id, err := s.Place(geom.V(1, 6))
	if err != nil {
		b.Fatal(err)
	}
	lib := rules.StandardLibrary()
	b.Run("unconstrained", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			apps, err := s.ApplicationsFor(id, lib, Constraints{})
			if err != nil || len(apps) == 0 {
				b.Fatalf("apps=%d err=%v", len(apps), err)
			}
		}
	})
	b.Run("connectivity", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			apps, err := s.ApplicationsFor(id, lib, Constraints{RequireConnectivity: true})
			if err != nil || len(apps) == 0 {
				b.Fatalf("apps=%d err=%v", len(apps), err)
			}
		}
	})
}

// TestArticulationMoversByBandCount pins single-displacement verdicts on
// one band and on three 4-column bands that a 1-high chain crosses at
// columns 3|4 and 7|8. Every verdict must match the Clone + Connected()
// oracle, and each case names the rung that must answer it on each layout:
// the mover's ring decides a bridge inside it; past the ring, an
// articulation mover takes the what-if overlay, and a non-articulation
// mover whose side blocks join only through a loop takes the band core's
// bit unless it has a block across a band boundary.
func TestArticulationMoversByBandCount(t *testing.T) {
	type rung int
	const (
		ring rung = iota
		band
		overlay
	)
	cases := []struct {
		name     string
		extra    []geom.Vec // blocks besides the chain (0,0)..(8,0)
		from, to geom.Vec
		want     bool
		rung     [2]rung // on one band, on three
	}{
		{"bridge inside the ring", []geom.Vec{geom.V(4, 1), geom.V(6, 1)},
			geom.V(5, 0), geom.V(5, 1), true, [2]rung{ring, ring}},
		{"west piece only", []geom.Vec{geom.V(4, 1)},
			geom.V(5, 0), geom.V(5, 1), false, [2]rung{overlay, overlay}},
		{"bridge beyond the ring", []geom.Vec{geom.V(4, 1), geom.V(4, 2), geom.V(6, 1), geom.V(6, 2)},
			geom.V(5, 0), geom.V(5, 2), true, [2]rung{overlay, overlay}},
		{"chain end stranded", nil,
			geom.V(1, 0), geom.V(0, 1), false, [2]rung{overlay, overlay}},
		{"loop inside a band", []geom.Vec{geom.V(4, 1), geom.V(4, 2), geom.V(5, 2), geom.V(6, 2), geom.V(6, 1)},
			geom.V(5, 0), geom.V(9, 0), true, [2]rung{band, band}},
		{"loop across a boundary", []geom.Vec{geom.V(3, 1), geom.V(3, 2), geom.V(4, 2), geom.V(5, 2), geom.V(5, 1)},
			geom.V(4, 0), geom.V(9, 0), true, [2]rung{band, overlay}},
	}
	for li, bands := range []int{1, 3} {
		t.Run(fmt.Sprintf("bands=%d", bands), func(t *testing.T) {
			for _, tc := range cases {
				s, err := NewSurface(12, 5)
				if err != nil {
					t.Fatal(err)
				}
				if err := s.EnableSharding(bands); err != nil {
					t.Fatal(err)
				}
				for x := 0; x < 9; x++ {
					if _, err := s.Place(geom.V(x, 0)); err != nil {
						t.Fatal(err)
					}
				}
				for _, v := range tc.extra {
					if _, err := s.Place(v); err != nil {
						t.Fatal(err)
					}
				}
				if s.WarmConnectivity() != 1 {
					t.Fatalf("%s: fixture is not one component", tc.name)
				}
				removed, added := []geom.Vec{tc.from}, []geom.Vec{tc.to}
				if oracle := oracleConnectedAfter(t, s, removed, added); oracle != tc.want {
					t.Fatalf("%s: fixture expectation %t disagrees with the oracle %t", tc.name, tc.want, oracle)
				}
				before := s.ConnStats().Moves
				if got := s.connectedAfterMove(removed, added); got != tc.want {
					t.Fatalf("%s: connectedAfterMove(%v -> %v) = %t, want %t", tc.name, tc.from, tc.to, got, tc.want)
				}
				n := s.ConnStats().Moves.sub(before)
				if got := [3]int{n.Ring, n.Band, n.Overlay}; got[tc.rung[li]] != 1 || n.Ring+n.Band+n.Overlay != 1 {
					t.Errorf("%s: rungs (ring, band, overlay) answered %v, want rung %d alone", tc.name, got, tc.rung[li])
				}
			}
		})
	}
}

// BenchmarkArticulationMoveCheck measures the cut-vertex mover verdict of
// a bridging move: the mover's ring (rung 0), which answers it first on a
// connected surface, and rung 2's what-if overlay (compose), the Tarjan pass
// over the band with the delta overlaid, which answers it when the ring
// cannot. sbbench tracks the first across PRs as the artic_fastpath kernel;
// the second lives only here.
func BenchmarkArticulationMoveCheck(b *testing.B) {
	s, err := NewSurface(64, 4)
	if err != nil {
		b.Fatal(err)
	}
	for x := 0; x < 64; x++ {
		if _, err := s.Place(geom.V(x, 0)); err != nil {
			b.Fatal(err)
		}
	}
	for _, v := range []geom.Vec{geom.V(30, 1), geom.V(32, 1)} {
		if _, err := s.Place(v); err != nil {
			b.Fatal(err)
		}
	}
	removed := []geom.Vec{geom.V(31, 0)} // articulation mover mid-chain
	added := []geom.Vec{geom.V(31, 1)}   // bridges both pieces from above
	s.WarmConnectivity()
	if !s.IsArticulation(removed[0]) {
		b.Fatal("fixture: mover is not an articulation point")
	}
	if !s.connectedAfterMove(removed, added) {
		b.Fatal("fixture: bridge move must stay connected")
	}

	b.Run("ring", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if !s.connectedAfterMove(removed, added) {
				b.Fatal("must stay connected")
			}
		}
	})
	b.Run("compose", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if s.shconn.compose(s, removed, added) != 1 {
				b.Fatal("must stay connected")
			}
		}
	})
}
