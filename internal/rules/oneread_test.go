package rules_test

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/lattice"
	"repro/internal/rules"
)

// TestOneReadMatchesPerCell pins AppendApplicationsOn, which reads a
// block's whole sensing window once for the standard library and one window
// per placement for the extended one, to ApplicationsFor with the surface's
// Occupied predicate, element for element and in order. The surfaces are
// randomly filled; they include ones narrower and lower than the sensing
// window and one whose rows span two bitset words, and every cell of a
// one-cell ring around each surface is probed too, so windows cross every
// edge.
func TestOneReadMatchesPerCell(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var buf []rules.Application
	for _, lib := range []*rules.Library{rules.StandardLibrary(), rules.ExtendedLibrary()} {
		for _, dims := range [][2]int{{1, 1}, {3, 2}, {4, 4}, {2, 9}, {9, 9}, {70, 4}} {
			w, h := dims[0], dims[1]
			for trial := 0; trial < 8; trial++ {
				surf, err := lattice.NewSurface(w, h)
				if err != nil {
					t.Fatal(err)
				}
				for y := 0; y < h; y++ {
					for x := 0; x < w; x++ {
						if rng.Intn(100) < 55 {
							if _, err := surf.Place(geom.V(x, y)); err != nil {
								t.Fatal(err)
							}
						}
					}
				}
				for y := -1; y <= h; y++ {
					for x := -1; x <= w; x++ {
						pos := geom.V(x, y)
						want := lib.ApplicationsFor(pos, surf.Occupied)
						buf = lib.AppendApplicationsOn(buf[:0], pos, surf)
						if len(buf) != len(want) {
							t.Fatalf("%dx%d trial %d at %v: one read found %d applications, per cell %d\ngot:  %v\nwant: %v",
								w, h, trial, pos, len(buf), len(want), buf, want)
						}
						for i := range want {
							if buf[i] != want[i] {
								t.Fatalf("%dx%d trial %d at %v: application %d is %v, per cell %v",
									w, h, trial, pos, i, buf[i], want[i])
							}
						}
					}
				}
			}
		}
	}
}

// TestOneReadAllocatesNothing: with a warm buffer, enumerating a block's
// applications allocates nothing, matches included.
func TestOneReadAllocatesNothing(t *testing.T) {
	surf, err := lattice.NewSurface(6, 4)
	if err != nil {
		t.Fatal(err)
	}
	// The Fig. 3 slide: a block on a floor with room to the east.
	for _, v := range []geom.Vec{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 2, Y: 0}, {X: 3, Y: 0}, {X: 1, Y: 1}} {
		if _, err := surf.Place(v); err != nil {
			t.Fatal(err)
		}
	}
	lib := rules.StandardLibrary()
	pos := geom.V(1, 1)
	buf := lib.AppendApplicationsOn(nil, pos, surf)
	if len(buf) == 0 {
		t.Fatal("the fixture block has no application")
	}
	if n := testing.AllocsPerRun(200, func() {
		buf = lib.AppendApplicationsOn(buf[:0], pos, surf)
	}); n != 0 {
		t.Errorf("AppendApplicationsOn with a warm buffer allocates %v/op, want 0", n)
	}
}
