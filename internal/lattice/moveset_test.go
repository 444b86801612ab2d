package lattice

import (
	"testing"

	"repro/internal/geom"
)

// rowSurface builds a surface with a full support row at y=1 (x=1..w-2)
// and n mover blocks on top of it at y=2 (x=1..n), so movers sliding along
// the top stay connected through the support row.
func rowSurface(t *testing.T, w, n int) *Surface {
	t.Helper()
	s, err := NewSurface(w, 6)
	if err != nil {
		t.Fatal(err)
	}
	for x := 1; x <= w-2; x++ {
		if _, err := s.Place(geom.V(x, 1)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if _, err := s.Place(geom.V(1+i, 2)); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestValidateMoveSetConveyor(t *testing.T) {
	// Blocks at x=1..4 on a row; the rightmost steps east, and each follower
	// steps into the cell its predecessor vacated — a full conveyor wave.
	s := rowSurface(t, 12, 4)
	wave := []PlannedMove{
		{From: geom.V(4, 2), To: geom.V(5, 2)},
		{From: geom.V(3, 2), To: geom.V(4, 2)},
		{From: geom.V(2, 2), To: geom.V(3, 2)},
		{From: geom.V(1, 2), To: geom.V(2, 2)},
	}
	if got := s.ValidateMoveSet(wave); got != 4 {
		t.Errorf("conveyor wave validated prefix %d, want 4", got)
	}
	// Out of order, the second mover's destination is still occupied.
	bad := []PlannedMove{
		{From: geom.V(3, 2), To: geom.V(4, 2)},
	}
	if got := s.ValidateMoveSet(bad); got != 0 {
		t.Errorf("occupied destination validated prefix %d, want 0", got)
	}
}

func TestValidateMoveSetPrefixSemantics(t *testing.T) {
	s := rowSurface(t, 12, 4)
	moves := []PlannedMove{
		// Fine: the row's east end steps east.
		{From: geom.V(4, 2), To: geom.V(5, 2)},
		// Disconnects: (1,2) only touches the cell the mover vacates.
		{From: geom.V(1, 2), To: geom.V(1, 3)},
	}
	if got := s.ValidateMoveSet(moves); got != 1 {
		t.Errorf("disconnecting second step validated prefix %d, want 1", got)
	}
	// Empty wave, out-of-bounds destination, missing source, no-op move.
	if got := s.ValidateMoveSet(nil); got != 0 {
		t.Errorf("empty wave validated %d, want 0", got)
	}
	cases := []PlannedMove{
		{From: geom.V(1, 2), To: geom.V(-1, 2)}, // out of bounds
		{From: geom.V(9, 4), To: geom.V(8, 4)},  // empty source
		{From: geom.V(1, 2), To: geom.V(1, 2)},  // no-op
	}
	for _, mv := range cases {
		if got := s.ValidateMoveSet([]PlannedMove{mv}); got != 0 {
			t.Errorf("%v -> %v validated %d, want 0", mv.From, mv.To, got)
		}
	}
}

// TestValidateMoveSetNoMutation: the what-if leaves the surface untouched.
func TestValidateMoveSetNoMutation(t *testing.T) {
	s := rowSurface(t, 12, 4)
	before := s.Positions()
	s.ValidateMoveSet([]PlannedMove{
		{From: geom.V(4, 2), To: geom.V(5, 2)},
		{From: geom.V(3, 2), To: geom.V(4, 2)},
	})
	after := s.Positions()
	if len(before) != len(after) {
		t.Fatalf("block count changed: %d -> %d", len(before), len(after))
	}
	for i := range before {
		if before[i] != after[i] {
			t.Errorf("cell %d moved: %v -> %v", i, before[i], after[i])
		}
	}
	if !s.Connected() {
		t.Error("surface no longer connected after what-if")
	}
}

// TestValidateMoveSetBands: the batched what-if answers the same prefixes on
// one band and across band boundaries (it reuses the bounded overlay).
func TestValidateMoveSetBands(t *testing.T) {
	wave := []PlannedMove{
		{From: geom.V(6, 2), To: geom.V(7, 2)},
		{From: geom.V(5, 2), To: geom.V(6, 2)},
		{From: geom.V(4, 2), To: geom.V(5, 2)},
	}
	// The second step strands (3,3): the wave is cut after its first step.
	split := []PlannedMove{
		{From: geom.V(6, 2), To: geom.V(7, 2)},
		{From: geom.V(3, 2), To: geom.V(3, 3)},
		{From: geom.V(3, 3), To: geom.V(3, 4)},
	}
	for _, bands := range []int{1, 3} {
		s := rowSurface(t, 12, 6)
		if err := s.EnableSharding(bands); err != nil {
			t.Fatal(err)
		}
		if got := s.ValidateMoveSet(wave); got != 3 {
			t.Errorf("bands=%d: conveyor wave validated prefix %d, want 3", bands, got)
		}
		if got := s.ValidateMoveSet(split); got != 1 {
			t.Errorf("bands=%d: splitting wave validated prefix %d, want 1", bands, got)
		}
	}
}

// TestCavityScanCap pins the cavity verdict at the scan's cap: filling the
// last gap in a wall around cavityScanCap empty cells seals a cavity, and
// one more cell inside the wall makes it open space.
func TestCavityScanCap(t *testing.T) {
	for _, notch := range []bool{false, true} {
		// A wall around the 8x8 interior x, y in [2, 9], with a gap at
		// (1,5) and a block at (0,5) ready to fill it. The notch opens the
		// wall at (5,10) and closes it one row up, adding one inner cell.
		s := mustSurface(t, 12, 12, geom.V(0, 6), geom.V(0, 5))
		for y := 1; y <= 10; y++ {
			for x := 1; x <= 10; x++ {
				wall := x == 1 || x == 10 || y == 1 || y == 10
				if !wall || (x == 1 && y == 5) || (notch && x == 5 && y == 10) {
					continue
				}
				if _, err := s.Place(geom.V(x, y)); err != nil {
					t.Fatal(err)
				}
			}
		}
		want := 0
		if notch {
			for _, v := range []geom.Vec{geom.V(4, 11), geom.V(5, 11), geom.V(6, 11)} {
				if _, err := s.Place(v); err != nil {
					t.Fatal(err)
				}
			}
			want = 1
		}
		wave := []PlannedMove{{From: geom.V(0, 5), To: geom.V(1, 5)}}
		if got := s.ValidateMoveSet(wave); got != want {
			t.Errorf("notch %t: ValidateMoveSet(%v) = %d, want %d", notch, wave, got, want)
		}
	}
}
