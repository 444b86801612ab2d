package exec

import (
	"fmt"
	"slices"

	"repro/internal/geom"
	"repro/internal/lattice"
	"repro/internal/rules"
)

// World is the physical layer of one run: the surface, the rule library
// stored in every block, the I and O cells, and the latching layer that
// validates every motion (§V-B, Remark 1). Both engines answer every Env
// method from it except the delivery half of Send, so the port rule, the
// sensing-window bound, motion validation and the set of blocks a motion
// notifies exist once. Methods that act for a block take its id.
//
// The World takes no lock. Its read methods may run concurrently with each
// other; Move, CutVertex and ValidateMoveSet need exclusive access, since
// they can rebuild the lattice's connectivity caches and Move writes the
// World's scratch. The DES calls the World from the goroutine that drives
// it; the goroutine runtime calls it under its engine lock, read-locked for
// reads and fully locked for the other three.
//
// The World keeps every block's Neighbor Table and refreshes the tables a
// motion changes inside Move, so Neighbors and the port check are array
// reads.
type World struct {
	surf          *lattice.Surface
	lib           *rules.Library
	input, output geom.Vec
	constraints   lattice.Constraints
	onApply       func(lattice.ApplyResult)
	radius        int

	// nt is indexed by BlockID: nt[id] is block id's Neighbor Table, all
	// lattice.None for an id off the surface.
	nt [][geom.NumDirs]lattice.BlockID

	// Move's scratch: the two lists it returns, and the epoch stamps of the
	// blocks already listed (seen[id] == epoch; surface ids are small and
	// dense).
	displaced []Displacement
	observers []lattice.BlockID
	seen      []uint32
	epoch     uint32
}

// Displacement is one block a motion carried, from one cell to another.
type Displacement struct {
	ID       lattice.BlockID
	From, To geom.Vec
}

// NewWorld builds the physical layer over a surface that already holds the
// initial block configuration. constraints are the checks every motion must
// pass (connectivity, frozen blocks, blocking veto). onApply, when non-nil,
// observes every executed rule application from inside Move, so on the
// goroutine runtime it runs with the engine lock held: keep it fast and do
// not call into the engine from it.
func NewWorld(surf *lattice.Surface, lib *rules.Library, input, output geom.Vec,
	constraints lattice.Constraints, onApply func(lattice.ApplyResult)) (*World, error) {
	if surf == nil || lib == nil {
		return nil, fmt.Errorf("exec: a world needs a surface and a rule library")
	}
	w := &World{surf: surf, lib: lib, input: input, output: output,
		constraints: constraints, onApply: onApply, radius: 2 * lib.MaxRadius()}
	ids := surf.Blocks()
	if len(ids) > 0 {
		w.nt = make([][geom.NumDirs]lattice.BlockID, ids[len(ids)-1]+1) // ids ascend
	}
	for _, id := range ids {
		w.refresh(id)
	}
	return w, nil
}

// refresh rereads block id's Neighbor Table from the surface.
func (w *World) refresh(id lattice.BlockID) {
	nt, err := w.surf.Neighbors(id)
	if err != nil {
		panic(err)
	}
	w.nt[id] = nt
}

// Blocks returns every block id on the surface, in ascending order.
func (w *World) Blocks() []lattice.BlockID { return w.surf.Blocks() }

// Input returns the input cell I.
func (w *World) Input() geom.Vec { return w.input }

// Output returns the output cell O.
func (w *World) Output() geom.Vec { return w.output }

// Library returns the rule library stored in every block.
func (w *World) Library() *rules.Library { return w.lib }

// SensingRadius returns the sensing-window radius (see Env.Sense).
func (w *World) SensingRadius() int { return w.radius }

// Position returns block id's cell. Blocks never leave the surface, so an
// id off it is an engine bug, and the methods that act for a block panic on
// one; only Port, whose receiver comes from block code, returns an error.
func (w *World) Position(id lattice.BlockID) geom.Vec {
	v, ok := w.surf.PositionOf(id)
	if !ok {
		panic(fmt.Sprintf("exec: block %d vanished from the surface", id))
	}
	return v
}

// Neighbors returns block id's Neighbor Table.
func (w *World) Neighbors(id lattice.BlockID) [geom.NumDirs]lattice.BlockID {
	return w.nt[id]
}

// Port returns an error unless blocks from and to are in lateral contact:
// ports are physical contacts (§II), so Send checks it before every message.
func (w *World) Port(from, to lattice.BlockID) error {
	if to != lattice.None && uint(from) < uint(len(w.nt)) && slices.Contains(w.nt[from][:], to) {
		return nil
	}
	_, okf := w.surf.PositionOf(from)
	_, okt := w.surf.PositionOf(to)
	if !okf || !okt {
		return fmt.Errorf("exec: blocks %d and %d are not both on the surface", from, to)
	}
	return fmt.Errorf("exec: blocks %d and %d are not adjacent", from, to)
}

// SenseWindow answers Env.SenseWindow for block id.
func (w *World) SenseWindow(id lattice.BlockID, anchor geom.Vec, radius int) uint64 {
	p, ok := w.surf.PositionOf(id)
	if !ok {
		panic(fmt.Sprintf("exec: block %d vanished from the surface", id))
	}
	if anchor.Chebyshev(p)+radius > w.radius {
		panic(fmt.Sprintf("exec: block %d at %v sensing the radius-%d square around %v, beyond radius %d",
			id, p, radius, anchor, w.radius))
	}
	return w.surf.OccWindow(anchor, radius)
}

// CutVertex reports whether block id is an articulation point of the
// ensemble (see Env.CutVertex).
func (w *World) CutVertex(id lattice.BlockID) bool { return w.surf.IsArticulation(w.Position(id)) }

// ValidateMoveSet answers Env.ValidateMoveSet.
func (w *World) ValidateMoveSet(moves []lattice.PlannedMove) int {
	return w.surf.ValidateMoveSet(moves)
}

// Move executes app for block id, which must be one of its movers: the
// surface validates it under the World's constraints and applies it
// atomically, then onApply observes it. Move returns whom the motion
// notifies: the displaced blocks in the rule's move order, and, in
// ascending id order, every other block whose sensing window covers a
// vacated or filled cell. Both lists are the World's scratch, valid until
// the next Move.
func (w *World) Move(id lattice.BlockID, app rules.Application) ([]Displacement, []lattice.BlockID, error) {
	pos := w.Position(id)
	if _, ok := app.MoveOf(pos); !ok {
		return nil, nil, fmt.Errorf("exec: block %d at %v is not a mover of %s", id, pos, app)
	}
	res, err := w.surf.Apply(app, w.constraints)
	if err != nil {
		return nil, nil, err
	}
	if w.onApply != nil {
		w.onApply(res)
	}
	if w.epoch++; w.epoch == 0 {
		// Wrapped: zero the stamps so stale marks cannot alias the new epoch.
		clear(w.seen)
		w.epoch = 1
	}
	for _, b := range res.Moved {
		w.mark(b) // movers are excluded from the observer scan
	}
	w.displaced, w.observers = w.displaced[:0], w.observers[:0]
	for _, m := range app.Rule.Moves {
		from, to := app.Anchor.Add(m.From), app.Anchor.Add(m.To)
		// After execution each destination holds exactly the block that
		// moved onto it.
		if b, ok := w.surf.BlockAt(to); ok {
			w.displaced = append(w.displaced, Displacement{ID: b, From: from, To: to})
		}
		w.observe(from)
		w.observe(to)
	}
	slices.Sort(w.observers)
	// Only a displaced block or one next to a vacated or filled cell can
	// have a new Neighbor Table, and the sensing radius is at least 1, so
	// the observers include every such block.
	for _, d := range w.displaced {
		w.refresh(d.ID)
	}
	for _, id := range w.observers {
		w.refresh(id)
	}
	return w.displaced, w.observers, nil
}

// observe appends to w.observers every block whose sensing window covers
// cell c and that is not yet marked in the current epoch. The
// epoch-stamped id array stands in for a per-motion set, so the scan
// allocates nothing once the scratch has grown.
func (w *World) observe(c geom.Vec) {
	for dy := -w.radius; dy <= w.radius; dy++ {
		for dx := -w.radius; dx <= w.radius; dx++ {
			if id, ok := w.surf.BlockAt(c.Add(geom.V(dx, dy))); ok && w.mark(id) {
				w.observers = append(w.observers, id)
			}
		}
	}
}

// mark stamps id in the current epoch and reports whether this call claimed
// it. The stamp array grows on demand to the largest id marked.
func (w *World) mark(id lattice.BlockID) bool {
	if int(id) >= len(w.seen) {
		w.seen = append(w.seen, make([]uint32, int(id)+1-len(w.seen))...)
	}
	if w.seen[id] == w.epoch {
		return false
	}
	w.seen[id] = w.epoch
	return true
}
