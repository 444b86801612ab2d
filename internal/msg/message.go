// Package msg defines the messages blocks exchange over their four lateral
// communication ports and the per-side reception buffers of the paper's
// memory organisation (§V-B, Figs. 8–9). The election messages follow the
// paper's formats:
//
//	Activate[Father, Son, O, ShortestDistance, IDshortest]
//	Ack[Son, Father, ShortestDistance, IDshortest]
//
// plus the Select message of the second phase, its acknowledgement, and the
// round-completion floods (MoveDone, Finished) that let the Root sequence
// Algorithm 1's iterations. For parallel-moves runs an Ack additionally
// carries the subtree's top-K candidate list (up to MaxBatch entries).
// Messages marshal to a variable-length wire format bounded by MaxWireSize:
// Smart Blocks have small memories, so the codec keeps every message
// byte-bounded.
package msg

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/geom"
	"repro/internal/lattice"
)

// Type discriminates the message kinds.
type Type uint8

const (
	// TypeActivate engages a neighbour in the Dijkstra–Scholten diffusing
	// computation of the current election (paper §V-C).
	TypeActivate Type = iota + 1
	// TypeAck acknowledges an activation. First-activation acks carry the
	// subtree's best (distance, id); redundant-activation acks are neutral.
	TypeAck
	// TypeSelect is routed from the Root down the father/son tree to the
	// elected block.
	TypeSelect
	// TypeSelectAck is the elected block's acknowledgement, routed back up
	// to the Root; its reception ends the distributed election.
	TypeSelectAck
	// TypeMoveDone is flooded by the elected block after its hop attempt,
	// carrying the outcome; the Root starts the next iteration on reception.
	TypeMoveDone
	// TypeFinished is flooded by the Root when Algorithm 1 terminates.
	TypeFinished

	numTypes = 6
)

var typeNames = [numTypes + 1]string{
	"invalid", "activate", "ack", "select", "select-ack", "move-done", "finished",
}

// Valid reports whether t is a known message type.
func (t Type) Valid() bool { return t >= TypeActivate && t <= TypeFinished }

// String implements fmt.Stringer.
func (t Type) String() string {
	if !t.Valid() {
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
	return typeNames[t]
}

// InfiniteDistance encodes the paper's d = +inf (eqs. (8)–(9)): blocks that
// are aligned with the output or cannot move are never elected.
const InfiniteDistance int32 = math.MaxInt32

// Tier selects the move classes an election considers; see core.Config.
type Tier uint8

const (
	// TierDecreasing elects blocks with a strictly distance-decreasing move
	// (the paper's normal case: the hop "tends to diminish the distance").
	TierDecreasing Tier = 0
	// TierRetreat additionally admits one-step retreats (distance d+1; on
	// the Manhattan grid a hop always changes d by exactly one, so d+1 is
	// the only alternative to d-1). The Root escalates to this tier only
	// when a decreasing round elects nobody — the latitude behind the
	// paper's "tends to diminish the distance".
	TierRetreat Tier = 1
	// TierDesperate additionally lets blocks ignore their no-return memory:
	// the last escalation before the Root declares a blocking. Undoing a
	// previous hop is better than global deadlock.
	TierDesperate Tier = 2
)

// MaxBatch is the largest top-K candidate list an Ack can carry, and with it
// the largest admissible core.WithParallelMoves width. The wire format is
// variable-length (WireVersion 2 included): it carries only the NumCands
// entries a message holds, and bounds that list at MaxBatch entries so
// every message stays within MaxWireSize (Smart Blocks have small
// memories).
const MaxBatch = 16

// Footprint is the cell set a planned move writes, carried in a candidate's
// bid so the Root's admission filter can reason about interference exactly
// instead of by sensing-window distance. It reuses the bitboard layout of the
// compiled rule system: a square window of side 2*Radius+1 centred on Anchor,
// bit row*size+col in display order (row 0 = north). Write holds the cells
// whose occupancy the move changes (the From/To cells of every elementary
// step). Read cells need no mask: a proposer replans over its whole sensing
// window at execution time, so the interference test is writes-versus-window
// (TouchesWindow), not writes-versus-sensed-subset.
type Footprint struct {
	Anchor geom.Vec
	Radius uint8
	Write  uint64
}

// Empty reports whether the footprint carries no cells (no planned move, or
// a rule outside the compiled bitboard form).
func (f Footprint) Empty() bool { return f.Write == 0 }

// covers reports whether absolute cell v is a set bit of mask within f's
// window.
func (f Footprint) covers(mask uint64, v geom.Vec) bool {
	r := int(f.Radius)
	size := 2*r + 1
	col := v.X - f.Anchor.X + r
	row := f.Anchor.Y + r - v.Y
	if col < 0 || col >= size || row < 0 || row >= size {
		return false
	}
	return mask>>(uint(row*size+col))&1 == 1
}

// overlapMasks reports whether any absolute cell set in (a, am) is also set
// in (b, bm). It iterates the set bits of one mask and tests membership in
// the other, so the cost is O(popcount) regardless of window alignment.
func overlapMasks(a Footprint, am uint64, b Footprint, bm uint64) bool {
	if am == 0 || bm == 0 {
		return false
	}
	r := int(a.Radius)
	size := 2*r + 1
	for m := am; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		cell := geom.V(a.Anchor.X+i%size-r, a.Anchor.Y+r-i/size)
		if b.covers(bm, cell) {
			return true
		}
	}
	return false
}

// WritesOverlap reports whether f and o both mutate at least one common
// cell — the hard conflict no admission tier can order around.
func (f Footprint) WritesOverlap(o Footprint) bool {
	return overlapMasks(f, f.Write, o, o.Write)
}

// TouchesWindow reports whether any written cell of f lies within Chebyshev
// distance radius of center — that is, whether executing f's move would
// change a cell inside the sensing window of a block at center. Two planned
// moves commute unconditionally exactly when neither touches the other
// proposer's window: each proposer then replans over an unchanged window at
// execution time and reproduces its bid.
func (f Footprint) TouchesWindow(center geom.Vec, radius int) bool {
	if f.Write == 0 {
		return false
	}
	r := int(f.Radius)
	size := 2*r + 1
	for m := f.Write; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		cell := geom.V(f.Anchor.X+i%size-r, f.Anchor.Y+r-i/size)
		if cell.Chebyshev(center) <= radius {
			return true
		}
	}
	return false
}

// Cand is one entry of the top-K candidate list an Ack carries when the run
// elects batches of blocks (the parallel-moves extension of §V-C): the
// block's bid plus the facts the Root's admission ladder needs — the
// bidder's position, whether the bidder is currently a cut vertex of the
// ensemble (its lone departure would split the surface; see
// exec.Env.CutVertex), the planned destination To and the write footprint Fp
// of the planned move. In a GO flood the Root reuses the entry to carry each
// winner's wave ordering stamp (Wave; 0 = unordered — no other admitted
// winner's writes touch this winner's sensing window or vice versa; s >= 1 —
// the s-th ordered wave member, which hops only after every lower-stamped
// member reported MoveDone).
type Cand struct {
	ID       lattice.BlockID
	Distance int32
	Pos      geom.Vec
	Cut      bool
	To       geom.Vec
	Wave     uint8
	Fp       Footprint
}

// Message is the single wire format for all block-to-block traffic. Unused
// fields are zero; which fields are meaningful depends on Type.
type Message struct {
	Type  Type
	Round uint32 // election iteration k of Algorithm 1
	Tier  Tier   // move tier of this election round

	// Election fields (Activate/Ack/Select/SelectAck).
	Father           lattice.BlockID // sender for Activate; destination for Ack
	Son              lattice.BlockID // destination for Activate; sender for Ack
	Output           geom.Vec        // position of O (Activate; Assumption 2 state)
	ShortestDistance int32           // current best distance to O
	IDShortest       lattice.BlockID // block achieving ShortestDistance

	// Top-K candidate list (Ack, parallel-moves runs): the subtree's best
	// NumCands candidates in election order. NumCands 0 means a neutral or
	// serial-protocol ack; the legacy ShortestDistance/IDShortest pair always
	// mirrors Cands[0] when NumCands > 0.
	NumCands uint8
	Cands    [MaxBatch]Cand

	// Flood fields (MoveDone/Finished).
	Mover    lattice.BlockID // block that moved (MoveDone)
	From, To geom.Vec        // executed hop (MoveDone)
	Success  bool            // MoveDone: hop executed; Finished: path built
}

// String implements fmt.Stringer with a compact per-type rendering.
func (m Message) String() string {
	switch m.Type {
	case TypeActivate:
		return fmt.Sprintf("Activate[r%d %d->%d O=%s d=%s id=%d]",
			m.Round, m.Father, m.Son, m.Output, distString(m.ShortestDistance), m.IDShortest)
	case TypeAck:
		if m.NumCands > 0 {
			return fmt.Sprintf("Ack[r%d %d->%d d=%s id=%d cands=%d]",
				m.Round, m.Son, m.Father, distString(m.ShortestDistance), m.IDShortest, m.NumCands)
		}
		return fmt.Sprintf("Ack[r%d %d->%d d=%s id=%d]",
			m.Round, m.Son, m.Father, distString(m.ShortestDistance), m.IDShortest)
	case TypeSelect:
		return fmt.Sprintf("Select[r%d elected=%d]", m.Round, m.IDShortest)
	case TypeSelectAck:
		return fmt.Sprintf("SelectAck[r%d elected=%d]", m.Round, m.IDShortest)
	case TypeMoveDone:
		return fmt.Sprintf("MoveDone[r%d block=%d %s->%s ok=%t]",
			m.Round, m.Mover, m.From, m.To, m.Success)
	case TypeFinished:
		return fmt.Sprintf("Finished[r%d ok=%t]", m.Round, m.Success)
	}
	return fmt.Sprintf("Message{%v}", m.Type)
}

func distString(d int32) string {
	if d == InfiniteDistance {
		return "inf"
	}
	return fmt.Sprintf("%d", d)
}

// BaseWireSize is the encoded size of a Message carrying no candidate list:
// the fixed 44-byte header of the serial protocol plus the NumCands count
// byte. Each candidate entry adds CandWireSize bytes.
const (
	BaseWireSize = 45
	CandWireSize = 31
	// MaxWireSize bounds every encoded message: a full MaxBatch candidate
	// list on top of the base header.
	MaxWireSize = BaseWireSize + MaxBatch*CandWireSize
	// WireVersion stamps every encoded frame (header byte 3, zero — and
	// unchecked — before footprints were added). Version 2 widened the
	// candidate entry with the planned destination, wave stamp and footprint.
	WireVersion = 2
)

// WireSize returns the encoded size of m in bytes: the base header plus the
// candidate list actually carried. Every message is bounded by MaxWireSize.
func (m Message) WireSize() int { return BaseWireSize + int(m.NumCands)*CandWireSize }

// MarshalBinary encodes m into the variable-length wire format: the 44-byte
// serial header, the candidate count, then NumCands packed candidate entries.
func (m Message) MarshalBinary() ([]byte, error) {
	if !m.Type.Valid() {
		return nil, fmt.Errorf("msg: cannot marshal invalid type %d", m.Type)
	}
	if int(m.NumCands) > MaxBatch {
		return nil, fmt.Errorf("msg: candidate list of %d exceeds MaxBatch %d", m.NumCands, MaxBatch)
	}
	b := make([]byte, m.WireSize())
	b[0] = byte(m.Type)
	b[1] = byte(m.Tier)
	if m.Success {
		b[2] = 1
	}
	b[3] = WireVersion
	binary.LittleEndian.PutUint32(b[4:], m.Round)
	binary.LittleEndian.PutUint32(b[8:], uint32(m.Father))
	binary.LittleEndian.PutUint32(b[12:], uint32(m.Son))
	putVec(b[16:], m.Output)
	binary.LittleEndian.PutUint32(b[24:], uint32(m.ShortestDistance))
	binary.LittleEndian.PutUint32(b[28:], uint32(m.IDShortest))
	binary.LittleEndian.PutUint32(b[32:], uint32(m.Mover))
	putVec(b[36:], m.From)
	putVec(b[40:], m.To)
	b[44] = m.NumCands
	for i := 0; i < int(m.NumCands); i++ {
		c := m.Cands[i]
		off := BaseWireSize + i*CandWireSize
		binary.LittleEndian.PutUint32(b[off:], uint32(c.ID))
		binary.LittleEndian.PutUint32(b[off+4:], uint32(c.Distance))
		putVec(b[off+8:], c.Pos)
		if c.Cut {
			b[off+12] = 1
		}
		putVec(b[off+13:], c.To)
		b[off+17] = c.Wave
		putVec(b[off+18:], c.Fp.Anchor)
		b[off+22] = c.Fp.Radius
		binary.LittleEndian.PutUint64(b[off+23:], c.Fp.Write)
	}
	return b, nil
}

// UnmarshalBinary decodes the wire format.
func (m *Message) UnmarshalBinary(data []byte) error {
	if len(data) < BaseWireSize {
		return fmt.Errorf("msg: wire size %d below the %d-byte base", len(data), BaseWireSize)
	}
	t := Type(data[0])
	if !t.Valid() {
		return fmt.Errorf("msg: invalid type %d on the wire", data[0])
	}
	if data[3] != WireVersion {
		return fmt.Errorf("msg: wire version %d, want %d", data[3], WireVersion)
	}
	n := int(data[44])
	if n > MaxBatch {
		return fmt.Errorf("msg: candidate count %d exceeds MaxBatch %d", n, MaxBatch)
	}
	if want := BaseWireSize + n*CandWireSize; len(data) != want {
		return fmt.Errorf("msg: wire size %d, want %d for %d candidates", len(data), want, n)
	}
	*m = Message{}
	m.Type = t
	m.Tier = Tier(data[1])
	m.Success = data[2] == 1
	m.Round = binary.LittleEndian.Uint32(data[4:])
	m.Father = lattice.BlockID(binary.LittleEndian.Uint32(data[8:]))
	m.Son = lattice.BlockID(binary.LittleEndian.Uint32(data[12:]))
	m.Output = getVec(data[16:])
	m.ShortestDistance = int32(binary.LittleEndian.Uint32(data[24:]))
	m.IDShortest = lattice.BlockID(binary.LittleEndian.Uint32(data[28:]))
	m.Mover = lattice.BlockID(binary.LittleEndian.Uint32(data[32:]))
	m.From = getVec(data[36:])
	m.To = getVec(data[40:])
	m.NumCands = uint8(n)
	for i := 0; i < n; i++ {
		off := BaseWireSize + i*CandWireSize
		m.Cands[i] = Cand{
			ID:       lattice.BlockID(binary.LittleEndian.Uint32(data[off:])),
			Distance: int32(binary.LittleEndian.Uint32(data[off+4:])),
			Pos:      getVec(data[off+8:]),
			Cut:      data[off+12] == 1,
			To:       getVec(data[off+13:]),
			Wave:     data[off+17],
			Fp: Footprint{
				Anchor: getVec(data[off+18:]),
				Radius: data[off+22],
				Write:  binary.LittleEndian.Uint64(data[off+23:]),
			},
		}
	}
	return nil
}

// Positions fit in int16 each: the paper's surfaces are centimetre-scale
// grids of at most a few thousand cells per side.
func putVec(b []byte, v geom.Vec) {
	binary.LittleEndian.PutUint16(b[0:], uint16(int16(v.X)))
	binary.LittleEndian.PutUint16(b[2:], uint16(int16(v.Y)))
}

func getVec(b []byte) geom.Vec {
	return geom.V(int(int16(binary.LittleEndian.Uint16(b[0:]))),
		int(int16(binary.LittleEndian.Uint16(b[2:]))))
}
