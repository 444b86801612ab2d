// Package msg defines the messages blocks exchange over their four lateral
// communication ports (§V-B). The election messages follow the paper's
// formats:
//
//	Activate[Father, Son, O, ShortestDistance, IDshortest]
//	Ack[Son, Father, ShortestDistance, IDshortest]
//
// plus the Select message of the second phase, its acknowledgement, the
// MoveDone report each elected block sends the Root after its hop attempt,
// and the Finished flood with which the Root ends Algorithm 1. A MoveDone
// report travels to the Root along strictly decreasing distance to I and
// is flooded only from a dead end; the Root carries the round's count of
// successful hops on the next Activate (Hops). In parallel-moves rounds
// the Root sends each winner its own GO entry (a Select with a one-entry
// candidate list) and each ordered wave member a MoveDone release, both
// along strictly decreasing distance to the recipient's bid cell (To) and
// flooded only from a dead end. For parallel-moves runs an Ack
// additionally carries the subtree's top-K candidate list (up to MaxBatch
// entries).
// Messages marshal to a variable-length wire format bounded by MaxWireSize:
// Smart Blocks have small memories, so the codec keeps every message
// byte-bounded. A message in memory holds exactly what the wire carries:
// every position is a Cell of two int16 coordinates, so a Message is 64
// bytes and a Cand 40, and a copy of either is a short inline move.
package msg

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/geom"
	"repro/internal/lattice"
)

// Type discriminates the message kinds.
type Type uint8

const (
	// TypeActivate engages a neighbour in the Dijkstra–Scholten diffusing
	// computation of the current election (paper §V-C).
	TypeActivate Type = iota + 1
	// TypeAck acknowledges the activation that engaged its sender, once
	// the sender's own activations are acknowledged, and carries the
	// subtree's best (distance, id). A redundant activation gets no Ack:
	// it crosses the Activate its receiver sent the other way over the
	// same edge, and each of the two acknowledges the other (an echo).
	// Only an activation that crossed none — one of an older round, or
	// from a sender the receiver did not activate — gets a neutral Ack.
	TypeAck
	// TypeSelect is routed from the Root down the father/son tree to the
	// elected block. In a parallel-moves round it is a winner's GO entry
	// instead: its one-entry candidate list carries the winner's wave
	// stamp, and it travels like a release (see TypeMoveDone).
	TypeSelect
	// TypeSelectAck is the elected block's acknowledgement, routed back up
	// to the Root; its reception ends the distributed election. Only the
	// serial protocol sends it: the Root sequences rounds on the MoveDone
	// reports.
	TypeSelectAck
	// TypeMoveDone carries an elected block's hop outcome (Mover, From, To,
	// Success) to the Root, which starts the next iteration once every
	// winner of the round has reported. The report is routed: each holder
	// hands it to one adjacent block strictly nearer I in Manhattan
	// distance, naming that block in Son, and a dead end floods it (Son =
	// lattice.None); the ensemble is connected (Remark 1), so the flood
	// reaches the Root on I. The Root also sends a release (Mover =
	// lattice.None, IDShortest = the released block, To = its bid cell) to
	// let an ordered wave member of a parallel-moves round hop. A release,
	// like a GO entry, is routed the same way towards To, and flooded from
	// a dead end: a block with no nearer neighbour, or a block on To that
	// is not the recipient.
	TypeMoveDone
	// TypeFinished is flooded by the Root when Algorithm 1 terminates.
	TypeFinished

	// NumTypes is the number of message types: the valid Types are
	// 1..NumTypes.
	NumTypes = 6
)

var typeNames = [NumTypes + 1]string{
	"invalid", "activate", "ack", "select", "select-ack", "move-done", "finished",
}

// Valid reports whether t is a known message type.
func (t Type) Valid() bool { return t >= TypeActivate && t <= TypeFinished }

// Slot is t's index in a table with one entry per message type, such as
// exec.Metrics.SentByType: t itself when valid, 0 for an invalid type.
func (t Type) Slot() int {
	if !t.Valid() {
		return 0
	}
	return int(t)
}

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
// the largest admissible core.Config.ParallelMoves width. The wire format is
// variable-length (WireVersion 2 included): it carries only the
// len(Message.Cands) entries a message holds, and bounds that list at
// MaxBatch entries so every message stays within MaxWireSize (Smart Blocks
// have small memories).
const MaxBatch = 16

// Cell is a lattice position at wire width: the wire carries each
// coordinate as an int16, and so does every message in memory. CellOf is
// exact for every cell a run can name, because core rejects a surface with
// a side over core.MaxSurfaceSide, 1<<15 - rules.MaxWindowRadius (a
// footprint anchor can lie up to a rule radius past the surface's edge).
type Cell struct{ X, Y int16 }

// CellOf narrows v to wire width; coordinates outside int16 wrap.
func CellOf(v geom.Vec) Cell { return Cell{X: int16(v.X), Y: int16(v.Y)} }

// Vec widens c to a lattice vector.
func (c Cell) Vec() geom.Vec { return geom.V(int(c.X), int(c.Y)) }

// String renders c as geom.Vec renders the same position: "(x,y)".
func (c Cell) String() string { return fmt.Sprintf("(%d,%d)", c.X, c.Y) }

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
	Write  uint64
	Anchor Cell
	Radius uint8
}

// Empty reports whether the footprint carries no cells (no planned move, or
// a rule outside the compiled bitboard form).
func (f Footprint) Empty() bool { return f.Write == 0 }

// covers reports whether absolute cell v is a set bit of mask within f's
// window.
func (f Footprint) covers(mask uint64, v geom.Vec) bool {
	r := int(f.Radius)
	size := 2*r + 1
	anchor := f.Anchor.Vec()
	col := v.X - anchor.X + r
	row := anchor.Y + r - v.Y
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
	anchor := a.Anchor.Vec()
	for m := am; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		cell := geom.V(anchor.X+i%size-r, anchor.Y+r-i/size)
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
	anchor := f.Anchor.Vec()
	for m := f.Write; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		cell := geom.V(anchor.X+i%size-r, anchor.Y+r-i/size)
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
// of the planned move. In a winner's GO entry the Root reuses the entry to
// carry the winner's wave ordering stamp (Wave; 0 = unordered — no other
// admitted winner's writes touch this winner's sensing window or vice
// versa; s >= 1 — the s-th ordered wave member, which hops only on the
// Root's release, once every lower-stamped member has reported its
// MoveDone).
type Cand struct {
	ID       lattice.BlockID
	Distance int32
	Pos      Cell
	To       Cell
	Fp       Footprint
	Cut      bool
	Wave     uint8
}

// Message is the single wire format for all block-to-block traffic. Unused
// fields are zero; which fields are meaningful depends on Type. The fields
// are ordered so that the struct has no padding (64 bytes on 64-bit
// platforms).
type Message struct {
	Type Type
	Tier Tier // move tier of this election round
	// Hops is the number of successful hops the previous round's winners
	// reported (Activate): each engaging block lifts its suppression
	// backoff once per hop before it bids. A round has at most MaxBatch
	// winners.
	Hops    uint8
	Success bool   // MoveDone: hop executed; Finished: path built
	Round   uint32 // election iteration k of Algorithm 1

	// Election fields (Activate/Ack/Select/SelectAck).
	Father           lattice.BlockID // sender for Activate; destination for Ack
	Son              lattice.BlockID // destination for Activate and a routed MoveDone or GO entry; sender for Ack
	Output           Cell            // position of O (Activate; Assumption 2 state)
	ShortestDistance int32           // current best distance to O
	IDShortest       lattice.BlockID // block achieving ShortestDistance; the elected or released block

	// Outcome fields (MoveDone).
	Mover    lattice.BlockID // block that moved (MoveDone); None on a release
	From, To Cell            // executed hop (report); To: the bid cell a GO entry or release travels to

	// Top-K candidate list (Ack, parallel-moves runs): exactly the entries
	// carried, in election order, at most MaxBatch of them; a batch GO
	// entry carries the one entry of its winner. It is nil for every other
	// message; an empty list means a neutral or serial-protocol ack, and
	// the legacy ShortestDistance/IDShortest pair always mirrors Cands[0]
	// when the list is not empty. Copies of a message share its backing
	// array — every relay of a GO entry copies it, and a dead end's flood
	// of it is retained and re-sent — so one array can be read by several
	// blocks (and, on the goroutine runtime, by several goroutines). A GO
	// entry's list is never written after it is sent. A block reuses one
	// array for the ack lists of every round: it writes the array again
	// only for its next round's ack, and the Root cannot open that round
	// before the father has folded this one.
	Cands []Cand
}

// String implements fmt.Stringer with a compact per-type rendering.
func (m Message) String() string {
	switch m.Type {
	case TypeActivate:
		hops := ""
		if m.Hops > 0 {
			hops = fmt.Sprintf(" hops=%d", m.Hops)
		}
		return fmt.Sprintf("Activate[r%d %d->%d O=%s d=%s id=%d%s]",
			m.Round, m.Father, m.Son, m.Output, distString(m.ShortestDistance), m.IDShortest, hops)
	case TypeAck:
		if len(m.Cands) > 0 {
			return fmt.Sprintf("Ack[r%d %d->%d d=%s id=%d cands=%d]",
				m.Round, m.Son, m.Father, distString(m.ShortestDistance), m.IDShortest, len(m.Cands))
		}
		return fmt.Sprintf("Ack[r%d %d->%d d=%s id=%d]",
			m.Round, m.Son, m.Father, distString(m.ShortestDistance), m.IDShortest)
	case TypeSelect:
		return fmt.Sprintf("Select[r%d elected=%d]", m.Round, m.IDShortest)
	case TypeSelectAck:
		return fmt.Sprintf("SelectAck[r%d elected=%d]", m.Round, m.IDShortest)
	case TypeMoveDone:
		if m.Mover == lattice.None {
			return fmt.Sprintf("MoveDone[r%d release=%d]", m.Round, m.IDShortest)
		}
		return fmt.Sprintf("MoveDone[r%d block=%d %s->%s ok=%t via=%d]",
			m.Round, m.Mover, m.From, m.To, m.Success, m.Son)
	case TypeFinished:
		return fmt.Sprintf("Finished[r%d ok=%t]", m.Round, m.Success)
	}
	return fmt.Sprintf("Message{%v}", m.Type)
}

// Equal reports whether m and o carry the same header fields and the same
// candidate list. A nil list equals an empty one: neither is on the wire.
func (m Message) Equal(o Message) bool {
	return m.Type == o.Type && m.Round == o.Round && m.Tier == o.Tier && m.Hops == o.Hops &&
		m.Father == o.Father && m.Son == o.Son && m.Output == o.Output &&
		m.ShortestDistance == o.ShortestDistance && m.IDShortest == o.IDShortest &&
		m.Mover == o.Mover && m.From == o.From && m.To == o.To &&
		m.Success == o.Success && slices.Equal(m.Cands, o.Cands)
}

func distString(d int32) string {
	if d == InfiniteDistance {
		return "inf"
	}
	return fmt.Sprintf("%d", d)
}

// BaseWireSize is the encoded size of a Message carrying no candidate list:
// the fixed 44-byte header of the serial protocol, the candidate count byte
// and the Hops byte. Each candidate entry adds CandWireSize bytes.
const (
	BaseWireSize = 46
	CandWireSize = 31
	// MaxWireSize bounds every encoded message: a full MaxBatch candidate
	// list on top of the base header.
	MaxWireSize = BaseWireSize + MaxBatch*CandWireSize
	// WireVersion stamps every encoded frame (header byte 3, zero — and
	// unchecked — before footprints were added). Version 2 widened the
	// candidate entry with the planned destination, wave stamp and footprint;
	// version 3 added the Hops byte to the header.
	WireVersion = 3
)

// WireSize returns the encoded size of m in bytes: the base header plus the
// candidate list actually carried. Every message is bounded by MaxWireSize.
func (m Message) WireSize() int { return BaseWireSize + len(m.Cands)*CandWireSize }

// MarshalBinary encodes m into the variable-length wire format: the 44-byte
// serial header, the candidate count, the hop count, then len(m.Cands)
// packed candidate entries.
func (m Message) MarshalBinary() ([]byte, error) {
	if !m.Type.Valid() {
		return nil, fmt.Errorf("msg: cannot marshal invalid type %d", m.Type)
	}
	if len(m.Cands) > MaxBatch {
		return nil, fmt.Errorf("msg: candidate list of %d exceeds MaxBatch %d", len(m.Cands), MaxBatch)
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
	putCell(b[16:], m.Output)
	binary.LittleEndian.PutUint32(b[24:], uint32(m.ShortestDistance))
	binary.LittleEndian.PutUint32(b[28:], uint32(m.IDShortest))
	binary.LittleEndian.PutUint32(b[32:], uint32(m.Mover))
	putCell(b[36:], m.From)
	putCell(b[40:], m.To)
	b[44] = uint8(len(m.Cands))
	b[45] = m.Hops
	for i, c := range m.Cands {
		off := BaseWireSize + i*CandWireSize
		binary.LittleEndian.PutUint32(b[off:], uint32(c.ID))
		binary.LittleEndian.PutUint32(b[off+4:], uint32(c.Distance))
		putCell(b[off+8:], c.Pos)
		if c.Cut {
			b[off+12] = 1
		}
		putCell(b[off+13:], c.To)
		b[off+17] = c.Wave
		putCell(b[off+18:], c.Fp.Anchor)
		b[off+22] = c.Fp.Radius
		binary.LittleEndian.PutUint64(b[off+23:], c.Fp.Write)
	}
	return b, nil
}

// UnmarshalBinary decodes the wire format. The candidate list is allocated
// only when the frame carries one, so a frame without candidates decodes to
// a nil list.
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
	m.Output = getCell(data[16:])
	m.ShortestDistance = int32(binary.LittleEndian.Uint32(data[24:]))
	m.IDShortest = lattice.BlockID(binary.LittleEndian.Uint32(data[28:]))
	m.Mover = lattice.BlockID(binary.LittleEndian.Uint32(data[32:]))
	m.From = getCell(data[36:])
	m.To = getCell(data[40:])
	m.Hops = data[45]
	if n > 0 {
		m.Cands = make([]Cand, n)
	}
	for i := range m.Cands {
		off := BaseWireSize + i*CandWireSize
		m.Cands[i] = Cand{
			ID:       lattice.BlockID(binary.LittleEndian.Uint32(data[off:])),
			Distance: int32(binary.LittleEndian.Uint32(data[off+4:])),
			Pos:      getCell(data[off+8:]),
			Cut:      data[off+12] == 1,
			To:       getCell(data[off+13:]),
			Wave:     data[off+17],
			Fp: Footprint{
				Anchor: getCell(data[off+18:]),
				Radius: data[off+22],
				Write:  binary.LittleEndian.Uint64(data[off+23:]),
			},
		}
	}
	return nil
}

// putCell writes c as two little-endian int16s, the 4 bytes every position
// takes on the wire.
func putCell(b []byte, c Cell) {
	binary.LittleEndian.PutUint16(b[0:], uint16(c.X))
	binary.LittleEndian.PutUint16(b[2:], uint16(c.Y))
}

func getCell(b []byte) Cell {
	return Cell{X: int16(binary.LittleEndian.Uint16(b[0:])), Y: int16(binary.LittleEndian.Uint16(b[2:]))}
}
