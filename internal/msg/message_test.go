package msg

import (
	"bytes"
	"encoding/hex"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/geom"
	"repro/internal/lattice"
)

func TestMarshalRoundTrip(t *testing.T) {
	cases := []Message{
		{
			Type: TypeActivate, Round: 3, Tier: TierDecreasing,
			Father: 7, Son: 12, Output: Cell{2, 11},
			ShortestDistance: 11, IDShortest: 7,
		},
		{
			Type: TypeActivate, Round: 4, Tier: TierRetreat, Hops: MaxBatch,
			Father: 7, Son: 12, Output: Cell{2, 11},
			ShortestDistance: 11, IDShortest: 7,
		},
		{
			Type: TypeAck, Round: 3, Father: 7, Son: 12,
			ShortestDistance: InfiniteDistance, IDShortest: 0,
		},
		{Type: TypeSelect, Round: 9, IDShortest: 4},
		{Type: TypeSelectAck, Round: 9, IDShortest: 4},
		{
			Type: TypeMoveDone, Round: 10, Mover: 5,
			From: Cell{3, 4}, To: Cell{3, 5}, Success: true,
		},
		{Type: TypeFinished, Round: 55, Success: true},
		{Type: TypeMoveDone, Round: 1, Mover: 2, From: Cell{0, 0}, To: Cell{5, 7}, Son: 8},
		{Type: TypeMoveDone, Round: 2, IDShortest: 6},
		// A batch GO entry and a wave release, each routed towards its
		// recipient's bid cell (To) and handed to Son.
		{Type: TypeSelect, Round: 9, Tier: TierRetreat, Son: 5, IDShortest: 4, To: Cell{7, 3},
			Cands: []Cand{{ID: 4, Wave: 2}}},
		{Type: TypeMoveDone, Round: 9, Son: 5, IDShortest: 4, To: Cell{7, 3}},
		{
			Type: TypeAck, Round: 4, Father: 2, Son: 9,
			ShortestDistance: 3, IDShortest: 9,
			Cands: []Cand{
				{ID: 9, Distance: 3, Pos: Cell{4, 5}},
				{ID: 11, Distance: 4, Pos: Cell{9, 1}, Cut: true},
			},
		},
		{
			Type: TypeAck, Round: 6, Father: 1, Son: 3,
			ShortestDistance: 2, IDShortest: 3,
			Cands: []Cand{
				{ID: 3, Distance: 2, Pos: Cell{4, 5}, To: Cell{5, 5}, Wave: 2,
					Fp: Footprint{Anchor: Cell{4, 5}, Radius: 1, Write: 0x28}},
			},
		},
	}
	for _, m := range cases {
		data, err := m.MarshalBinary()
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if len(data) != m.WireSize() {
			t.Fatalf("%v: wire size %d, want %d", m, len(data), m.WireSize())
		}
		if len(data) > MaxWireSize {
			t.Fatalf("%v: wire size %d exceeds MaxWireSize %d", m, len(data), MaxWireSize)
		}
		var back Message
		if err := back.UnmarshalBinary(data); err != nil {
			t.Fatalf("%v: unmarshal: %v", m, err)
		}
		if !back.Equal(m) {
			t.Errorf("round trip changed message:\n got %+v\nwant %+v", back, m)
		}
	}
}

// TestMarshalRoundTripProperty: every valid message — any type, any value
// in every other field, any Cell anywhere in int16 range, and up to
// MaxBatch candidates — round-trips through the wire format bit for bit: it
// decodes to an equal message, which encodes to the same bytes. A message
// in memory carries exactly what the wire carries, so nothing is lost.
func TestMarshalRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cell := func() Cell { return Cell{X: int16(rng.Uint32()), Y: int16(rng.Uint32())} }
		m := Message{
			Type:             Type(1 + rng.Intn(NumTypes)),
			Tier:             Tier(rng.Uint32()),
			Hops:             uint8(rng.Uint32()),
			Success:          rng.Intn(2) == 1,
			Round:            rng.Uint32(),
			Father:           lattice.BlockID(rng.Uint32()),
			Son:              lattice.BlockID(rng.Uint32()),
			Output:           cell(),
			ShortestDistance: int32(rng.Uint32()),
			IDShortest:       lattice.BlockID(rng.Uint32()),
			Mover:            lattice.BlockID(rng.Uint32()),
			From:             cell(),
			To:               cell(),
		}
		if n := rng.Intn(MaxBatch + 2); n > 0 {
			m.Cands = make([]Cand, n-1)
		}
		for i := range m.Cands {
			m.Cands[i] = Cand{
				ID:       lattice.BlockID(rng.Uint32()),
				Distance: int32(rng.Uint32()),
				Pos:      cell(),
				To:       cell(),
				Fp:       Footprint{Write: rng.Uint64(), Anchor: cell(), Radius: uint8(rng.Uint32())},
				Cut:      rng.Intn(2) == 1,
				Wave:     uint8(rng.Uint32()),
			}
		}
		data, err := m.MarshalBinary()
		if err != nil {
			t.Logf("%v: %v", m, err)
			return false
		}
		var back Message
		if err := back.UnmarshalBinary(data); err != nil {
			t.Logf("%v: unmarshal: %v", m, err)
			return false
		}
		again, err := back.MarshalBinary()
		if err != nil || !back.Equal(m) || !bytes.Equal(again, data) {
			t.Logf("round trip changed message:\n got %+v\nwant %+v", back, m)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestWireFramesPinned pins the exact bytes of three frames, positions at
// the int16 limits included, so the wire format cannot drift with the
// in-memory layout.
func TestWireFramesPinned(t *testing.T) {
	cases := []struct {
		m    Message
		want string
	}{
		{Message{Type: TypeActivate, Round: 70000, Tier: TierRetreat, Hops: 3, Father: 7, Son: 12,
			Output: Cell{-3, 32767}, ShortestDistance: InfiniteDistance, IDShortest: 7},
			"0101000370110100070000000c000000fdffff7f00000000ffffff7f070000000000000000000000000000000003"},
		{Message{Type: TypeMoveDone, Round: 9, Mover: 5, From: Cell{32764, 2}, To: Cell{32765, 2}, Success: true, Son: 8},
			"050001030900000000000000080000000000000000000000000000000000000005000000fc7f0200fd7f02000000"},
		{Message{Type: TypeAck, Round: 4, Father: 2, Son: 9, ShortestDistance: 3, IDShortest: 9,
			Cands: []Cand{
				{ID: 9, Distance: 3, Pos: Cell{4, 5}, Cut: true, To: Cell{4, 6}, Wave: 2,
					Fp: Footprint{Anchor: Cell{-2, 1}, Radius: 2, Write: 0x8000000000000021}},
				{ID: 11, Distance: 4, Pos: Cell{32767, -32768}},
			}},
			"02000003040000000200000009000000000000000000000003000000090000000000000000000000000000000200" +
				"090000000300000004000500010400060002feff01000221000000000000800b00000004000000ff7f0080000000" +
				"00000000000000000000000000000000"},
	}
	for _, c := range cases {
		data, err := c.m.MarshalBinary()
		if err != nil {
			t.Fatalf("%v: %v", c.m, err)
		}
		if got := hex.EncodeToString(data); got != c.want {
			t.Errorf("%v: frame\n got %s\nwant %s", c.m, got, c.want)
		}
		var back Message
		if err := back.UnmarshalBinary(data); err != nil || !back.Equal(c.m) {
			t.Errorf("%v: decoded %+v, err %v", c.m, back, err)
		}
	}
}

func TestMarshalErrors(t *testing.T) {
	if _, err := (Message{}).MarshalBinary(); err == nil {
		t.Error("zero-type message must not marshal")
	}
	var m Message
	if err := m.UnmarshalBinary(make([]byte, BaseWireSize-1)); err == nil {
		t.Error("short buffer must fail")
	}
	bad := make([]byte, BaseWireSize)
	bad[0] = 99
	if err := m.UnmarshalBinary(bad); err == nil {
		t.Error("unknown type must fail")
	}
	// A frame whose candidate count disagrees with its length must fail.
	counted := make([]byte, BaseWireSize)
	counted[0] = byte(TypeAck)
	counted[3] = WireVersion
	counted[44] = 3
	if err := m.UnmarshalBinary(counted); err == nil {
		t.Error("candidate count beyond the frame must fail")
	}
	// A frame stamped with a foreign wire version must fail.
	staleVer := make([]byte, BaseWireSize)
	staleVer[0] = byte(TypeAck)
	staleVer[3] = WireVersion - 1
	if err := m.UnmarshalBinary(staleVer); err == nil {
		t.Error("foreign wire version must fail")
	}
	over := Message{Type: TypeAck, Cands: make([]Cand, MaxBatch+1)}
	if _, err := over.MarshalBinary(); err == nil {
		t.Error("candidate count beyond MaxBatch must not marshal")
	}
}

// TestMessageSize pins the in-memory sizes of a Message and of a candidate
// entry: every Send, scheduled event and delivery copies a Message, and
// every ack fold copies its entries. Positions are wire-width Cells, the
// candidate list lives behind a slice header instead of inline, and the
// fields are ordered without padding. On amd64 a copy of 64 bytes or less
// is a few inline moves.
func TestMessageSize(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"Message", unsafe.Sizeof(Message{}), 64},
		{"Cand", unsafe.Sizeof(Cand{}), 40},
		{"Footprint", unsafe.Sizeof(Footprint{}), 16},
	} {
		if c.got > c.want {
			t.Errorf("unsafe.Sizeof(%s{}) = %d bytes, want <= %d", c.name, c.got, c.want)
		}
	}
}

// TestCellMatchesVec: a Cell holds any int16 position exactly, converts
// back to the same geom.Vec and prints like it, so the String of every
// message renders positions as before.
func TestCellMatchesVec(t *testing.T) {
	for _, v := range []geom.Vec{geom.V(0, 0), geom.V(2, 11), geom.V(-3, 7),
		geom.V(math.MaxInt16, math.MinInt16), geom.V(math.MinInt16, math.MaxInt16)} {
		c := CellOf(v)
		if c.Vec() != v {
			t.Errorf("CellOf(%v).Vec() = %v", v, c.Vec())
		}
		if c.String() != v.String() {
			t.Errorf("CellOf(%v).String() = %q, want %q", v, c.String(), v.String())
		}
	}
}

func TestMessageEqual(t *testing.T) {
	base := Message{
		Type: TypeAck, Round: 4, Tier: TierRetreat, Hops: 2,
		Father: 2, Son: 9, Output: Cell{1, 2},
		ShortestDistance: 3, IDShortest: 9,
		Cands: []Cand{{ID: 9, Distance: 3, Pos: Cell{4, 5}}, {ID: 11, Distance: 4}},
		Mover: 5, From: Cell{3, 4}, To: Cell{3, 5}, Success: true,
	}
	if !base.Equal(base) {
		t.Fatal("a message must equal itself")
	}
	twin := base
	twin.Cands = append([]Cand(nil), base.Cands...)
	if !base.Equal(twin) {
		t.Error("equal lists in different arrays must compare equal")
	}
	cases := []struct {
		name string
		edit func(*Message)
	}{
		{"Type", func(m *Message) { m.Type = TypeSelect }},
		{"Round", func(m *Message) { m.Round++ }},
		{"Tier", func(m *Message) { m.Tier = TierDesperate }},
		{"Hops", func(m *Message) { m.Hops++ }},
		{"Father", func(m *Message) { m.Father++ }},
		{"Son", func(m *Message) { m.Son++ }},
		{"Output", func(m *Message) { m.Output.X++ }},
		{"ShortestDistance", func(m *Message) { m.ShortestDistance++ }},
		{"IDShortest", func(m *Message) { m.IDShortest++ }},
		{"Mover", func(m *Message) { m.Mover++ }},
		{"From", func(m *Message) { m.From.Y++ }},
		{"To", func(m *Message) { m.To.X++ }},
		{"Success", func(m *Message) { m.Success = false }},
		{"Cands entry", func(m *Message) {
			m.Cands = append([]Cand(nil), m.Cands...)
			m.Cands[1].Wave = 1
		}},
		{"Cands length", func(m *Message) { m.Cands = m.Cands[:1] }},
		{"Cands nil", func(m *Message) { m.Cands = nil }},
	}
	for _, c := range cases {
		m := base
		c.edit(&m)
		if base.Equal(m) || m.Equal(base) {
			t.Errorf("%s differs, yet Equal reports true", c.name)
		}
	}
	// Equal names its fields by hand, so every field of Message needs a
	// case above: a new field fails here until it has one, and the case
	// fails until Equal compares the field.
	covered := map[string]bool{}
	for _, c := range cases {
		covered[strings.Fields(c.name)[0]] = true
	}
	for _, f := range reflect.VisibleFields(reflect.TypeOf(Message{})) {
		if !covered[f.Name] {
			t.Errorf("Message.%s has no case here; does Equal compare it?", f.Name)
		}
	}
	// The decoder returns a nil list for a frame without candidates, so a
	// nil list must equal an empty one.
	empty := Message{Type: TypeAck, Cands: []Cand{}}
	data, err := empty.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Message
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if back.Cands != nil {
		t.Errorf("decoded a %d-entry non-nil list from a frame without candidates", len(back.Cands))
	}
	if !back.Equal(empty) || !empty.Equal(back) {
		t.Error("a nil list must equal an empty list")
	}
}

func TestTypeNamesAndValidity(t *testing.T) {
	for ty := TypeActivate; ty <= TypeFinished; ty++ {
		if !ty.Valid() {
			t.Errorf("type %d should be valid", ty)
		}
		if strings.HasPrefix(ty.String(), "Type(") {
			t.Errorf("type %d has no name", ty)
		}
	}
	if Type(0).Valid() || Type(7).Valid() {
		t.Error("types 0 and 7 should be invalid")
	}
	if Type(0).String() != "Type(0)" {
		t.Errorf("invalid type string = %q", Type(0).String())
	}
}

func TestMessageStringPerType(t *testing.T) {
	cases := []struct {
		m    Message
		want string
	}{
		{Message{Type: TypeActivate, Round: 1, Father: 2, Son: 3, Output: Cell{2, 11}, ShortestDistance: 11, IDShortest: 2}, "Activate[r1 2->3 O=(2,11) d=11 id=2]"},
		{Message{Type: TypeActivate, Round: 2, Father: 2, Son: 3, Output: Cell{2, 11}, ShortestDistance: 11, IDShortest: 2, Hops: 3}, "Activate[r2 2->3 O=(2,11) d=11 id=2 hops=3]"},
		{Message{Type: TypeMoveDone, Round: 6, Mover: 4, From: Cell{1, 1}, To: Cell{1, 2}, Success: true, Son: 8}, "MoveDone[r6 block=4 (1,1)->(1,2) ok=true via=8]"},
		{Message{Type: TypeMoveDone, Round: 6, IDShortest: 5}, "MoveDone[r6 release=5]"},
		{Message{Type: TypeAck, Round: 1, Father: 2, Son: 3, ShortestDistance: InfiniteDistance}, "Ack[r1 3->2 d=inf id=0]"},
		{Message{Type: TypeSelect, Round: 4, IDShortest: 9}, "Select[r4 elected=9]"},
		{Message{Type: TypeFinished, Round: 5, Success: true}, "Finished[r5 ok=true]"},
	}
	for _, c := range cases {
		if got := c.m.String(); got != c.want {
			t.Errorf("String = %q, want %q", got, c.want)
		}
	}
}

// TestUnmarshalNeverPanics: arbitrary wire bytes either decode or return an
// error; they never panic (a block cannot crash on a corrupted frame).
func TestUnmarshalNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 5000; trial++ {
		n := rng.Intn(2 * MaxWireSize)
		buf := make([]byte, n)
		rng.Read(buf)
		var m Message
		_ = m.UnmarshalBinary(buf) // must not panic
	}
	// Round-trip of a valid frame with every byte corrupted one at a time.
	orig := Message{Type: TypeActivate, Round: 9, Father: 1, Son: 2,
		Output: Cell{3, 4}, ShortestDistance: 5, IDShortest: 1}
	data, err := orig.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0xff
		var m Message
		_ = m.UnmarshalBinary(mut)
	}
}

// fpBit returns the bit for relative cell (dx, dy) in a footprint window of
// the given radius (bit row*size+col, row 0 = north — the compiled-rule
// display order).
func fpBit(dx, dy, radius int) uint64 {
	size := 2*radius + 1
	return 1 << uint((radius-dy)*size+(dx+radius))
}

// TestFootprintOverlap pins the absolute-cell semantics of the footprint
// masks: conflicts are decided in world coordinates, so two footprints with
// different anchors still detect a shared cell, and adjacent-but-disjoint
// write sets do not.
func TestFootprintOverlap(t *testing.T) {
	// Block at (5,5) moving east to (6,5): writes {(5,5),(6,5)}.
	a := Footprint{Anchor: Cell{5, 5}, Radius: 1,
		Write: fpBit(0, 0, 1) | fpBit(1, 0, 1)}
	// Block at (7,5) moving east to (8,5): writes {(7,5),(8,5)}.
	b := Footprint{Anchor: Cell{7, 5}, Radius: 1,
		Write: fpBit(0, 0, 1) | fpBit(1, 0, 1)}
	if a.WritesOverlap(b) || b.WritesOverlap(a) {
		t.Error("write sets {(5,5),(6,5)} and {(7,5),(8,5)} are disjoint")
	}
	// Write-disjoint, but a's destination (6,5) lies inside the radius-1
	// window of the proposer at (7,5): the movers are coupled (coupling is
	// the OR of the two directions — b's writes stay outside a's window).
	if !a.TouchesWindow(geom.V(7, 5), 1) {
		t.Error("write (6,5) inside the radius-1 window of (7,5) must touch it")
	}
	if b.TouchesWindow(geom.V(5, 5), 1) {
		t.Error("writes {(7,5),(8,5)} are outside the radius-1 window of (5,5)")
	}
	// At radius 1, a write 2 cells away is outside the window.
	if a.TouchesWindow(geom.V(8, 5), 1) {
		t.Error("write set {(5,5),(6,5)} is outside the radius-1 window of (8,5)")
	}
	if !a.TouchesWindow(geom.V(8, 5), 2) {
		t.Error("the same write set is inside the radius-2 window of (8,5)")
	}
	// Block at (6,5) moving east: its write set {(6,5),(7,5)} hits both.
	c := Footprint{Anchor: Cell{6, 5}, Radius: 1,
		Write: fpBit(0, 0, 1) | fpBit(1, 0, 1)}
	if !c.WritesOverlap(a) || !c.WritesOverlap(b) {
		t.Error("write set {(6,5),(7,5)} must clash with both neighbours")
	}
	// Far apart: no interference of any kind.
	d := Footprint{Anchor: Cell{50, 50}, Radius: 1, Write: fpBit(0, 0, 1)}
	if a.WritesOverlap(d) || d.TouchesWindow(geom.V(5, 5), 2) || a.TouchesWindow(geom.V(50, 50), 2) {
		t.Error("footprints 45 cells apart must be disjoint")
	}
	var zero Footprint
	if !zero.Empty() || a.Empty() {
		t.Error("Empty: zero footprint is empty, a populated one is not")
	}
	if zero.WritesOverlap(a) || a.WritesOverlap(zero) || zero.TouchesWindow(geom.V(5, 5), 99) {
		t.Error("empty footprint interferes with nothing")
	}
}
