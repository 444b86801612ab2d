package election

import (
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/lattice"
	"repro/internal/msg"
)

func randCandidate(rng *rand.Rand) Candidate {
	if rng.Intn(5) == 0 {
		return Neutral()
	}
	return bid(int32(rng.Intn(100)), uint64(rng.Intn(8)), lattice.BlockID(1+rng.Intn(50)))
}

// bid builds a candidate with the given order key and no further fields.
func bid(distance int32, priority uint64, id lattice.BlockID) Candidate {
	return Candidate{Cand: msg.Cand{Distance: distance, ID: id}, Priority: priority}
}

// TestMergeSemilattice: Merge is commutative, associative, idempotent and
// has Neutral as identity — the algebra that makes the distributed fold
// order-insensitive.
func TestMergeSemilattice(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b, c := randCandidate(rng), randCandidate(rng), randCandidate(rng)
		if Merge(a, b) != Merge(b, a) {
			return false
		}
		if Merge(Merge(a, b), c) != Merge(a, Merge(b, c)) {
			return false
		}
		if Merge(a, a) != a {
			return false
		}
		return Merge(a, Neutral()) == a && Merge(Neutral(), a) == a
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestBetterOrdering(t *testing.T) {
	near := bid(3, 0, 9)
	far := bid(8, 0, 1)
	if !near.Better(far) || far.Better(near) {
		t.Error("distance must dominate")
	}
	a := bid(3, 1, 9)
	b := bid(3, 2, 1)
	if !a.Better(b) {
		t.Error("priority must break distance ties")
	}
	c := bid(3, 1, 2)
	if !c.Better(a) {
		t.Error("id must break (distance,priority) ties")
	}
	if Neutral().Better(near) {
		t.Error("neutral never wins")
	}
	if !near.Better(Neutral()) {
		t.Error("anything beats neutral")
	}
	if !Neutral().IsNeutral() || near.IsNeutral() {
		t.Error("IsNeutral wrong")
	}
}

// TestFoldMatchesLinearScan: aggregating candidates in any order yields the
// global minimum and routes via the correct neighbour.
func TestFoldMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var agg Aggregator
	for trial := 0; trial < 200; trial++ {
		own := randCandidate(rng)
		n := rng.Intn(6)
		type report struct {
			c    Candidate
			from lattice.BlockID
		}
		reports := make([]report, n)
		for i := range reports {
			reports[i] = report{randCandidate(rng), lattice.BlockID(100 + i)}
		}
		agg.Reset(own, 1)
		for _, i := range rng.Perm(n) {
			agg.Fold(&reports[i].c, reports[i].from)
		}
		// Linear scan reference.
		best, via := own, lattice.None
		for _, r := range reports {
			if r.c.Better(best) {
				best, via = r.c, r.from
			}
		}
		if agg.Best() != best {
			t.Fatalf("trial %d: Best = %v, want %v", trial, agg.Best(), best)
		}
		if agg.Via() != via {
			t.Fatalf("trial %d: Via = %v, want %v", trial, agg.Via(), via)
		}
	}
}

// TestTopKFoldOrderInsensitive: with k > 1 the kept set is the k smallest
// elements of the multiset union in Better order, no matter the fold order,
// and every kept candidate routes via the neighbour that reported it.
func TestTopKFoldOrderInsensitive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	// One aggregator serves every trial, as one serves every round of a
	// block: Reset must forget the previous fold, whatever its width.
	var agg Aggregator
	for trial := 0; trial < 300; trial++ {
		k := 1 + rng.Intn(4)
		n := rng.Intn(10)
		type report struct {
			c    Candidate
			from lattice.BlockID
		}
		reports := make([]report, n)
		used := map[lattice.BlockID]bool{}
		for i := range reports {
			c := randCandidate(rng)
			// Protocol invariant: each block bids once per round, so kept
			// ids are unique. Drop duplicate ids to neutral.
			if used[c.ID] {
				c = Neutral()
			}
			used[c.ID] = true
			reports[i] = report{c, lattice.BlockID(100 + i)}
		}
		agg.Reset(Neutral(), k)
		for _, i := range rng.Perm(n) {
			agg.Fold(&reports[i].c, reports[i].from)
		}
		// Reference: sort the non-neutral reports by Better, take k.
		var ref []report
		for _, r := range reports {
			if r.c.IsNeutral() {
				continue
			}
			i := 0
			for i < len(ref) && ref[i].c.Better(r.c) {
				i++
			}
			ref = append(ref[:i], append([]report{r}, ref[i:]...)...)
		}
		if len(ref) > k {
			ref = ref[:k]
		}
		if agg.Len() != len(ref) {
			t.Fatalf("trial %d: kept %d candidates, want %d", trial, agg.Len(), len(ref))
		}
		// The wire entries come out whole, after whatever dst held.
		head := msg.Cand{ID: 7777}
		wire := agg.AppendCands([]msg.Cand{head})
		if len(wire) != 1+len(ref) || wire[0] != head {
			t.Fatalf("trial %d: AppendCands gave %v after %v, want %d entries after it", trial, wire, head, len(ref))
		}
		for i, r := range ref {
			if agg.At(i) != r.c {
				t.Fatalf("trial %d: At(%d) = %v, want %v", trial, i, agg.At(i), r.c)
			}
			if wire[1+i] != r.c.Cand {
				t.Fatalf("trial %d: AppendCands entry %d = %+v, want %+v", trial, i, wire[1+i], r.c.Cand)
			}
			via, ok := agg.ViaFor(r.c.ID)
			if !ok || via != r.from {
				t.Fatalf("trial %d: ViaFor(%d) = %v,%v, want %v", trial, r.c.ID, via, ok, r.from)
			}
		}
		if _, ok := agg.ViaFor(lattice.BlockID(9999)); ok {
			t.Fatalf("trial %d: ViaFor found an unkept id", trial)
		}
	}
}

// TestFoldDropsCountTruncation: over one node's folds, Fold reports
// max(0, n-K) drops for n non-neutral bids, whatever order they arrive in:
// a bid that evicts the last kept entry of a full set is a drop, like a bid
// that loses to every kept entry.
func TestFoldDropsCountTruncation(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var agg Aggregator
	for trial := 0; trial < 200; trial++ {
		k := 1 + rng.Intn(msg.MaxBatch)
		bids := make([]Candidate, rng.Intn(3*k))
		n := 0
		for i := range bids {
			bids[i] = randCandidate(rng)
			if !bids[i].IsNeutral() {
				bids[i].ID = lattice.BlockID(1 + i) // each block bids once
				n++
			}
		}
		want := max(0, n-k)
		for shuffle := 0; shuffle < 5; shuffle++ {
			agg.Reset(Neutral(), k)
			dropped := 0
			for _, i := range rng.Perm(len(bids)) {
				if agg.Fold(&bids[i], lattice.BlockID(100+i)) {
					dropped++
				}
			}
			if dropped != want || agg.Len() != min(n, k) {
				t.Fatalf("trial %d, shuffle %d: %d drops and %d kept of %d bids at K=%d, want %d and %d",
					trial, shuffle, dropped, agg.Len(), n, k, want, min(n, k))
			}
		}
	}
}

// TestCandidateSize pins a bid's in-memory size: its 40-byte wire entry
// plus the priority. Every fold copies a bid into a kept slot, and every
// insertion shifts the slots behind it.
func TestCandidateSize(t *testing.T) {
	if got := unsafe.Sizeof(Candidate{}); got > 48 {
		t.Errorf("unsafe.Sizeof(Candidate{}) = %d bytes, want <= 48", got)
	}
}

func TestPriorityModes(t *testing.T) {
	if PriorityFor(TieLowestID, 7, 3) != 0 {
		t.Error("lowest-id mode must have zero priorities")
	}
	// Deterministic: same inputs, same priority.
	if PriorityFor(TieRandom, 7, 3) != PriorityFor(TieRandom, 7, 3) {
		t.Error("random priority not deterministic")
	}
	// Sensitive to both round and id.
	if PriorityFor(TieRandom, 7, 3) == PriorityFor(TieRandom, 8, 3) {
		t.Error("priority should vary with round")
	}
	if PriorityFor(TieRandom, 7, 3) == PriorityFor(TieRandom, 7, 4) {
		t.Error("priority should vary with id")
	}
}

// TestRandomTieBreakIsFairAcrossRounds: with TieRandom, the winner among a
// fixed tied set changes from round to round and visits every contender.
func TestRandomTieBreakIsFairAcrossRounds(t *testing.T) {
	ids := []lattice.BlockID{1, 2, 3, 4, 5}
	wins := map[lattice.BlockID]int{}
	for round := uint32(1); round <= 500; round++ {
		best := Neutral()
		for _, id := range ids {
			c := bid(4, PriorityFor(TieRandom, round, id), id)
			best = Merge(best, c)
		}
		wins[best.ID]++
	}
	for _, id := range ids {
		if wins[id] == 0 {
			t.Errorf("block %d never won a tie in 500 rounds: %v", id, wins)
		}
	}
	// No contender should take the overwhelming majority.
	for id, w := range wins {
		if w > 300 {
			t.Errorf("block %d won %d/500 ties; distribution skewed: %v", id, w, wins)
		}
	}
}

func TestNeutralDistanceIsInfinite(t *testing.T) {
	if Neutral().Distance != msg.InfiniteDistance {
		t.Error("neutral must carry the wire infinity")
	}
}

func TestStrings(t *testing.T) {
	if TieLowestID.String() != "lowest-id" || TieRandom.String() != "random" {
		t.Error("tie-break names wrong")
	}
	if TieBreak(9).String() != "TieBreak(9)" {
		t.Error("invalid tie-break name wrong")
	}
	if Neutral().String() != "candidate<none>" {
		t.Error("neutral string wrong")
	}
	c := bid(4, 0, 11)
	if c.String() != "candidate<d=4 id=11>" {
		t.Errorf("candidate string = %q", c.String())
	}
}
