package speckey

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/speckeys.json from the current canonicalization")

// goldenGroup is one equivalence class of spec spellings: every member must
// render the pinned key (and therefore the pinned ring hash). The golden
// file freezes both, so the routing hash cannot silently change across
// versions — a change here invalidates every replica cache AND remaps the
// whole gateway ring, which must be a deliberate, reviewed event.
type goldenGroup struct {
	Name  string `json:"name"`
	Key   string `json:"key"`
	Hash  string `json:"hash"` // 0x-hex: uint64 doesn't survive JSON number round-trips
	Specs []Spec `json:"specs"`
}

const goldenBaseSeed = 1

// goldenMatrix enumerates the equivalence classes: default spellings vs
// explicit defaults, k/shards/seed/backend normalization, and distinct
// specs that must NOT collide.
func goldenMatrix() []goldenGroup {
	return []goldenGroup{
		{Name: "fig10-default", Specs: []Spec{
			{Scenario: "fig10"},
			{Scenario: "fig10", K: 1},
			{Scenario: "fig10", Shards: 1},
			{Scenario: "fig10", Backend: "des"},
			{Scenario: "fig10", Seed: goldenBaseSeed}, // seed 0 means the base seed
			{Scenario: "fig10", K: 1, Shards: 1, Seed: goldenBaseSeed, Backend: "des"},
		}},
		{Name: "fig10-k4-sharded", Specs: []Spec{
			{Scenario: "fig10", K: 4, Shards: 8},
			{Scenario: "fig10", K: 4, Shards: 8, Backend: "des", Seed: goldenBaseSeed},
		}},
		{Name: "fig10-seed7", Specs: []Spec{
			{Scenario: "fig10", Seed: 7},
			{Scenario: "fig10", K: 0, Seed: 7, Backend: "des"},
		}},
		{Name: "fig10-rounds200", Specs: []Spec{
			{Scenario: "fig10", MaxRounds: 200},
		}},
		{Name: "slope-default", Specs: []Spec{
			{Scenario: "slope"},
			{Scenario: "slope", Params: map[string]int{}},
			{Scenario: "slope", Params: map[string]int{"top": 8}},
			{Scenario: "slope", Params: map[string]int{"rise": 0}},
			{Scenario: "slope", Params: map[string]int{"top": 8, "rise": 0}},
		}},
		{Name: "slope-top12", Specs: []Spec{
			{Scenario: "slope", Params: map[string]int{"top": 12}},
			{Scenario: "slope", Params: map[string]int{"rise": 0, "top": 12}},
		}},
		{Name: "tower-default", Specs: []Spec{
			{Scenario: "tower"},
			{Scenario: "tower", Params: map[string]int{"n": 16}},
		}},
		{Name: "ridge-default", Specs: []Spec{
			{Scenario: "ridge"},
			{Scenario: "ridge", Params: map[string]int{"width": 71, "rise": 10}},
		}},
		{Name: "blob-default", Specs: []Spec{
			{Scenario: "blob"},
			{Scenario: "blob", Params: map[string]int{"w": 4, "h": 4, "inputx": 0, "rise": 0}},
		}},
	}
}

// TestGoldenKeys pins the canonical key and ring hash of every equivalence
// class to testdata/speckeys.json. Run with -update to regenerate after a
// DELIBERATE canonicalization change (and expect every replica cache to go
// cold and the gateway ring to remap when you deploy it).
func TestGoldenKeys(t *testing.T) {
	path := filepath.Join("testdata", "speckeys.json")
	groups := goldenMatrix()
	for i := range groups {
		key, err := groups[i].Specs[0].Key(goldenBaseSeed)
		if err != nil {
			t.Fatalf("group %s: %v", groups[i].Name, err)
		}
		groups[i].Key = key
		groups[i].Hash = fmt.Sprintf("0x%016x", Hash(key))
	}

	if *update {
		data, err := json.MarshalIndent(groups, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden file missing (run with -update to create): %v", err)
	}
	var golden []goldenGroup
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]goldenGroup, len(golden))
	for _, g := range golden {
		byName[g.Name] = g
	}
	if len(golden) != len(groups) {
		t.Errorf("golden file has %d groups, matrix has %d", len(golden), len(groups))
	}

	for _, g := range groups {
		want, ok := byName[g.Name]
		if !ok {
			t.Errorf("group %s missing from golden file (run -update?)", g.Name)
			continue
		}
		for _, sp := range g.Specs {
			key, err := sp.Key(goldenBaseSeed)
			if err != nil {
				t.Errorf("group %s: spec %+v: %v", g.Name, sp, err)
				continue
			}
			if key != want.Key {
				t.Errorf("group %s: spec %+v rendered key %q, golden pins %q — the routing hash changed",
					g.Name, sp, key, want.Key)
			}
			if h := fmt.Sprintf("0x%016x", Hash(key)); h != want.Hash {
				t.Errorf("group %s: hash %s, golden pins %s", g.Name, h, want.Hash)
			}
		}
	}

	// Distinct groups must not collide (neither keys nor ring hashes).
	seenKey, seenHash := map[string]string{}, map[string]string{}
	for _, g := range groups {
		if prev, dup := seenKey[g.Key]; dup {
			t.Errorf("groups %s and %s render the same key %q", prev, g.Name, g.Key)
		}
		if prev, dup := seenHash[g.Hash]; dup {
			t.Errorf("groups %s and %s hash identically (%s)", prev, g.Name, g.Hash)
		}
		seenKey[g.Key], seenHash[g.Hash] = g.Name, g.Name
	}
}

// TestKeyErrors: canonicalization fails loudly on unknown scenarios,
// parameters and backends instead of minting a routable key. The goroutine
// runtime is a library backend only, so "async" is unknown here too.
func TestKeyErrors(t *testing.T) {
	for _, sp := range []Spec{
		{Scenario: "no-such-scenario"},
		{Scenario: "slope", Params: map[string]int{"bogus": 1}},
		{Scenario: "fig10", Backend: "quantum"},
		{Scenario: "fig10", Backend: "async"},
	} {
		if key, err := sp.Key(1); err == nil {
			t.Errorf("spec %+v minted key %q, want error", sp, key)
		}
	}
}

// TestHashReference pins FNV-1a against its published test vectors so the
// ring hash is provably the standard function, not a local variant.
func TestHashReference(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want uint64
	}{
		{"", 0xcbf29ce484222325},
		{"a", 0xaf63dc4c8601ec8c},
		{"foobar", 0x85944171f73967e8},
	} {
		if got := Hash(tc.in); got != tc.want {
			t.Errorf("Hash(%q) = %#x, want %#x", tc.in, got, tc.want)
		}
	}
}
