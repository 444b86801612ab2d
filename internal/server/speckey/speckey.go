// Package speckey canonicalizes run specifications into their content
// address. The key it renders is simultaneously the replica-side result
// cache's address (internal/server memoizes deterministic DES runs under
// it) and the gateway-side routing coordinate (internal/gate hashes it onto
// the consistent-hash ring so identical specs always land on the replica
// whose LRU already holds the result). Both tiers decode request bodies
// and derive keys through this one package — if the canonicalization ever
// changed in one place but not the other, affinity routing would silently
// degrade to random placement, which is why the rendering lives here and is
// pinned by the golden-key test (testdata/speckeys.json).
package speckey

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/scenario"
)

// Spec is a run request: the scenario invocation plus the inputs that
// change a deterministic run's result, and nothing else. It is the JSON
// schema of POST /v1/runs (internal/server's RunSpec is an alias of it).
type Spec struct {
	// Scenario names a generator in the scenario registry ("fig10",
	// "tower", "slope", "ridge", "blob", "random-stair").
	Scenario string `json:"scenario"`
	// Params are the generator's integer parameters; omitted keys take the
	// generator defaults (see GET /v1/scenarios).
	Params scenario.Params `json:"params,omitempty"`
	// K is the parallel-moves election batch width (0 = serial protocol).
	K int `json:"k,omitempty"`
	// Seed overrides the engine seed for this run (0 = engine default).
	Seed int64 `json:"seed,omitempty"`
	// MaxRounds caps the number of elections (0 derives the engine's
	// default safety bound).
	MaxRounds int `json:"max_rounds,omitempty"`
}

// MaxBody is the largest request body Decode reads.
const MaxBody = 1 << 20

// Decode reads one spec from a request body: exactly one JSON object of at
// most MaxBody bytes, naming only Spec's fields, with no negative k or
// max_rounds. The replica and the gateway both decode through it, so they
// refuse the same bodies, and a misspelt field is an error rather than a
// silently ignored default.
func Decode(r io.Reader) (Spec, error) {
	dec := json.NewDecoder(io.LimitReader(r, MaxBody))
	dec.DisallowUnknownFields()
	var sp Spec
	if err := dec.Decode(&sp); err != nil {
		return Spec{}, fmt.Errorf("speckey: bad spec body: %w", err)
	}
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		return Spec{}, errors.New("speckey: bad spec body: data after the spec object")
	}
	if sp.K < 0 || sp.MaxRounds < 0 {
		return Spec{}, errors.New("speckey: negative k or max_rounds")
	}
	return sp, nil
}

// Key renders the spec as the content address of its result: the canonical
// scenario invocation (defaults filled, declaration order) plus k, seed and
// the round budget, with semantically equivalent spellings normalized —
// k<=1 is the serial protocol, seed 0 is the server's base seed. A DES run
// is a pure function of this key, which is what makes the result cache and
// the singleflight table exact rather than approximate, and what makes the
// key a correct affinity-routing hash: equal keys mean byte-identical
// responses, so they may be served by whichever replica already holds the
// recording.
func (sp Spec) Key(baseSeed int64) (string, error) {
	canon, err := scenario.Canonical(sp.Scenario, sp.Params)
	if err != nil {
		return "", err
	}
	seed := sp.Seed
	if seed == 0 {
		seed = baseSeed
	}
	k := sp.K
	if k < 1 {
		k = 1
	}
	return fmt.Sprintf("%s|k=%d|seed=%d|rounds=%d", canon, k, seed, sp.MaxRounds), nil
}

// FNV-1a 64-bit parameters (the ring hash must be identical in every
// process that computes it, so it is spelled out here rather than taken
// from hash/fnv — the stdlib is stable too, but the golden test pins THIS
// function, spelling drift out of the question).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Hash maps a canonical key onto the 64-bit ring coordinate space (FNV-1a).
// The gateway hashes keys and virtual-node labels through this same
// function, so a replica set plus a key deterministically names one owning
// replica in every gateway process.
func Hash(key string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= fnvPrime64
	}
	return h
}
