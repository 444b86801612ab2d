// Package speckey canonicalizes run specifications into their content
// address. The key it renders is simultaneously the replica-side result
// cache's address (internal/server memoizes deterministic DES runs under
// it) and the gateway-side routing coordinate (internal/gate hashes it onto
// the consistent-hash ring so identical specs always land on the replica
// whose LRU already holds the result). Both tiers derive keys through this
// one package — if the canonicalization ever changed in one place but not
// the other, affinity routing would silently degrade to random placement,
// which is why the rendering lives here and is pinned by the golden-key
// test (testdata/speckeys.json).
package speckey

import (
	"fmt"

	"repro/internal/scenario"
)

// Spec is the canonicalizable subset of a run request: the scenario
// invocation plus every engine knob that shapes a deterministic run's
// outcome. It is the JSON schema of POST /v1/runs (internal/server's
// RunSpec is an alias of it).
type Spec struct {
	// Scenario names a generator in the scenario registry ("fig10",
	// "tower", "slope", "ridge", "blob", "random-stair").
	Scenario string `json:"scenario"`
	// Params are the generator's integer parameters; omitted keys take the
	// generator defaults (see GET /v1/scenarios).
	Params scenario.Params `json:"params,omitempty"`
	// K is the parallel-moves election batch width (0 = serial protocol).
	K int `json:"k,omitempty"`
	// Shards partitions the surface into column bands before the run
	// (0 or 1 = unsharded).
	Shards int `json:"shards,omitempty"`
	// Seed overrides the engine seed for this run (0 = engine default).
	Seed int64 `json:"seed,omitempty"`
	// Backend names the execution backend. The service runs only "des"
	// (the default), the deterministic discrete-event simulator; the
	// goroutine runtime stays a library backend (core.Async).
	Backend string `json:"backend,omitempty"`
	// MaxRounds caps the number of elections (0 derives the engine's
	// default safety bound).
	MaxRounds int `json:"max_rounds,omitempty"`
}

// BackendDES is the one backend name Spec accepts.
const BackendDES = "des"

// ResolveBackend normalizes the spec's backend name (empty means DES) and
// rejects every other one.
func (sp Spec) ResolveBackend() (string, error) {
	switch sp.Backend {
	case "", BackendDES:
		return BackendDES, nil
	default:
		return "", fmt.Errorf("speckey: unknown backend %q (want %q)", sp.Backend, BackendDES)
	}
}

// Key renders the spec as the content address of its result: the canonical
// scenario invocation (defaults filled, declaration order) plus every run
// knob that shapes the outcome, with semantically equivalent spellings
// normalized — k<=1 is the serial protocol, shards<=1 is unsharded, seed 0
// is the server's base seed, an empty backend is the DES. A DES run is a
// pure function of this key, which is what makes the result cache and the
// singleflight table exact rather than approximate, and what makes the key
// a correct affinity-routing hash: equal keys mean byte-identical
// responses, so they may be served by whichever replica already holds the
// recording.
func (sp Spec) Key(baseSeed int64) (string, error) {
	backend, err := sp.ResolveBackend()
	if err != nil {
		return "", err
	}
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
	shards := sp.Shards
	if shards <= 1 {
		shards = 0
	}
	return fmt.Sprintf("%s|k=%d|shards=%d|seed=%d|rounds=%d|backend=%s",
		canon, k, shards, seed, sp.MaxRounds, backend), nil
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
