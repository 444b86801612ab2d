package scenario

import (
	"fmt"
	"sort"

	"repro/internal/geom"
)

// Params carries the integer parameters of a registered generator, keyed by
// ParamSpec name. A nil map is valid (all defaults).
type Params map[string]int

// ParamSpec describes one parameter of a registered generator. All
// parameters are integers — every generator family in the evaluation is
// integer-parametric — and Default is applied when the caller omits the
// key. Semantic constraints (evenness, capacity bounds, Lemma 1
// preconditions, the MaxBlocks/MaxCells size budget) stay with the
// generator functions, which already report precise errors; the registry
// rejects only unknown parameter names, so a typo fails loudly instead of
// silently running the default.
type ParamSpec struct {
	Name    string `json:"name"`
	Doc     string `json:"doc"`
	Default int    `json:"default"`
}

// Generator is one named, parameterized scenario family: the lookup unit
// shared by the sbserver request schema, the CLI spec parser (Parse) and
// the examples, replacing the per-CLI scenario switches.
type Generator struct {
	// Name is the lookup key ("fig10", "tower", "slope", ...).
	Name string `json:"name"`
	// Doc is a one-line description for listings.
	Doc string `json:"doc"`
	// Params declares the accepted parameters, in documentation order.
	Params []ParamSpec `json:"params,omitempty"`

	build func(Params) (*Scenario, error)
}

// Build instantiates the generator: unknown parameter names are rejected,
// missing ones take their declared defaults, and the underlying generator
// function validates the rest (and returns a fresh Scenario every call, so
// the result is safe to mutate).
func (g Generator) Build(p Params) (*Scenario, error) {
	resolved, err := g.resolve(p)
	if err != nil {
		return nil, err
	}
	return g.build(resolved)
}

// resolve fills the declared defaults and rejects unknown parameter names.
func (g Generator) resolve(p Params) (Params, error) {
	resolved := make(Params, len(g.Params))
	for _, spec := range g.Params {
		resolved[spec.Name] = spec.Default
	}
	for name, v := range p {
		if _, ok := resolved[name]; !ok {
			return nil, fmt.Errorf("scenario: generator %q has no parameter %q (accepts %s)",
				g.Name, name, g.paramNames())
		}
		resolved[name] = v
	}
	return resolved, nil
}

// Canonical renders the generator invocation as a stable key: the generator
// name plus every declared parameter default-filled and listed in
// declaration order, so two Params maps that resolve to the same values —
// regardless of map iteration order or which defaults were spelled out —
// produce the identical string. Because every registered generator is a
// pure function of its resolved parameters, and a DES run is a pure
// function of (scenario, config, seed), this key is exact: equal keys mean
// byte-identical run results, which is what makes the service tier's
// result cache a memoization rather than an approximation.
func (g Generator) Canonical(p Params) (string, error) {
	resolved, err := g.resolve(p)
	if err != nil {
		return "", err
	}
	key := g.Name + "{"
	for i, spec := range g.Params {
		if i > 0 {
			key += ","
		}
		key += fmt.Sprintf("%s=%d", spec.Name, resolved[spec.Name])
	}
	return key + "}", nil
}

// Canonical is the one-call form of Lookup + Generator.Canonical.
func Canonical(name string, p Params) (string, error) {
	g, ok := Lookup(name)
	if !ok {
		return "", fmt.Errorf("scenario: unknown generator %q (have %v)", name, Names())
	}
	return g.Canonical(p)
}

// paramNames renders the accepted parameter list for error messages.
func (g Generator) paramNames() string {
	if len(g.Params) == 0 {
		return "no parameters"
	}
	s := ""
	for i, p := range g.Params {
		if i > 0 {
			s += ", "
		}
		s += p.Name
	}
	return s
}

// registry is the process-wide generator table. It is populated at init
// and read-only afterwards, so lookups need no locking.
var registry = map[string]Generator{}

// register adds a generator at init time; duplicate names are a programming
// error.
func register(g Generator) {
	if _, dup := registry[g.Name]; dup {
		panic(fmt.Sprintf("scenario: generator %q registered twice", g.Name))
	}
	registry[g.Name] = g
}

// Lookup returns the named generator.
func Lookup(name string) (Generator, bool) {
	g, ok := registry[name]
	return g, ok
}

// Generators lists every registered generator, sorted by name.
func Generators() []Generator {
	out := make([]Generator, 0, len(registry))
	for _, g := range registry {
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Names lists the registered generator names, sorted.
func Names() []string {
	gs := Generators()
	names := make([]string, len(gs))
	for i, g := range gs {
		names[i] = g.Name
	}
	return names
}

// Build is the one-call form of Lookup + Generator.Build.
func Build(name string, p Params) (*Scenario, error) {
	g, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("scenario: unknown generator %q (have %v)", name, Names())
	}
	return g.Build(p)
}

func init() {
	register(Generator{
		Name:  "fig10",
		Doc:   "the paper's §V-D example: 12 blocks build the 11-cell column from I to O",
		build: func(Params) (*Scenario, error) { return Fig10() },
	})
	register(Generator{
		Name: "tower",
		Doc:  "2-column tower of n blocks rebuilding into a column of height n-1",
		Params: []ParamSpec{
			{Name: "n", Doc: "block count (even, >= 6)", Default: 16},
		},
		build: func(p Params) (*Scenario, error) {
			scs, err := TowerSweep([]int{p["n"]})
			if err != nil {
				return nil, err
			}
			return scs[0], nil
		},
	})
	register(Generator{
		Name: "slope",
		Doc:  "strict slope-1 staircase: the parallel-moves (wave admission) workload",
		Params: []ParamSpec{
			{Name: "top", Doc: "height of the tallest lane (>= 2)", Default: 8},
			{Name: "rise", Doc: "path rise (0 derives top+6, the widest serial-solvable rise)", Default: 0},
		},
		build: func(p Params) (*Scenario, error) {
			top, rise := p["top"], p["rise"]
			if rise == 0 {
				rise = top + 6
			}
			return SlopeStaircase(top, rise)
		},
	})
	register(Generator{
		Name: "ridge",
		Doc:  "symmetric wide ridge: two flanks feed the path, batch elections required",
		Params: []ParamSpec{
			{Name: "width", Doc: "surface width (>= 21, odd keeps it symmetric)", Default: 71},
			{Name: "rise", Doc: "path rise (>= 1)", Default: 10},
		},
		build: func(p Params) (*Scenario, error) {
			return WideRidgeSized(p["width"], p["rise"])
		},
	})
	register(Generator{
		Name: "blob",
		Doc:  "w x h rectangular blob, the complexity-sweep workload of Remarks 2-4",
		Params: []ParamSpec{
			{Name: "w", Doc: "blob width (>= 2)", Default: 4},
			{Name: "h", Doc: "blob height (>= 2)", Default: 4},
			{Name: "inputx", Doc: "column of I within the blob", Default: 0},
			{Name: "rise", Doc: "path rise (0 derives w*h-2, the Lemma 1 capacity)", Default: 0},
		},
		build: func(p Params) (*Scenario, error) {
			w, h, rise := p["w"], p["h"], p["rise"]
			if rise == 0 {
				rise = w*h - 2
			}
			name := fmt.Sprintf("blob-%dx%d", w, h)
			return Blob(name, w, h, geom.V(1, 0), p["inputx"], rise)
		},
	})
	register(Generator{
		Name: "random-stair",
		Doc:  "seeded draw from the solvable staircase family (Lemma 1 property workload)",
		Params: []ParamSpec{
			{Name: "seed", Doc: "generator seed", Default: 1},
		},
		build: func(p Params) (*Scenario, error) {
			return RandomStaircase(int64(p["seed"]))
		},
	})
}
