package track

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"mirza/internal/dram"
)

// This file is the mitigation registry: defenses register a Descriptor by
// name, and every consumer (both CLIs, the experiment grids, the serve
// admission path, the conformance harness) resolves policies through
// Lookup/Build instead of hand-rolled construction switches. A new defense
// is one self-contained file: implement Mitigator, call Register from an
// init(), and the full scenario battery (attack sweep, fault injection,
// telemetry, audit) picks it up automatically.

// Params is a flat string-keyed parameter bag. Defaults come from a
// Descriptor's DefaultConfig; user overrides (the `-mitigation
// name:key=val,...` syntax) are merged on top after validation against the
// Descriptor's ConfigSchema.
type Params map[string]string

// Int returns the named parameter as an int.
func (p Params) Int(key string) (int, error) {
	s, err := p.Str(key)
	if err != nil {
		return 0, err
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("param %q: %q is not an integer", key, s)
	}
	return v, nil
}

// Float returns the named parameter as a float64.
func (p Params) Float(key string) (float64, error) {
	s, err := p.Str(key)
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("param %q: %q is not a number", key, s)
	}
	return v, nil
}

// Str returns the named parameter as a raw string.
func (p Params) Str(key string) (string, error) {
	s, ok := p[key]
	if !ok {
		return "", fmt.Errorf("param %q: not set", key)
	}
	return s, nil
}

// clone returns a copy so callers cannot mutate shared state.
func (p Params) clone() Params {
	out := make(Params, len(p))
	for k, v := range p {
		out[k] = v
	}
	return out
}

// ParamKind names the value syntax of one parameter, used to validate
// overrides before construction and rendered in listings (-list-mitigations,
// GET /mitigations).
type ParamKind string

// Parameter kinds.
const (
	IntParam    ParamKind = "int"
	FloatParam  ParamKind = "float"
	StringParam ParamKind = "string"
)

func (k ParamKind) check(val string) error {
	var err error
	switch k {
	case IntParam:
		_, err = strconv.Atoi(val)
	case FloatParam:
		_, err = strconv.ParseFloat(val, 64)
	case StringParam:
		return nil
	default:
		return fmt.Errorf("unknown param kind %q", string(k))
	}
	if err != nil {
		return fmt.Errorf("not a valid %s", string(k))
	}
	return nil
}

// ParamSpec documents one tunable of a registered defense.
type ParamSpec struct {
	Key  string    `json:"key"`
	Kind ParamKind `json:"kind"`
	Doc  string    `json:"doc"`
}

// Config is the environment a Descriptor's hooks close over: the DRAM
// geometry and row-to-subarray mapping, the double-sided Rowhammer
// threshold the defense must be provisioned for, the run seed, the
// sub-channel index of the instance under construction, and the merged
// parameter bag.
type Config struct {
	Geometry dram.Geometry
	Mapping  dram.R2SAMapping
	TRHD     int    // target double-sided Rowhammer threshold
	Seed     uint64 // run seed; implementations derive per-sub-channel seeds
	Sub      int    // sub-channel index of the instance being built
	Params   Params
}

// Bound is the disturbance level a defense guarantees to stay under, with a
// human-readable derivation kind ("SafeTRHD", "nominal TRHD", ...). The
// attack CLI and the conformance harness compare observed max double-sided
// disturbance against TRHD.
type Bound struct {
	TRHD int
	Kind string
}

// Descriptor registers one defense. Only Name and New are mandatory; nil
// hooks fall back to documented defaults.
type Descriptor struct {
	// Name is the canonical registry key (matched case-insensitively).
	Name string
	// Doc is a one-line description for listings.
	Doc string
	// Insecure marks designs with no deterministic security guarantee
	// (Nop, TRR): the conformance harness skips the bound verdict for
	// them, and listings flag them.
	Insecure bool
	// ConfigSchema documents every parameter the policy accepts. Override
	// keys outside the schema are rejected at Build time.
	ConfigSchema []ParamSpec
	// DefaultConfig derives the default parameter bag from the
	// environment (Table-I provisioning lives here, in exactly one
	// place). Nil means the policy has no parameters.
	DefaultConfig func(cfg Config) (Params, error)
	// New constructs one sub-channel instance wired to sink.
	New func(cfg Config, sink Sink) (Mitigator, error)
	// Timing returns the DRAM timing the memory controller must use with
	// this defense (PRAC-enabled parts have a longer tRC). Nil means
	// standard DDR5.
	Timing func(cfg Config) dram.Timing
	// RFMBAT returns the Bank Activation Threshold at which the memory
	// controller issues RFM commands, or 0 for no RFMs. Nil means 0.
	RFMBAT func(cfg Config) (int, error)
	// Bound returns the guaranteed disturbance bound. Nil means the
	// nominal TRHD.
	Bound func(cfg Config) (Bound, error)
}

var (
	registryMu sync.RWMutex
	registry   = map[string]Descriptor{} // keyed by lowercase name
)

// Register adds a defense to the registry. It panics on an empty or
// already-registered name (case-insensitive) or a nil New hook — these are
// programming errors in the registering package's init().
func Register(d Descriptor) {
	if strings.TrimSpace(d.Name) == "" {
		panic("track: Register with empty name")
	}
	if strings.ContainsAny(d.Name, ":,= \t\n") {
		panic(fmt.Sprintf("track: Register name %q contains reserved characters", d.Name))
	}
	if d.New == nil {
		panic(fmt.Sprintf("track: Register(%q) with nil New", d.Name))
	}
	key := strings.ToLower(d.Name)
	registryMu.Lock()
	defer registryMu.Unlock()
	if prev, ok := registry[key]; ok {
		panic(fmt.Sprintf("track: duplicate Register(%q) (already registered as %q)", d.Name, prev.Name))
	}
	registry[key] = d
}

// Names returns the canonical names of all registered defenses, sorted.
func Names() []string {
	ds := Descriptors()
	names := make([]string, len(ds))
	for i, d := range ds {
		names[i] = d.Name
	}
	return names
}

// Descriptors returns all registered descriptors sorted by name.
func Descriptors() []Descriptor {
	registryMu.RLock()
	defer registryMu.RUnlock()
	ds := make([]Descriptor, 0, len(registry))
	for _, d := range registry {
		ds = append(ds, d)
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i].Name < ds[j].Name })
	return ds
}

// Lookup resolves a defense by name, case-insensitively. An unknown name
// yields an error that lists every registered policy.
func Lookup(name string) (Descriptor, error) {
	registryMu.RLock()
	d, ok := registry[strings.ToLower(strings.TrimSpace(name))]
	registryMu.RUnlock()
	if ok {
		return d, nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "track: unknown mitigation %q; registered mitigations:", name)
	for _, d := range Descriptors() {
		fmt.Fprintf(&b, "\n  %-12s %s", d.Name, d.Doc)
	}
	return Descriptor{}, errors.New(b.String())
}

// Built is a validated, ready-to-instantiate defense: the parameter bag is
// merged and schema-checked, a trial construction has succeeded, and the
// derived memory-controller settings (timing, RFM BAT, security bound) are
// resolved. One Built fans out to any number of per-sub-channel instances.
type Built struct {
	desc   Descriptor
	cfg    Config // Params merged; Sub is set per NewMitigator call
	timing dram.Timing
	bat    int
	bound  Bound
}

// Build resolves name, merges overrides over the policy's DefaultConfig,
// validates keys and value syntax against the ConfigSchema, and proves the
// configuration constructible with a trial instantiation. env.Params is
// ignored; pass overrides explicitly.
func Build(name string, overrides map[string]string, env Config) (*Built, error) {
	d, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	params := Params{}
	if d.DefaultConfig != nil {
		params, err = d.DefaultConfig(env)
		if err != nil {
			return nil, fmt.Errorf("track: %s: %w", d.Name, err)
		}
		params = params.clone()
	}
	specs := make(map[string]ParamSpec, len(d.ConfigSchema))
	for _, s := range d.ConfigSchema {
		specs[s.Key] = s
	}
	for k, v := range overrides {
		spec, ok := specs[k]
		if !ok {
			return nil, fmt.Errorf("track: %s has no param %q; known params: %s",
				d.Name, k, schemaKeys(d.ConfigSchema))
		}
		if err := spec.Kind.check(v); err != nil {
			return nil, fmt.Errorf("track: %s: param %q: value %q: %v", d.Name, k, v, err)
		}
		params[k] = v
	}
	env.Params = params
	env.Sub = 0
	if _, err := d.New(env, NopSink{}); err != nil {
		return nil, fmt.Errorf("track: %s: %w", d.Name, err)
	}
	b := &Built{desc: d, cfg: env, timing: dram.DDR5(), bound: Bound{env.TRHD, "nominal TRHD"}}
	if d.Timing != nil {
		b.timing = d.Timing(env)
	}
	if d.RFMBAT != nil {
		if b.bat, err = d.RFMBAT(env); err != nil {
			return nil, fmt.Errorf("track: %s: %w", d.Name, err)
		}
	}
	if d.Bound != nil {
		if b.bound, err = d.Bound(env); err != nil {
			return nil, fmt.Errorf("track: %s: %w", d.Name, err)
		}
	}
	return b, nil
}

func schemaKeys(schema []ParamSpec) string {
	if len(schema) == 0 {
		return "(none)"
	}
	keys := make([]string, len(schema))
	for i, s := range schema {
		keys[i] = s.Key
	}
	sort.Strings(keys)
	return strings.Join(keys, ", ")
}

// Name returns the canonical registered name.
func (b *Built) Name() string { return b.desc.Name }

// Insecure reports whether the policy carries no security guarantee.
func (b *Built) Insecure() bool { return b.desc.Insecure }

// Params returns a copy of the merged parameter bag.
func (b *Built) Params() Params { return b.cfg.Params.clone() }

// Timing returns the DRAM timing to drive the defense with.
func (b *Built) Timing() dram.Timing { return b.timing }

// RFMBAT returns the memory controller's RFM Bank Activation Threshold
// (0 = no RFMs).
func (b *Built) RFMBAT() int { return b.bat }

// Bound returns the guaranteed disturbance bound.
func (b *Built) Bound() Bound { return b.bound }

// NewMitigator constructs the instance for one sub-channel.
func (b *Built) NewMitigator(sub int, sink Sink) (Mitigator, error) {
	cfg := b.cfg
	cfg.Sub = sub
	cfg.Params = b.cfg.Params // shared read-only after Build
	m, err := b.desc.New(cfg, sink)
	if err != nil {
		return nil, fmt.Errorf("track: %s: %w", b.desc.Name, err)
	}
	return m, nil
}

// Factory adapts the Built to the factory shape the simulators consume. The
// configuration was already proven constructible at Build time, so a
// construction error here is a programming bug and panics.
func (b *Built) Factory() func(sub int, sink Sink) Mitigator {
	return func(sub int, sink Sink) Mitigator {
		m, err := b.NewMitigator(sub, sink)
		if err != nil {
			panic(fmt.Sprintf("track: %s: construction failed after successful Build: %v", b.desc.Name, err))
		}
		return m
	}
}
