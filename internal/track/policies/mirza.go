package policies

import (
	"fmt"
	"strconv"

	"mirza/internal/core"
	"mirza/internal/security"
	"mirza/internal/track"
)

// mirzaSchema documents the MIRZA tunables shared by the mirza and
// naive-mirza registrations. Defaults come from core.ForTRHD (Table VII).
var mirzaSchema = []track.ParamSpec{
	{Key: "fth", Kind: track.IntParam, Doc: "Filtering Threshold (RCT counts <= FTH are filtered)"},
	{Key: "window", Kind: track.IntParam, Doc: "MINT window W over escaping activations"},
	{Key: "regions", Kind: track.IntParam, Doc: "RCT regions per bank"},
	{Key: "queue", Kind: track.IntParam, Doc: "MIRZA-Q entries per bank (default 4)"},
	{Key: "qth", Kind: track.IntParam, Doc: "queue tardiness threshold (default 16)"},
	{Key: "reset", Kind: track.StringParam, Doc: "RCT reset policy: safe | eager | lazy (default safe)"},
}

func mirzaDefaults(cfg track.Config, naive bool) (track.Params, error) {
	c, err := core.ForTRHD(cfg.TRHD)
	if err != nil {
		return nil, err
	}
	if naive {
		c.FTH = 0 // no coarse-grained filtering: every ACT reaches the sampler
	}
	return track.Params{
		"fth":     strconv.Itoa(c.FTH),
		"window":  strconv.Itoa(c.MINTWindow),
		"regions": strconv.Itoa(c.Regions),
		"queue":   strconv.Itoa(c.QueueSize),
		"qth":     strconv.Itoa(c.QTH),
		"reset":   c.ResetPolicy.String(),
	}, nil
}

// mirzaConfig assembles and validates a core.Config from the merged
// parameter bag.
func mirzaConfig(cfg track.Config) (core.Config, error) {
	c := core.Config{
		Geometry:   cfg.Geometry,
		Mapping:    cfg.Mapping,
		Seed:       cfg.Seed + uint64(cfg.Sub),
		TargetTRHD: cfg.TRHD,
	}
	var err error
	if c.FTH, err = cfg.Params.Int("fth"); err != nil {
		return core.Config{}, err
	}
	if c.MINTWindow, err = cfg.Params.Int("window"); err != nil {
		return core.Config{}, err
	}
	if c.Regions, err = cfg.Params.Int("regions"); err != nil {
		return core.Config{}, err
	}
	if c.QueueSize, err = cfg.Params.Int("queue"); err != nil {
		return core.Config{}, err
	}
	if c.QTH, err = cfg.Params.Int("qth"); err != nil {
		return core.Config{}, err
	}
	reset, err := cfg.Params.Str("reset")
	if err != nil {
		return core.Config{}, err
	}
	switch reset {
	case "safe":
		c.ResetPolicy = core.SafeReset
	case "eager":
		c.ResetPolicy = core.EagerReset
	case "lazy":
		c.ResetPolicy = core.LazyReset
	default:
		return core.Config{}, fmt.Errorf("param %q: %q is not one of safe, eager, lazy", "reset", reset)
	}
	if err := c.Validate(); err != nil {
		return core.Config{}, err
	}
	return c, nil
}

func registerMirza(name, doc string, naive bool) {
	track.Register(track.Descriptor{
		Name:         name,
		Doc:          doc,
		ConfigSchema: mirzaSchema,
		DefaultConfig: func(cfg track.Config) (track.Params, error) {
			return mirzaDefaults(cfg, naive)
		},
		New: func(cfg track.Config, sink track.Sink) (track.Mitigator, error) {
			c, err := mirzaConfig(cfg)
			if err != nil {
				return nil, err
			}
			return core.New(c, sink)
		},
		Bound: func(cfg track.Config) (track.Bound, error) {
			c, err := mirzaConfig(cfg)
			if err != nil {
				return track.Bound{}, err
			}
			return track.Bound{
				TRHD: security.SafeTRHD(c, security.DefaultMINTModel()),
				Kind: "SafeTRHD",
			}, nil
		},
	})
}

func init() {
	registerMirza("mirza", "MIRZA: RCT coarse-grained filtering + MINT sampling + MIRZA-Q + ALERT back-off", false)
	registerMirza("naive-mirza", "MIRZA without coarse-grained filtering (FTH=0): sampler sees every ACT", true)
}
