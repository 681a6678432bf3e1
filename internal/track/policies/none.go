// Package policies registers every mitigation policy in the repository with
// the track registry. Consumers that resolve defenses by name (the CLIs,
// the experiment grids, serve admission, the conformance harness)
// blank-import this package; internal/track itself stays free of policy
// wiring so implementations may depend on internal/core and
// internal/security without import cycles.
//
// Each policy is one file: its tracker type, constructor, parameter checks,
// fault hook and Register call. The registration is the single source of
// truth for that policy's Table-I provisioning: default parameters, the
// DRAM timing it requires, the RFM Bank Activation Threshold the memory
// controller must honor, and the analytic security bound the attack sweep
// checks against.
package policies

import "mirza/internal/track"

// The unprotected baseline; its tracker, track.Nop, lives in package track
// because the memory controller uses it as its default.
func init() {
	track.Register(track.Descriptor{
		Name:     "none",
		Doc:      "no mitigation (unprotected baseline)",
		Insecure: true,
		New: func(cfg track.Config, sink track.Sink) (track.Mitigator, error) {
			return track.NewNop(), nil
		},
		Bound: func(cfg track.Config) (track.Bound, error) {
			return track.Bound{TRHD: cfg.TRHD, Kind: "nominal TRHD (unprotected)"}, nil
		},
	})
}
