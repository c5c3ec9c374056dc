package harness

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/model"
)

// ProtocolNames is the help-text list of built-in protocol registry
// names accepted by BuildProtocol.
const ProtocolNames = "algorithm1|algorithm1-readable|racing|readable|pair|pairing|register-kset|toybit|ablation-margin1"

// BuildProtocol materializes a built-in protocol instance by registry
// name. It is the single protocol registry shared by the checker
// binaries and the distributed peer server: a coordinator's HELLO names
// the protocol with (name, n, k, m), and every peer building it through
// here provably checks the same instance the coordinator planned.
func BuildProtocol(name string, n, k, m int) (model.Protocol, error) {
	switch name {
	case "algorithm1":
		return core.New(core.Params{N: n, K: k, M: m})
	case "algorithm1-readable":
		return core.New(core.Params{N: n, K: k, M: m, Readable: true})
	case "racing":
		return baseline.NewRacingCounters(n, m)
	case "readable":
		return baseline.NewReadableRace(n, m)
	case "pair":
		return baseline.NewPairConsensus(m).WithProcesses(n), nil
	case "pairing":
		return baseline.NewPairing(n, k, m)
	case "register-kset":
		return baseline.NewRegisterKSet(n, k, m)
	case "toybit":
		return baseline.NewToyBitRace(n, n)
	case "ablation-margin1":
		return core.New(core.Params{N: n, K: k, M: m, Ablation: core.Ablation{Margin: 1}})
	default:
		return nil, fmt.Errorf("unknown protocol %q", name)
	}
}
