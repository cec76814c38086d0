package cluster

import (
	"fmt"
	"time"

	"specsync/internal/scheme"
)

// Name-based resolvers for surfaces that receive workload/scheme choices as
// strings (the jobs gateway, CLIs). The names match the cmd/specsync flag
// vocabulary; "-small" suffixes select the reduced scale.

// SizeByName resolves a -size flag value.
func SizeByName(name string) (Size, error) {
	switch name {
	case "full":
		return SizeFull, nil
	case "small":
		return SizeSmall, nil
	default:
		return 0, fmt.Errorf("unknown size %q (want full or small)", name)
	}
}

// WorkloadByName builds a workload from its string name.
func WorkloadByName(name string, workers int, seed int64) (Workload, error) {
	switch name {
	case "tiny":
		return NewTiny(workers, seed)
	case "mf":
		return NewMF(SizeFull, workers, seed)
	case "mf-small":
		return NewMF(SizeSmall, workers, seed)
	case "cifar10":
		return NewCIFAR(SizeFull, workers, seed)
	case "cifar10-small":
		return NewCIFAR(SizeSmall, workers, seed)
	case "imagenet":
		return NewImageNet(SizeFull, workers, seed)
	case "imagenet-small":
		return NewImageNet(SizeSmall, workers, seed)
	default:
		return Workload{}, fmt.Errorf("unknown workload %q (want tiny, mf[-small], cifar10[-small], imagenet[-small])", name)
	}
}

// SchemeByName builds a scheme config from its string name. iterTime scales
// the fixed-speculation preset ("cherry"); pass the workload's IterTime.
func SchemeByName(name string, iterTime time.Duration) (scheme.Config, error) {
	switch name {
	case "asp":
		return scheme.Config{Base: scheme.ASP}, nil
	case "bsp":
		return scheme.Config{Base: scheme.BSP}, nil
	case "ssp":
		return scheme.Config{Base: scheme.SSP, Staleness: 3}, nil
	case "naive":
		return scheme.Config{Base: scheme.ASP, NaiveWait: time.Second}, nil
	case "cherry":
		return scheme.Config{Base: scheme.ASP, Spec: scheme.SpecFixed, AbortTime: iterTime / 4, AbortRate: 0.22}, nil
	case "adaptive", "specsync":
		return scheme.Config{Base: scheme.ASP, Spec: scheme.SpecAdaptive}, nil
	default:
		return scheme.Config{}, fmt.Errorf("unknown scheme %q (want asp, bsp, ssp, naive, cherry, adaptive)", name)
	}
}
