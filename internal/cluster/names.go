package cluster

import "fmt"

// Name-based resolvers for surfaces that receive workload choices as
// strings (run specs, specsync-bench's -size). A "-small"
// suffix selects the reduced scale.

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
