package codec

import "fmt"

// Default codec parameters.
const (
	// DefaultTopKFrac is the fraction of entries topk keeps (the paper-
	// adjacent "k = 10%" operating point).
	DefaultTopKFrac = 0.10
	// DefaultQ8Block is the number of values sharing one q8 scale.
	DefaultQ8Block = 256
)

// Names lists the accepted codec names.
const Names = "raw, topk, q8, delta"

// Config selects the wire codecs for one run. The zero value means raw: the
// legacy v1 message layouts, byte-identical to a build without the codec
// subsystem.
//
// topk and q8 compress worker→server pushes (with error feedback); delta
// leaves pushes on the legacy path and pulls with a PullReqV2 that names the
// block the worker holds. In every non-raw run a shard answers a push that
// asks for the next block, or a PullReqV2, with only the entries written
// since the block the worker holds where that is shorter (ps replies.go).
type Config struct {
	// Name is one of Names; empty means "raw".
	Name string `json:"name,omitempty"`
	// TopKFrac is topk's kept fraction in (0, 1]; zero means
	// DefaultTopKFrac.
	TopKFrac float64 `json:"topk_frac,omitempty"`
	// Q8Block is q8's values-per-scale block; zero means DefaultQ8Block.
	Q8Block int `json:"q8_block,omitempty"`
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch c.Name {
	case "", "raw", "topk", "q8", "delta":
	default:
		return fmt.Errorf("codec: unknown codec %q (want one of %s)", c.Name, Names)
	}
	if c.TopKFrac < 0 || c.TopKFrac > 1 {
		return fmt.Errorf("codec: TopKFrac %v outside (0, 1]", c.TopKFrac)
	}
	if c.Q8Block < 0 {
		return fmt.Errorf("codec: negative Q8Block %d", c.Q8Block)
	}
	return nil
}

// IsRaw reports whether the config selects the legacy byte-identical path.
func (c Config) IsRaw() bool { return c.Name == "" || c.Name == "raw" }

// UsesDelta reports whether the worker pulls with PullReqV2.
func (c Config) UsesDelta() bool { return c.Name == "delta" }

// PushName returns the codec label carried by push payloads.
func (c Config) PushName() string {
	switch c.Name {
	case "topk", "q8":
		return c.Name
	default:
		return "raw"
	}
}

// PullName returns the codec label carried by pull responses.
func (c Config) PullName() string {
	if c.UsesDelta() {
		return "delta"
	}
	return "raw"
}

// Build validates c and returns the push-side codec (nil when pushes use the
// legacy raw layout) and whether pulls are PullReqV2s. A top-k codec owns
// its selection scratch, so it must not encode on two goroutines at once.
func Build(c Config) (push Codec, deltaPull bool, err error) {
	if err := c.Validate(); err != nil {
		return nil, false, err
	}
	switch c.Name {
	case "topk":
		return TopK{Frac: c.TopKFrac, scratch: new(topkScratch)}, false, nil
	case "q8":
		return Q8{Block: c.Q8Block}, false, nil
	case "delta":
		return nil, true, nil
	default:
		return nil, false, nil
	}
}
