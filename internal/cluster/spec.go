package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
)

// DecodeSpec decodes a run spec, the JSON form of Config that every binary
// loads. The workload is a name (WorkloadByName) built for the spec's
// workers and seed; the iter_time, target_loss, momentum and jitter_sigma
// keys beside the name override the built profile, an explicit zero
// included. Durations are nanosecond integers, as in the two plan formats
// (faults and stragglers). A key the document
// does not define is an error anywhere in it, so a misspelling cannot fall
// back to a default. DecodeSpec does not validate; Run (Validate) does.
func DecodeSpec(data []byte) (Config, error) {
	var c Config
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return Config{}, fmt.Errorf("spec: %w", err)
	}
	wl, err := WorkloadByName(c.Workload.Name, c.Workers, c.Seed)
	if err != nil {
		return Config{}, fmt.Errorf("spec: %w", err)
	}
	// Decoding the workload object again onto the built profile sets exactly
	// the keys it spells out.
	var doc struct{ Workload json.RawMessage }
	if err := json.Unmarshal(data, &doc); err != nil {
		return Config{}, fmt.Errorf("spec: %w", err)
	}
	if err := json.Unmarshal(doc.Workload, &wl); err != nil {
		return Config{}, fmt.Errorf("spec: workload: %w", err)
	}
	c.Workload = wl
	return c, nil
}

// LoadSpec reads and decodes the run spec at path.
func LoadSpec(path string) (Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Config{}, err
	}
	c, err := DecodeSpec(data)
	if err != nil {
		return Config{}, fmt.Errorf("%s: %w", path, err)
	}
	return c, nil
}
