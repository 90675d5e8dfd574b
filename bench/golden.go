package main

import (
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"sort"
)

// goldenSeed is the seed whose output digests are pinned in golden.json.
const goldenSeed = 1

// golden is the pinned set of output digests for goldenSeed, keyed
// "<scale>/<workload>/<output>".
type golden struct {
	Note    string            `json:"note"`
	Seed    uint64            `json:"seed"`
	Digests map[string]string `json:"digests"`
}

func readGolden(path string) (*golden, error) {
	g := &golden{Seed: goldenSeed, Digests: map[string]string{}}
	b, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return g, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(b, g); err != nil {
		return nil, err
	}
	return g, nil
}

func (g *golden) write(path string) error {
	g.Note = "SHA-256 digests of the benchmark's outputs for seed 1; regenerate with -update"
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// check compares a run's digests with the pinned ones and returns the names
// that differ or are not pinned.
func (g *golden) check(prefix string, got map[string]string) []string {
	var bad []string
	for _, k := range sortedKeys(got) {
		if want, ok := g.Digests[prefix+k]; !ok || want != got[k] {
			bad = append(bad, k)
		}
	}
	return bad
}

func (g *golden) set(prefix string, got map[string]string) {
	for k, v := range got {
		g.Digests[prefix+k] = v
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
