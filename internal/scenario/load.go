package scenario

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"fscache/internal/alloc"
)

// Loaded pairs a parsed spec with the directory its relative trace paths
// resolve against (the spec file's own directory).
type Loaded struct {
	Spec *Spec
	Dir  string
}

// LoadSpecs reads one spec file, or every *.yaml/*.yml/*.json spec in a
// directory (sorted by file name). Specs without an explicit name are
// named after their file's base name.
func LoadSpecs(path string) ([]Loaded, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	var files []string
	if info.IsDir() {
		entries, err := os.ReadDir(path)
		if err != nil {
			return nil, err
		}
		for _, e := range entries {
			if e.IsDir() {
				continue
			}
			switch filepath.Ext(e.Name()) {
			case ".yaml", ".yml", ".json":
				files = append(files, filepath.Join(path, e.Name()))
			}
		}
		sort.Strings(files)
		if len(files) == 0 {
			return nil, fmt.Errorf("scenario: no *.yaml, *.yml or *.json specs in %s", path)
		}
	} else {
		files = []string{path}
	}
	out := make([]Loaded, 0, len(files))
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		base := strings.TrimSuffix(filepath.Base(f), filepath.Ext(f))
		spec, err := Parse(data, base)
		if err != nil {
			return nil, err
		}
		out = append(out, Loaded{Spec: spec, Dir: filepath.Dir(f)})
	}
	return out, nil
}

// Setup is a live partitioned cache's starting point: the compiled spec
// (nil without one), the geometry, one initial target per partition summing
// to Lines, and the online allocator (nil without an objective).
type Setup struct {
	Comp        *Compiled
	Lines, Ways int
	Targets     []int
	Alloc       *alloc.Allocator
}

// NewSetup builds a Setup. A spec file at path replaces lines, ways and
// targets with its cache block and initial-live shares. A non-empty
// objective adds an allocator: the spec's (AllocConfig), or without one the
// alloc package defaults seeded from targets and seed.
func NewSetup(path string, lines, ways int, targets []int, objective string, seed uint64) (Setup, error) {
	s := Setup{Lines: lines, Ways: ways, Targets: targets}
	if path != "" {
		ls, err := LoadSpec(path)
		if err != nil {
			return Setup{}, err
		}
		if s.Comp, err = Compile(ls.Spec, ls.Dir); err != nil {
			return Setup{}, err
		}
		s.Lines, s.Ways = ls.Spec.Cache.Lines, ls.Spec.Cache.Ways
		s.Targets = s.Comp.Targets(s.Lines, s.Comp.InitialLive())
	}
	if objective == "" {
		return s, nil
	}
	cfg := alloc.Config{Parts: len(s.Targets), Lines: s.Lines, Initial: append([]int(nil), s.Targets...), Seed: seed}
	var err error
	if s.Comp != nil {
		cfg, err = s.Comp.AllocConfig(objective)
	} else {
		cfg.Objective, err = alloc.ByName(objective)
	}
	if err != nil {
		return Setup{}, err
	}
	s.Alloc = alloc.New(cfg)
	return s, nil
}

// LoadSpec reads exactly one spec file.
func LoadSpec(path string) (Loaded, error) {
	info, err := os.Stat(path)
	if err != nil {
		return Loaded{}, err
	}
	if info.IsDir() {
		return Loaded{}, fmt.Errorf("scenario: %s is a directory, want one spec file", path)
	}
	ls, err := LoadSpecs(path)
	if err != nil {
		return Loaded{}, err
	}
	return ls[0], nil
}
