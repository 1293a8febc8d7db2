package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// recordDigests runs every workload once per input seed, untraced and (for
// the simulator workloads) traced, and writes their output digests to
// perfbench/digests.json. Run it only when a change is meant to alter
// simulated output.
func recordDigests(root, experiments, dir string) error {
	out := make(digests)
	for _, w := range simWorkloads {
		out[w.name] = make(map[string]string)
		for in := uint64(1); in <= inputSeeds; in++ {
			plain, err := runSim(w, in, nil, dir)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, in, err)
			}
			traced, err := runSim(w, in, newTracer(), dir)
			if err != nil {
				return fmt.Errorf("%s seed %d traced: %w", w.name, in, err)
			}
			if traced.digest != plain.digest || traced.skipped != plain.skipped {
				return fmt.Errorf("%s seed %d: traced run (digest %s, %d skipped) differs from untraced (%s, %d)",
					w.name, in, traced.digest, traced.skipped, plain.digest, plain.skipped)
			}
			out[w.name][fmt.Sprint(in)] = plain.digest
			fmt.Fprintf(os.Stderr, "%s seed %d: %s\n", w.name, in, plain.digest)
		}
	}
	out["paper-regen"] = make(map[string]string)
	for in := uint64(1); in <= inputSeeds; in++ {
		r, outcomes := runSuite(experiments, dir, in, false, "")
		for _, err := range outcomes {
			if err != nil {
				return fmt.Errorf("paper-regen seed %d: %w", in, err)
			}
		}
		out["paper-regen"][fmt.Sprint(in)] = textDigest(r.stdout)
		fmt.Fprintf(os.Stderr, "paper-regen seed %d: %s\n", in, textDigest(r.stdout))
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(root, "perfbench", "digests.json"), append(b, '\n'), 0o644)
}

// sourceHash identifies the code under test by the content of its Go
// sources and module files, since a benchmark checkout need not be a git
// repository.
func sourceHash(root string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "", fmt.Errorf("hash sources: %w", err)
	}
	return "src-" + hex.EncodeToString(h.Sum(nil))[:12], nil
}
